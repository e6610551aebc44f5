"""Fingerprint the pipeline's outputs on the benchmark inputs and acceptance configs.

    PYTHONPATH=src python3 tools/gate.py [--criteria] > gate.json

Runs `run_pipeline` on the 9 benchmark input sets (input sets 0-2 of each
workload in `perfbench/workloads.py`, built from its recipes exactly as a
benchmark run at seed 0 builds them) and on the criterion-8 and -9 configs
of `tests/test_acceptance.py`, built by `tests/recipes.py`; `--criteria`
adds criterion 7's 64³ config at its `l_max=2000`. Prints one JSON
object: per config, the sha256 of `labels.u8raw`, `subdomains.json`,
`partition.json`, `mssim_table.csv`, `curves.csv` and of `report.json`
less `config.out_dir` (the one field that names the run's directory), and
each leaf's per-step decision: the chosen lambda, that solve's best k and
its route, and the rank of the step's kernel factor, or the step's skip
reason. A change that moves rounding so
that a rank changes then shows it beside any lambda, k or route it moves.

A change that should leave every output as it was is checked by running
this at the change and at its parent and diffing the two outputs. Every
file is written under a temporary directory; nothing under `perfbench/` is
written, not even a bytecode cache.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("labels.u8raw", "subdomains.json", "partition.json", "mssim_table.csv",
           "curves.csv")


def load_workloads():
    """perfbench's WORKLOADS table, imported without writing a bytecode cache."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    return WORKLOADS


def fingerprint(out: Path) -> dict:
    """Output hashes and per-step decisions of one run's out_dir."""
    doc = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}
    report = json.loads((out / "report.json").read_text())
    del report["config"]["out_dir"]
    doc["report.json"] = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()).hexdigest()
    decisions = []
    for leaf in json.loads((out / "subdomains.json").read_text()):
        steps = {}
        for key, step in sorted(leaf["steps"].items()):
            if step.get("chosen_lambda") is None:
                steps[key] = step.get("skipped")
                continue
            entry = next(e for e in step["sweep"] if e["lambda"] == step["chosen_lambda"])
            steps[key] = (f"lambda {step['chosen_lambda']}, k {entry.get('best_k')}, "
                          f"{entry.get('route', entry.get('fallback'))}, rank {step['rank']}")
        decisions.append(steps)
    doc["decisions"] = decisions
    return doc


def benchmark_runs(work: Path) -> dict:
    """Fingerprints of each workload's input sets 0-2."""
    from kfdaseg.pipeline import PipelineConfig, run_pipeline

    results = {}
    for name, workload in load_workloads().items():
        for x in range(3):
            input_dir = work / f"{name}-{x}"
            (input_dir / "inputs").mkdir(parents=True)
            workload.make_inputs(x, input_dir)
            # config paths are relative to the input directory, as for the worker
            cwd = os.getcwd()
            os.chdir(input_dir)
            try:
                run_pipeline(PipelineConfig.from_json("config.json"))
            finally:
                os.chdir(cwd)
            results[f"{name}/{x}"] = fingerprint(input_dir / "out")
    return results


def criterion_runs(work: Path, with_7: bool) -> dict:
    """Fingerprints of the criterion-8 and -9 configs, and of criterion 7's."""
    sys.path.insert(0, str(ROOT / "tests"))
    import recipes

    builders = {"criterion-8": recipes.criterion_8, "criterion-9": recipes.criterion_9}
    if with_7:
        builders["criterion-7"] = recipes.criterion_7
    results = {}
    for name, build in builders.items():
        build().run(work / name)
        results[name] = fingerprint(work / name)
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--criteria", action="store_true",
                        help="also run criterion 7's 64³ config (about 10 s more)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        results = benchmark_runs(work)
        results.update(criterion_runs(work, args.criteria))
    print(json.dumps(results, sort_keys=True, indent=1))


if __name__ == "__main__":
    main()
