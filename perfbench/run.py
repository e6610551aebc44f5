"""The kfdaseg benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload seams --seed 0 --seconds 20 --trace 0

Set-up builds INPUTS input sets of the workload from the seed, each
SETUP_REPEATS times (the builds must be byte-identical), and reports the
median build time as `setup_s`. The pipeline then runs on the input sets in rounds, one fresh
worker process per run, for at least two rounds and until `--seconds` have
passed. Timings are medians over all runs; quality figures are means over
the input sets. Every run's outputs are checked: labels agree with the
mask, `report.json` passes the pipeline's schema, and `labels.u8raw` and
`report.json` are byte-identical across the runs of one input set. A run
that raises or fails a check counts as failed, never as a dropped sample.

With `--trace 1` an untraced run of the first input set comes first and the
rounds are traced: traced labels must match the untraced run's, the spans
must account for the classify and stitch stage times, and the per-layer
metrics are medians over the traced runs.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; metric names and units are
the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from program import ROOT, MissingProgram, import_kfdaseg
from tracing import reconciliation_errors
from workloads import CONFIG, OUT, VOLUME, WORKLOADS

# input sets per run: averaging over several inputs keeps one seed's luck
# (how many overlap strips disagree, how fast a solve converges) out of
# the figures
INPUTS = 3
MIN_ROUNDS = 2
# a build takes 10-30 ms, so one build's timing is mostly noise
SETUP_REPEATS = 5
# a run must end within 180 s: no worker starts that could not finish
# within BUDGET_S, judging by the previous worker's time
BUDGET_S = 165.0
WORK_DIR = ROOT / "perfbench" / ".work"


@dataclass
class Run:
    input: int
    traced: bool
    wall_s: float
    error: str | None = None
    result: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    digest: str = ""


def environment() -> dict:
    import importlib.util

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def _blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS numpy loaded, or None if it is not found."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def set_up(workload, seed: int, work: Path):
    """Build each input set SETUP_REPEATS times: (dirs, times, masked voxels, error)."""
    dirs, times, masked, error = [], [], set(), None
    for j in range(INPUTS):
        input_dir = work / str(j)
        digests = set()
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(input_dir, ignore_errors=True)
            (input_dir / "inputs").mkdir(parents=True)
            t0 = time.perf_counter()
            x = INPUTS * seed + j if workload.seeded else j
            masked.add(workload.make_inputs(x, input_dir))
            times.append(time.perf_counter() - t0)
            digests.add(_digest(sorted((input_dir / "inputs").iterdir())
                                + [input_dir / CONFIG]))
        if len(digests) != 1:
            error = f"set-up of input {j} wrote different files when repeated"
        dirs.append(input_dir)
    if len(masked) != 1:
        error = f"input sets differ in masked voxels: {sorted(masked)}"
    return dirs, times, masked.pop(), error


def check_outputs(out: Path, mask) -> tuple[dict, str]:
    """Validate one run's outputs; return its quality figures and digest."""
    import jsonschema
    from kfdaseg import pipeline, volume

    labels = volume.load_labels(out / "labels.u8raw")
    if not volume.check_mask_consistency(labels, mask):
        raise ValueError("labels disagree with the mask")
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, pipeline.REPORT_SCHEMA)
    dice = report["dice"] or {}
    if any(dice.get(c) is None for c in ("csf", "gm", "wm")):
        raise ValueError(f"report lacks a Dice score: {dice}")
    if report["improved_fraction"] is None:
        raise ValueError("report has no subdomain with both MSSIM values")
    mssim = [row["mssim_kfda"] for row in report["subdomains"]
             if row["mssim_kfda"] is not None]
    quality = {
        "dice_csf": dice["csf"], "dice_gm": dice["gm"], "dice_wm": dice["wm"],
        "mssim_mean": statistics.fmean(mssim),
        "improved_frac": report["improved_fraction"],
    }
    return quality, _digest([out / "labels.u8raw", out / "report.json"])


def run_once(input_dir: Path, index: int, traced: bool, mask, timeout: float) -> Run:
    """One worker process running the pipeline on one input set."""
    shutil.rmtree(input_dir / OUT, ignore_errors=True)
    result_path = input_dir / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), CONFIG, result_path.name]
    if traced:
        cmd += ["--trace", "spans.json"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=input_dir, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Run(index, traced, time.perf_counter() - t0,
                   f"timed out after {timeout:.0f} s")
    run = Run(index, traced, time.perf_counter() - t0)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["(no output)"]
        run.error = f"worker exited with {proc.returncode}: {tail[0]}"
        return run
    run.result = json.loads(result_path.read_text())
    try:
        run.quality, run.digest = check_outputs(input_dir / OUT, mask)
    except Exception as exc:    # any defect in the outputs fails the run
        run.error = f"output check: {type(exc).__name__}: {exc}"
    return run


def measure(dirs, seconds: float, trace: bool, mask, started: float) -> list[Run]:
    """Run rounds over the input sets until both MIN_ROUNDS and `seconds` are met."""
    runs = []

    def start(index, traced):
        elapsed = time.perf_counter() - started
        if runs and elapsed + runs[-1].wall_s > BUDGET_S:
            return False
        runs.append(run_once(dirs[index], index, traced, mask,
                             max(BUDGET_S + 10.0 - elapsed, 1.0)))
        return True

    loop_start = time.perf_counter()
    if trace:
        start(0, False)
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - loop_start < seconds:
        for index in range(len(dirs)):
            if not start(index, trace):
                return runs
        rounds += 1
    return runs


def judge(runs: list[Run]) -> None:
    """Fail runs whose outputs differ from their input set's first good run,
    and traced runs whose spans do not account for the stage times."""
    reference = {}
    for r in runs:
        if r.error is not None:
            continue
        if reference.setdefault(r.input, r.digest) != r.digest:
            r.error = f"outputs of input {r.input} differ from its first run"
        elif r.traced:
            problems = reconciliation_errors(r.result["layers"])
            if problems:
                r.error = "trace does not reconcile: " + "; ".join(problems)


def end_to_end(runs, setup_times, masked) -> dict:
    good = [r for r in runs if r.error is None]
    run_s = statistics.median(r.result["run_s"] for r in good)
    metrics = {
        "run_s": run_s,
        "voxels_per_s": masked / run_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(r.result["peak_rss_mb"] for r in good),
    }
    first = {}
    for r in good:
        first.setdefault(r.input, r.quality)
    for name in good[0].quality:
        metrics[name] = statistics.fmean(q[name] for q in first.values())
    return metrics


def per_layer(runs) -> dict:
    traced = [r for r in runs if r.error is None and r.traced]
    metrics = {name: statistics.median(r.result["layers"][name] for r in traced)
               for name in traced[0].result["layers"]}
    reference = [r for r in runs if r.error is None and not r.traced]
    same_input = [r.result["run_s"] for r in traced if r.input == 0]
    if reference and same_input:
        metrics["trace.overhead_frac"] = (statistics.median(same_input)
                                          / reference[0].result["run_s"] - 1.0)
    return metrics


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_kfdaseg()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from kfdaseg import volume

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    workload = WORKLOADS[args.workload]
    work = WORK_DIR / workload.name
    shutil.rmtree(work, ignore_errors=True)
    print("environment " + json.dumps(environment(), sort_keys=True))

    dirs, setup_times, masked, setup_error = set_up(workload, args.seed, work)
    mask = volume.load_volume(dirs[0] / VOLUME).mask
    runs = measure(dirs, args.seconds, bool(args.trace), mask, started)
    judge(runs)

    failed = [r for r in runs if r.error is not None]
    metrics = {}
    if any(r.error is None and r.traced == bool(args.trace) for r in runs):
        metrics = per_layer(runs) if args.trace else end_to_end(runs, setup_times, masked)
        # a failed untraced run leaves trace.overhead_frac out; nothing else may
        if set(metrics) - set(units) or (set(units) - set(metrics) and not failed):
            raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are "
                               f"computed or declared, not both")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(runs)} runs on {len(dirs)} input sets, {len(failed)} failed, "
          f"{time.perf_counter() - started:.1f} s in all")
    print("  run_s of each run (input:seconds, t = traced): " + " ".join(
        f"{r.input}:{r.result['run_s']:.3f}{'t' if r.traced else ''}"
        if r.result else f"{r.input}:failed" for r in runs))
    for r in failed:
        print(f"  failed run on input {r.input}: {r.error}")
    if setup_error:
        print(f"  set-up: {setup_error}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':34s} {len(failed) / len(runs):>16.6g} "
          f"({len(failed)} of {len(runs)} runs)")
    print(json.dumps({
        "correct": not failed and setup_error is None and bool(metrics),
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
