"""Run the pipeline once from a config file, in a process of its own.

    python3 perfbench/worker.py CONFIG RESULT [--trace SPANS]

Times `PipelineConfig.from_json` plus `run_pipeline`, which is what
`kfdaseg run` does, and writes the wall time, the process's peak resident
memory and `report.timing` to RESULT as JSON. A process per run keeps one
run's memory peak out of the next. With `--trace` the layer boundaries are
wrapped first; the per-layer metrics go into RESULT and the spans to SPANS.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

from program import import_kfdaseg
from tracing import Tracer, layer_metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("result")
    parser.add_argument("--trace", metavar="SPANS")
    args = parser.parse_args(argv)

    import_kfdaseg()
    from kfdaseg import pipeline

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    cfg = pipeline.PipelineConfig.from_json(args.config)
    report = pipeline.run_pipeline(cfg)
    run_s = time.perf_counter() - t0
    result = {
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "timing": report.timing,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, report.timing, Path(cfg.out_dir))
        tracer.dump(Path(args.trace))
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
