"""Command-line interface: each pipeline stage independently invokable.

Verbs: phantom, init, partition, classify, stitch, run, report. The stage
verbs call the stage functions that `run` chains (`pipeline.*_stage`) and
add only their own file I/O, so they write the same bytes as `run`: report
rebuilds the report files from the labels and diagnostics that stitch and
classify (or run) left in the output directory. Exit codes: 0 success,
2 a ValueError (LinAlgError too) or missing file or key, 3 an ArithmeticError.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import phantom, pipeline, volume as vol_io

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
STAGES = ("partition", "classify", "stitch", "run", "report")


def _add_common(sub, suppress=True):
    default = argparse.SUPPRESS if suppress else None
    sub.add_argument("--config", type=str, default=default,
                     help="pipeline config JSON")
    sub.add_argument("--out", type=str, default=default,
                     help="output directory (overrides config)")
    sub.add_argument("--seed", type=int, default=default,
                     help="root RNG seed (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfdaseg",
        description="Local semi-supervised tissue classification pipeline")
    parser.add_argument("--stage", choices=STAGES,
                        help="alternative to the positional verb")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="verb")

    p = sub.add_parser("phantom", help="generate a synthetic volume + ground truth")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dims", type=int, nargs=3, default=(64, 64, 64))
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--bias", type=float, default=0.1)
    p.add_argument("--blur", type=float, default=1.0)
    p.add_argument("--geometry", choices=("shells", "blocks"), default="shells")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("init", help="k-means initial labels for a volume")
    p.add_argument("--volume", required=True)
    p.add_argument("--out", required=True, help="output label file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt-boundary", type=float, default=0.0,
                   help="fraction of boundary voxels to corrupt")

    for verb in STAGES:
        _add_common(sub.add_parser(verb))

    return parser


def _load_config(args) -> pipeline.PipelineConfig:
    if args.config:
        cfg = pipeline.PipelineConfig.from_json(args.config)
    else:
        cfg = pipeline.PipelineConfig()
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


def cmd_phantom(args) -> int:
    out = Path(args.out)
    spec = phantom.PhantomSpec(dims=tuple(args.dims), noise_sigma=args.noise,
                               bias_amplitude=args.bias, pv_blur=args.blur,
                               geometry=args.geometry, seed=args.seed)
    vol, truth = phantom.generate_phantom(spec)
    vol_io.save_volume(vol, out / "phantom.f32raw")
    vol_io.save_labels(truth, out / "truth.u8raw")
    print(f"wrote {out / 'phantom.f32raw'} and {out / 'truth.u8raw'}")
    return EXIT_OK


def cmd_init(args) -> int:
    vol = vol_io.load_volume(args.volume)
    vol = vol_io.normalize_intensities(vol)
    labels = phantom.kmeans_init(vol, seed=args.seed)
    if args.corrupt_boundary > 0:
        labels = phantom.corrupt_boundary_labels(labels, vol.mask,
                                                 args.corrupt_boundary, seed=args.seed)
    vol_io.save_labels(labels, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _partitioned(cfg: pipeline.PipelineConfig):
    """Load and partition the volume, write partition.json: (vol, tree, out dir)."""
    cfg.validate()
    vol = pipeline.load_stage(cfg)
    tree = pipeline.partition_stage(cfg, vol)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "partition.json").write_text(tree.to_json())
    return vol, tree, out


def cmd_partition(args) -> int:
    _, tree, out = _partitioned(_load_config(args))
    print(f"{len(tree.leaves)} subdomains (optimal count {tree.optimal_count}); "
          f"wrote {out / 'partition.json'}")
    return EXIT_OK


def cmd_classify(args) -> int:
    cfg = _load_config(args)
    vol, tree, out = _partitioned(cfg)
    init = pipeline.init_stage(cfg, vol)
    fragments, diagnostics = pipeline.classify_stage(cfg, vol, init, tree, out_dir=out)
    pipeline.save_fragments(fragments, out / "fragments")
    pipeline.write_json(out / "subdomains.json", diagnostics)
    print(f"classified {len(fragments)} subdomains into {out / 'fragments'}")
    return EXIT_OK


def cmd_stitch(args) -> int:
    cfg = _load_config(args)
    cfg.validate()
    vol = pipeline.load_stage(cfg)
    # fragments from another partition are rejected before any file is written
    tree = pipeline.partition_stage(cfg, vol)
    out = Path(cfg.out_dir)
    fragments = pipeline.load_fragments(out / "fragments")
    final = pipeline.stitch_stage(cfg, vol, tree, fragments)
    vol_io.save_labels(final, out / "labels.u8raw")
    print(f"wrote {out / 'labels.u8raw'}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args)
    report = pipeline.run_pipeline(cfg)
    counts = report.class_counts.get("final", {})
    print(f"done: {len(report.subdomains)} subdomains, class counts {counts}; "
          f"outputs in {cfg.out_dir}")
    if report.dice:
        print("dice vs ground truth: " + ", ".join(
            f"{k}={v:.4f}" for k, v in report.dice.items() if v is not None))
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _load_config(args)
    cfg.validate()
    vol = pipeline.load_stage(cfg)
    # partition.json stays as classify left it: a partition that does not
    # match subdomains.json is rejected before any file is written
    tree = pipeline.partition_stage(cfg, vol)
    out = Path(cfg.out_dir)
    init = pipeline.init_stage(cfg, vol)
    truth = pipeline.truth_stage(cfg, vol)
    final = vol_io.load_labels(out / "labels.u8raw")
    diagnostics = json.loads((out / "subdomains.json").read_text())
    report = pipeline.report_stage(cfg, vol, init, tree, final, diagnostics, truth)
    pipeline.emit_report(report, out)
    print(f"wrote the report files in {out}")
    return EXIT_OK


COMMANDS = {
    "phantom": cmd_phantom,
    "init": cmd_init,
    "partition": cmd_partition,
    "classify": cmd_classify,
    "stitch": cmd_stitch,
    "run": cmd_run,
    "report": cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    verb = args.verb or args.stage
    if verb is None:
        parser.print_help()
        return EXIT_VALIDATION
    try:
        return COMMANDS[verb](args)
    except (ValueError, FileNotFoundError, KeyError, pipeline.PipelineStageError,
            ArithmeticError) as exc:
        # a stage error is judged by the exception that raised it; any
        # other exception is a fault of the program and keeps its traceback
        cause = exc.__cause__ if isinstance(exc, pipeline.PipelineStageError) else exc
        if not isinstance(cause, (ValueError, FileNotFoundError, KeyError, ArithmeticError)):
            raise
        logger.error("%s", exc)
        return EXIT_NUMERICAL if isinstance(cause, ArithmeticError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
