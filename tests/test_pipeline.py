"""End-to-end pipeline behavior: outputs, determinism, self-consistency, CLI."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kfdaseg import cli, kfda
from kfdaseg.phantom import PhantomSpec, corrupt_boundary_labels, generate_phantom, kmeans_init
from kfdaseg.pipeline import (PipelineConfig, PipelineStageError, REPORT_SCHEMA,
                              dice_scores, partition_stage, report_stage, run_pipeline,
                              stitch_stage)
from kfdaseg.ssim import classified_mean_image, mssim, reference_windows, window_fits
from kfdaseg.stitch import ClassifiedFragment
from kfdaseg.volume import (BG, LabelVolume, MultiChannelVolume, box_slices,
                            check_mask_consistency, load_labels, load_volume,
                            normalize_intensities, save_labels, save_volume)


def small_config(out_dir, **overrides):
    base = dict(out_dir=str(out_dir), seed=3, l_max=800, max_depth=3,
                sa_sweeps=8,
                lambda_grid=(0.0, 0.00005), k_grid=(1, 3))
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    spec = PhantomSpec(dims=(28, 28, 28), noise_sigma=0.04, bias_amplitude=0.08,
                       pv_blur=1.0, seed=21)
    vol, truth = generate_phantom(spec)
    init = corrupt_boundary_labels(kmeans_init(vol, seed=0), vol.mask, 0.15, seed=2)
    cfg = small_config(out)
    report = run_pipeline(cfg, vol=vol, init_labels=init, ground_truth=truth)
    return cfg, vol, truth, init, report


def test_outputs_written(small_run):
    cfg, *_ = small_run
    out = Path(cfg.out_dir)
    for name in ("report.json", "labels.u8raw", "labels.json", "mssim_table.csv",
                 "curves.csv", "partition.json", "subdomains.json", "timing.json"):
        assert (out / name).exists(), name


def test_report_schema_round_trip(small_run):
    cfg, *_ = small_run
    doc = json.loads((Path(cfg.out_dir) / "report.json").read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert len(doc["subdomains"]) >= 1
    assert doc["class_counts"]["final"].keys() == {"csf", "gm", "wm"}
    assert doc["unchanged_count"] == sum(
        row["mssim_kfda"] is not None and row["mssim_kfda"] == row["mssim_initial"]
        for row in doc["subdomains"])
    comparable = [row for row in doc["subdomains"]
                  if row["mssim_kfda"] is not None and row["mssim_initial"] is not None]
    assert doc["strictly_improved_fraction"] == sum(
        row["mssim_kfda"] > row["mssim_initial"] for row in comparable) / len(comparable)


def test_report_schema_is_a_valid_schema():
    # emit_report's validator is built once and never checks the schema
    # itself against its metaschema; this does
    jsonschema.validators.validator_for(REPORT_SCHEMA).check_schema(REPORT_SCHEMA)


def test_report_counts_unchanged_leaves(small_run):
    # a leaf handed back as it came in counts as improved, so only
    # unchanged_count and the strict share tell that nothing was done
    cfg, vol, truth, init, report = small_run
    vol = normalize_intensities(vol)
    tree = partition_stage(cfg, vol)
    passed = report_stage(cfg, vol, init, tree, init, report.diagnostics)
    assert passed.unchanged_count == len(tree.leaf_nodes())
    assert passed.improved_fraction == 1.0
    assert passed.strictly_improved_fraction == 0.0


def test_leaf_without_mask_voxels(tmp_path):
    # a mask in the first slab alone leaves the partition with leaves whose
    # padded boxes hold no mask voxel: classify hands each back as an
    # all-background box with no steps, and its report row has no MSSIM
    from kfdaseg import kfda

    rng = np.random.default_rng(3)
    dims = (7, 7, 12)
    mask = np.zeros(dims, dtype=bool)
    mask[0] = rng.random(dims[1:]) < 0.8
    data = (rng.random(dims + (1,)) * mask[..., None]).astype(np.float32)
    vol = MultiChannelVolume(data=data, mask=mask)
    init = LabelVolume(np.where(mask, rng.integers(1, 4, size=dims), BG).astype(np.uint8))
    cfg = small_config(tmp_path / "out", pad_slices=1)
    report = run_pipeline(cfg, vol=vol, init_labels=init)
    empty = [i for i, row in enumerate(report.subdomains)
             if not mask[box_slices(row["padded_bounds"])].any()]
    assert empty
    for i in empty:
        row = report.subdomains[i]
        assert row["mssim_initial"] is None and row["mssim_kfda"] is None
        assert report.diagnostics[i]["steps"] == {}
        labels, diag = kfda.classify_subdomain(vol, row["padded_bounds"], init.labels,
                                               cfg, seed=0)
        assert labels.shape == tuple(hi - lo + 1 for lo, hi in row["padded_bounds"])
        assert np.all(labels == BG) and diag["steps"] == {}


@pytest.mark.parametrize("dims", [(2, 20, 20), (20, 2, 20), (1, 20, 20)])
def test_in_plane_thin_volume_passes_labels_through(tmp_path, dims):
    # under 3 voxels on axis 0 or 1 no leaf's box holds an MSSIM window: each
    # step is skipped with its reason and the initial labels come through,
    # and the report validates with null MSSIM columns and window size
    vol, truth = generate_phantom(PhantomSpec(dims=dims, noise_sigma=0.05,
                                              bias_amplitude=0.1, pv_blur=1.0,
                                              geometry="blocks"))
    init = kmeans_init(vol, seed=0)
    out = tmp_path / "out"
    report = run_pipeline(PipelineConfig(out_dir=str(out)), vol=vol, init_labels=init,
                          ground_truth=truth)
    jsonschema.validate(json.loads((out / "report.json").read_text()), REPORT_SCHEMA)
    for row, diag in zip(report.subdomains, report.diagnostics):
        assert not window_fits(vol.mask[box_slices(row["padded_bounds"])].shape)
        assert row["mssim_initial"] is None and row["mssim_kfda"] is None
        assert row["ssim_window"] is None
        assert diag["steps"] == {key: {"skipped": "box thinner in plane than the MSSIM window"}
                                 for key in ("csf_vs_gwm", "gm_vs_wm")}
    assert np.array_equal(load_labels(out / "labels.u8raw").labels, init.labels)


def test_sweep_entries_record_each_solve(small_run):
    cfg, *_ = small_run
    diags = json.loads((Path(cfg.out_dir) / "subdomains.json").read_text())
    steps = [step for diag in diags for step in diag["steps"].values() if "sweep" in step]
    assert steps
    for step in steps:
        # the factor spans the cross kernel to its tolerance, or all l samples
        l = min(step["n_voxels"], cfg.l_max)
        assert 1 <= step["rank"] <= l
        assert 0.0 <= step["range_error"] <= kfda.RANGE_TOL or step["rank"] == l
        assert step["sweep"][0]["lambda"] == 0.0
        assert step["sweep"][0]["gamma_ratio"] == pytest.approx(1.0, abs=1e-12)
        for entry in step["sweep"]:
            assert entry["residual"] >= 0.0 and np.isfinite(entry["residual"])
            assert entry["gamma_ratio"] <= 1.0 + 1e-9
            assert "iterations" not in entry and "capped" not in entry
            assert sorted(entry["categories"]) == sorted(kfda.CATEGORIES)
            assert sum(entry["categories"].values()) == step["n_voxels"]


def test_labels_mask_consistency(small_run):
    cfg, vol, *_ , report = small_run
    assert check_mask_consistency(report.labels, vol.mask)


def test_mssim_columns_recomputable(small_run):
    # audit: the report's MSSIM columns must be reproducible from the saved
    # labels plus the reference volume (window size recorded per row)
    from kfdaseg.ssim import fit_window

    cfg, vol, truth, init, report = small_run
    vol = normalize_intensities(vol)     # the pipeline classifies the normalized volume
    saved = load_labels(Path(cfg.out_dir) / "labels.u8raw")
    for row in report.subdomains:
        bounds = row["padded_bounds"]
        box = box_slices(bounds)
        mask_box = vol.mask[box]
        if not mask_box.any() or row["mssim_kfda"] is None:
            continue
        assert fit_window(mask_box.shape[:2])[0] == row["ssim_window"]
        ref_box = vol.data[box][..., 0].astype(np.float64)
        image = classified_mean_image(saved.labels[box], ref_box, mask_box)
        value = mssim(image, reference_windows(ref_box, mask_box))
        assert value == pytest.approx(row["mssim_kfda"], abs=1e-9)


def test_mssim_table_shape(small_run):
    cfg, *_ , report = small_run
    lines = (Path(cfg.out_dir) / "mssim_table.csv").read_text().strip().splitlines()
    assert lines[0] == "domain,initial,kfda"
    assert lines[-1].startswith("means,")
    assert len(lines) == len(report.subdomains) + 2


def test_csv_cells_are_numbers(small_run):
    # a partitioned run: every non-empty cell but the means label parses as
    # a plain decimal number
    cfg, *_ = small_run
    for name in ("curves.csv", "mssim_table.csv"):
        rows = list(csv.reader((Path(cfg.out_dir) / name).open()))
        assert len(rows) > 2, name
        for row in rows[1:]:
            for cell in row:
                if cell and cell != "means":
                    float(cell)


def test_pipeline_improves_corrupted_init(small_run):
    cfg, vol, truth, init, report = small_run
    before = dice_scores(init, truth, vol.mask)
    after = report.dice
    mean_before = np.mean([v for v in before.values() if v is not None])
    mean_after = np.mean([v for v in after.values() if v is not None])
    assert mean_after >= mean_before


def test_zero_noise_perfect_init_is_fixed_point(tmp_path):
    spec = PhantomSpec(dims=(24, 24, 24), noise_sigma=0.0, bias_amplitude=0.0,
                       pv_blur=0.0, seed=22)
    vol, truth = generate_phantom(spec)
    # every overlap width the config accepts: 2, 4 and 6 slices
    for pad in (2, 1, 3):
        cfg = small_config(tmp_path / f"perfect{pad}", pad_slices=pad)
        report = run_pipeline(cfg, vol=vol, init_labels=truth, ground_truth=truth)
        assert len(report.subdomains) > 1
        assert all(v == pytest.approx(1.0) for v in report.dice.values()), pad


def test_determinism_byte_identical(tmp_path):
    spec = PhantomSpec(dims=(24, 24, 24), noise_sigma=0.04, bias_amplitude=0.05,
                       pv_blur=0.8, seed=23)
    vol, truth = generate_phantom(spec)
    init = kmeans_init(vol, seed=1)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_pipeline(small_config(out_a, seed=9), vol=vol, init_labels=init)
    run_pipeline(small_config(out_b, seed=9), vol=vol, init_labels=init)
    for name in ("labels.u8raw", "mssim_table.csv", "curves.csv",
                 "subdomains.json", "partition.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    # report.json embeds the config, whose out_dir legitimately differs here
    doc_a = json.loads((out_a / "report.json").read_text())
    doc_b = json.loads((out_b / "report.json").read_text())
    doc_a["config"].pop("out_dir")
    doc_b["config"].pop("out_dir")
    assert doc_a == doc_b


def _step_decisions(out: Path) -> list[dict]:
    """Each leaf's per-step decision in out's subdomains.json: the chosen
    lambda with that solve's best k and route, or the skip reason."""
    decisions = []
    for leaf in json.loads((out / "subdomains.json").read_text()):
        steps = {}
        for key, step in leaf["steps"].items():
            if step.get("chosen_lambda") is None:
                steps[key] = step.get("skipped")
                continue
            entry = next(e for e in step["sweep"] if e["lambda"] == step["chosen_lambda"])
            steps[key] = (step["chosen_lambda"], entry.get("best_k"),
                          entry.get("route", entry.get("fallback")))
        decisions.append(steps)
    return decisions


def test_outputs_independent_of_blas_threads(tmp_path):
    # a multi-leaf run (26^3 phantom seed 11, corrupted k-means init,
    # pipeline seed 5) in one process at one OpenBLAS thread and in another
    # at two: the labels and every step's decision must be the same
    import kfdaseg

    vol, truth = generate_phantom(PhantomSpec(dims=(26, 26, 26), noise_sigma=0.05,
                                              bias_amplitude=0.10, pv_blur=1.0, seed=11))
    init = corrupt_boundary_labels(kmeans_init(vol, seed=0), vol.mask, fraction=0.20, seed=1)
    save_volume(vol, tmp_path / "phantom.f32raw")
    save_labels(init, tmp_path / "init.u8raw")
    cfg = PipelineConfig(volume=str(tmp_path / "phantom.f32raw"),
                         init_labels=str(tmp_path / "init.u8raw"), seed=5, l_max=400,
                         lambda_grid=(0.0, 5e-5), k_grid=(1, 3, 5), sa_sweeps=5)
    (tmp_path / "config.json").write_text(cfg.to_json())
    src = str(Path(kfdaseg.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "kfdaseg", "run", "--config",
                        str(tmp_path / "config.json"), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=600)
        outs.append(out)
    assert len(_step_decisions(outs[0])) > 1
    assert (outs[0] / "labels.u8raw").read_bytes() == (outs[1] / "labels.u8raw").read_bytes()
    assert _step_decisions(outs[0]) == _step_decisions(outs[1])


def test_config_json_round_trip(tmp_path):
    cfg = small_config(tmp_path, volume="vol.f32raw")
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    loaded = PipelineConfig.from_json(path)
    assert loaded == cfg
    # leaves always run one after another: a config naming the retired
    # pool size loads when that size is 1, as perfbench's configs do
    doc = json.loads(cfg.to_json())
    doc["workers"] = 1
    path.write_text(json.dumps(doc))
    assert PipelineConfig.from_json(path) == cfg
    # volumes are always normalized: the SSIM constants assume [0, 1]; the
    # kernels, band, ridge scale, reference channel and cooling schedule are
    # fixed constants; true and 1.0 equal 1 in Python but are no pool size
    for knob, value in (("no_such_knob", 1), ("normalize", False), ("workers", 2),
                        ("workers", True), ("workers", 1.0),
                        ("reference_channel", 0), ("sigmoid_a", 8.0),
                        ("sigmoid_b", -0.0005), ("rbf_sigma", 0.5), ("tau_band", 1.0),
                        ("tau_outlier", 2.5), ("beta_scale", 1e-3), ("sa_t0", 1.0),
                        ("sa_rho", 0.95), ("sa_t_min", 0.01)):
        bad = json.loads(cfg.to_json())
        bad[knob] = value
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="unknown config fields"):
            PipelineConfig.from_json(path)


def test_background_inside_mask_rejected(tmp_path):
    # background inside the mask would pass classification unlabeled and
    # leave labels that fail the mask consistency check
    spec = PhantomSpec(dims=(20, 20, 20), noise_sigma=0.03, pv_blur=0.5, seed=5)
    vol, _ = generate_phantom(spec)
    init = kmeans_init(vol, seed=0)
    holes = np.argwhere(vol.mask)[::25][:40]
    init.labels[tuple(holes.T)] = BG
    first = tuple(int(v) for v in holes[0])
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(small_config(tmp_path / "out"), vol=vol, init_labels=init)
    assert err.value.stage == "init"
    assert isinstance(err.value.__cause__, ValueError)
    assert f"first at voxel {first}" in str(err.value)

    save_volume(vol, tmp_path / "vol.f32raw")
    save_labels(init, tmp_path / "init.u8raw")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(small_config(tmp_path / "cli", volume=str(tmp_path / "vol.f32raw"),
                                     init_labels=str(tmp_path / "init.u8raw")).to_json())
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION


def test_config_validation():
    with pytest.raises(ValueError, match="lambda"):
        PipelineConfig(lambda_grid=()).validate(check_paths=False)
    with pytest.raises(ValueError, match="l_max"):
        PipelineConfig(l_max=2).validate(check_paths=False)
    with pytest.raises(ValueError, match="l_max"):
        PipelineConfig(l_max=3).validate(check_paths=False)
    with pytest.raises(ValueError, match="lambda"):
        PipelineConfig(lambda_grid=(0.0, -1e-3)).validate(check_paths=False)
    for k_grid in ((), (-1,), (2, 4), (1, 1.5), (0,), (True,)):
        with pytest.raises(ValueError, match="k grid"):
            PipelineConfig(k_grid=k_grid).validate(check_paths=False)
    # values a JSON config can carry that no stage can run with
    for knob, value, match in (
            ("seed", -1, "seed"), ("seed", 1.5, "seed"), ("seed", "3", "seed"),
            ("seed", True, "seed"), ("max_depth", -1, "max_depth"),
            ("max_depth", 1.5, "max_depth"), ("pad_slices", 1.5, "pad_slices"),
            ("pad_slices", False, "pad_slices"), ("l_max", 300.5, "l_max"),
            ("sa_sweeps", 2.0, "sa_sweeps"), ("sa_sweeps", 0, "sa_sweeps"),
            ("lambda_grid", ("a",), "lambda"),
            ("lambda_grid", (True,), "lambda"), ("lambda_grid", 0.0, "lambda_grid"),
            ("lambda_grid", (0.0, math.inf), "lambda"), ("lambda_grid", (math.nan,), "lambda"),
            ("out_dir", 5, "out_dir")):
        with pytest.raises(ValueError, match=match):
            PipelineConfig(**{knob: value}).validate(check_paths=False)
    with pytest.raises(FileNotFoundError):
        PipelineConfig(volume="/nonexistent/v.f32raw").validate()


# ---------------------------------------------------------------------------
# Geometry: partition -> pad -> stitch
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(dims=st.tuples(*[st.integers(6, 16)] * 3), pad=st.sampled_from([1, 2, 3]),
       max_depth=st.integers(1, 4), density=st.floats(0.3, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
# 3-slice leaves, thinner than the 4-slice overlap: narrower edge strips
@example(dims=(6, 9, 9), pad=2, max_depth=3, density=0.5, seed=2)
def test_partition_pad_stitch_round_trip(dims, pad, max_depth, density, seed):
    # random intensities put the MI cuts anywhere; fragments cut from one
    # label volume agree on every overlap, so stitching must give it back
    rng = np.random.default_rng(seed)
    mask = rng.random(dims) < density
    mask.flat[rng.integers(mask.size)] = True
    data = (rng.random(dims + (1,)) * mask[..., None]).astype(np.float32)
    vol = MultiChannelVolume(data=data, mask=mask)
    cfg = PipelineConfig(max_depth=max_depth, pad_slices=pad)
    truth = np.where(mask, rng.integers(1, 4, size=dims), BG).astype(np.uint8)
    coverage = np.zeros(dims, dtype=np.int32)
    fragments = []
    tree = partition_stage(cfg, vol)
    for leaf in tree.leaf_nodes():
        core, padded = (box_slices(b) for b in (leaf.bounds, leaf.padded_bounds))
        coverage[core] += 1
        assert all(p.start <= c.start and c.stop <= p.stop for c, p in zip(core, padded))
        fragments.append(ClassifiedFragment(leaf.bounds, leaf.padded_bounds, truth[padded]))
    assert np.all(coverage == 1), "leaf cores must tile the volume"
    assert np.array_equal(stitch_stage(cfg, vol, tree, fragments).labels, truth)


def test_wide_overlap_runs_with_default_config(monkeypatch):
    # pad_slices=8 gives 16-wide overlaps, wider than EXACT_MAX_WIDTH: the
    # default config anneals those strips, deterministically
    from kfdaseg import stitch

    annealed = []
    anneal = stitch.simulated_anneal

    def spy(problem, sched=None):
        annealed.append(problem.shape)
        return anneal(problem, sched)

    monkeypatch.setattr(stitch, "simulated_anneal", spy)
    rng = np.random.default_rng(7)
    dims = (32, 20, 2)
    # two intensity halves: the one MI cut falls between rows 15 and 16
    data = np.where(np.arange(32)[:, None, None] < 16, 0.2, 0.8) + 0.05 * rng.random(dims)
    vol = MultiChannelVolume(data=data[..., None].astype(np.float32),
                             mask=np.ones(dims, dtype=bool))
    cfg = PipelineConfig(max_depth=1, pad_slices=8)
    cfg.validate(check_paths=False)
    truth = rng.integers(1, 4, size=dims).astype(np.uint8)
    fragments = []
    tree = partition_stage(cfg, vol)
    for leaf in tree.leaf_nodes():
        labels = truth[box_slices(leaf.padded_bounds)].copy()
        flip = rng.random(labels.shape) < 0.2
        labels[flip] = rng.integers(1, 4, size=int(flip.sum()))
        fragments.append(ClassifiedFragment(leaf.bounds, leaf.padded_bounds, labels))
    assert [f.core_bounds[0] for f in fragments] == [(0, 15), (16, 31)]
    first = stitch_stage(cfg, vol, tree, fragments).labels
    assert annealed and all(min(shape) > stitch.EXACT_MAX_WIDTH for shape in annealed)
    assert np.array_equal(stitch_stage(cfg, vol, tree, fragments).labels, first)
    assert np.all(first != BG)
    # each voxel carries a label that a fragment covering it gave it
    given = np.zeros(dims, dtype=bool)
    for frag in fragments:
        box = box_slices(frag.padded_bounds)
        given[box] |= frag.labels == first[box]
    assert given.all()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_phantom_init_run_report(tmp_path):
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "out"
    rc = cli.main(["phantom", "--out", str(data_dir), "--dims", "24", "24", "24",
                   "--noise", "0.03", "--bias", "0.05", "--blur", "0.8",
                   "--seed", "2"])
    assert rc == 0
    assert (data_dir / "phantom.f32raw").exists()

    rc = cli.main(["init", "--volume", str(data_dir / "phantom.f32raw"),
                   "--out", str(data_dir / "init.u8raw"), "--seed", "0",
                   "--corrupt-boundary", "0.1"])
    assert rc == 0

    cfg = PipelineConfig(volume=str(data_dir / "phantom.f32raw"),
                         init_labels=str(data_dir / "init.u8raw"),
                         ground_truth=str(data_dir / "truth.u8raw"),
                         out_dir=str(out_dir), seed=1, l_max=600, max_depth=2,
                         sa_sweeps=5,
                         lambda_grid=(0.0,), k_grid=(1, 3))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())

    rc = cli.main(["run", "--config", str(cfg_path)])
    assert rc == 0
    assert (out_dir / "report.json").exists()
    assert (out_dir / "labels.u8raw").exists()

    # report rewrites the files of the run output without changing them
    written = {name: (out_dir / name).read_bytes()
               for name in ("subdomains.json", "report.json", "mssim_table.csv")}
    rc = cli.main(["report", "--config", str(cfg_path)])
    assert rc == 0
    for name, data in written.items():
        assert (out_dir / name).read_bytes() == data, name


def test_cli_stage_flag_equivalent(tmp_path):
    data_dir = tmp_path / "data"
    cli.main(["phantom", "--out", str(data_dir), "--dims", "20", "20", "20",
              "--noise", "0.02", "--bias", "0.0", "--blur", "0.5", "--seed", "3"])
    cfg = PipelineConfig(volume=str(data_dir / "phantom.f32raw"),
                         out_dir=str(tmp_path / "out"), seed=0, max_depth=2)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    rc = cli.main(["--stage", "partition", "--config", str(cfg_path)])
    assert rc == 0
    assert (tmp_path / "out" / "partition.json").exists()


def test_cli_stage_flag_rejects_phantom_and_init(tmp_path, capsys):
    # phantom and init take options that only their own subparsers define
    for verb in ("phantom", "init"):
        with pytest.raises(SystemExit) as err:
            cli.main(["--stage", verb, "--out", str(tmp_path / verb)])
        assert err.value.code == cli.EXIT_VALIDATION, verb
        assert f"invalid choice: '{verb}'" in capsys.readouterr().err
        assert not (tmp_path / verb).exists()


def test_cli_exits_3_only_for_an_arithmetic_error(tmp_path, monkeypatch):
    # a stage error caused by an ArithmeticError exits 3; one with any other
    # cause outside the validation errors is a fault and keeps its traceback
    import kfdaseg.pipeline

    cli.main(["phantom", "--out", str(tmp_path / "data"), "--dims", "8", "8", "8"])
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(PipelineConfig(volume=str(tmp_path / "data" / "phantom.f32raw"),
                                       out_dir=str(tmp_path / "out")).to_json())
    def raising(exc):
        def failing(*args, **kwargs):
            raise exc("partition fails")
        return failing

    monkeypatch.setattr(kfdaseg.pipeline, "build_partition", raising(ZeroDivisionError))
    assert cli.main(["partition", "--config", str(cfg_path)]) == cli.EXIT_NUMERICAL
    monkeypatch.setattr(kfdaseg.pipeline, "build_partition", raising(RuntimeError))
    with pytest.raises(PipelineStageError, match="partition fails"):
        cli.main(["partition", "--config", str(cfg_path)])


def test_cli_validation_exit_code(tmp_path):
    rc = cli.main(["run", "--config", str(tmp_path / "missing.json")])
    assert rc == cli.EXIT_VALIDATION
    # a config no stage can run with is rejected before anything is written
    cli.main(["phantom", "--out", str(tmp_path / "data"), "--dims", "16", "16", "16"])
    out_dir = tmp_path / "out"
    for knob, value in (("seed", -1), ("seed", 1.5), ("seed", "3"), ("pad_slices", 1.5),
                        ("l_max", 300.5), ("max_depth", 1.5), ("lambda_grid", ["a"]),
                        ("sa_rho", "0.9"), ("reference_channel", 5), ("sigmoid_a", 8.0)):
        doc = {"volume": str(tmp_path / "data" / "phantom.f32raw"),
               "out_dir": str(out_dir), knob: value}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION, knob
        assert not out_dir.exists(), knob
    # a config file must hold a JSON object
    for text in ("[1, 2]", "null", "[]"):
        cfg_path.write_text(text)
        assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION, text


def test_ground_truth_dims_checked_before_partition(tmp_path):
    # a ground truth of another size is rejected before the partition runs,
    # not in the report stage after every leaf is classified
    spec = PhantomSpec(dims=(16, 16, 16), noise_sigma=0.03, pv_blur=0.5, seed=5)
    vol, truth = generate_phantom(spec)
    wrong = LabelVolume(labels=np.pad(truth.labels, ((0, 2), (0, 0), (0, 0)),
                                      constant_values=BG))
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(small_config(tmp_path / "mem"), vol=vol, ground_truth=wrong)
    assert err.value.stage == "load"
    assert isinstance(err.value.__cause__, ValueError)
    assert "ground truth dims (18, 16, 16)" in str(err.value)
    assert not (tmp_path / "mem" / "partition.json").exists()

    save_volume(vol, tmp_path / "vol.f32raw")
    save_labels(wrong, tmp_path / "truth.u8raw")
    out_dir = tmp_path / "cli"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(small_config(out_dir, volume=str(tmp_path / "vol.f32raw"),
                                     ground_truth=str(tmp_path / "truth.u8raw")).to_json())
    assert cli.main(["run", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION
    assert not (out_dir / "partition.json").exists()
    assert list(out_dir.iterdir()) == []


def test_cli_stagewise_classify_stitch(tmp_path):
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "out"
    cli.main(["phantom", "--out", str(data_dir), "--dims", "24", "24", "24",
              "--noise", "0.03", "--bias", "0.0", "--blur", "0.5", "--seed", "4"])
    cfg = PipelineConfig(volume=str(data_dir / "phantom.f32raw"),
                         init_labels=str(data_dir / "truth.u8raw"),
                         out_dir=str(out_dir), seed=0, l_max=500, max_depth=2,
                         sa_sweeps=5, lambda_grid=(0.0,),
                         k_grid=(1,))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    assert cli.main(["classify", "--config", str(cfg_path)]) == 0
    assert (out_dir / "fragments" / "fragments.json").exists()
    assert cli.main(["stitch", "--config", str(cfg_path)]) == 0
    assert cli.main(["report", "--config", str(cfg_path)]) == 0
    labels = load_labels(out_dir / "labels.u8raw")
    truth = load_labels(data_dir / "truth.u8raw")
    vol = load_volume(data_dir / "phantom.f32raw")
    scores = dice_scores(labels, truth, vol.mask)
    assert all(v is None or v > 0.9 for v in scores.values())

    # the stage verbs write what `run` writes for the same config
    run_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    for name in ("labels.u8raw", "partition.json", "subdomains.json",
                 "mssim_table.csv", "curves.csv"):
        assert (out_dir / name).read_bytes() == (run_dir / name).read_bytes(), name
    # report.json embeds the config, whose out_dir differs here
    docs = [json.loads((d / "report.json").read_text()) for d in (out_dir, run_dir)]
    for doc in docs:
        doc["config"].pop("out_dir")
    assert docs[0] == docs[1]


def _files(root):
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def _rejects_another_partition(tmp_path, first, verb):
    """Fill a directory with `first` on a several-leaf config, then run `verb`
    on it with the configs of other partitions: each exits 2 and leaves every
    file unchanged. Returns the config path, holding the original config."""
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "out"
    cli.main(["phantom", "--out", str(data_dir), "--dims", "24", "24", "24",
              "--noise", "0.03", "--bias", "0.0", "--blur", "0.5", "--seed", "4"])
    cfg = PipelineConfig(volume=str(data_dir / "phantom.f32raw"),
                         init_labels=str(data_dir / "truth.u8raw"),
                         out_dir=str(out_dir), seed=0, l_max=300, max_depth=2,
                         lambda_grid=(0.0,), k_grid=(1,))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    assert cli.main([first, "--config", str(cfg_path)]) == 0
    leaves = len(json.loads((out_dir / "subdomains.json").read_text()))
    assert leaves > 1
    written = _files(out_dir)
    # one leaf against several, then as many leaves with wider padding
    for knob, value in (("max_depth", 0), ("pad_slices", 3)):
        doc = json.loads(cfg.to_json())
        doc[knob] = value
        cfg_path.write_text(json.dumps(doc))
        assert cli.main([verb, "--config", str(cfg_path)]) == cli.EXIT_VALIDATION, knob
        assert _files(out_dir) == written, knob
    cfg_path.write_text(cfg.to_json())
    return cfg_path


def test_cli_report_rejects_another_partition(tmp_path):
    cfg_path = _rejects_another_partition(tmp_path, "run", "report")
    # so are diagnostics that are not one object per leaf, and a leaf whose
    # steps are not an object of step objects
    out_dir = tmp_path / "out"
    diags = json.loads((out_dir / "subdomains.json").read_text())
    bad_steps = [[dict(diags[0], steps=steps)] + diags[1:]
                 for steps in (1, {"csf_vs_gwm": 1})]
    for doc in [[1, 2, 3, 4], {"a": 1}] + bad_steps:
        (out_dir / "subdomains.json").write_text(json.dumps(doc))
        written = _files(out_dir)
        assert cli.main(["report", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION, doc
        assert _files(out_dir) == written, doc


def test_cli_stitch_rejects_out_of_range_fragment_labels(tmp_path, caplog):
    # fragment files are label volumes: a byte outside the state space is
    # rejected when it is read, naming its voxel, before any strip is solved
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "out"
    cli.main(["phantom", "--out", str(data_dir), "--dims", "20", "20", "20",
              "--noise", "0.03", "--bias", "0.0", "--blur", "0.5", "--seed", "4"])
    cfg = PipelineConfig(volume=str(data_dir / "phantom.f32raw"),
                         init_labels=str(data_dir / "truth.u8raw"),
                         out_dir=str(out_dir), seed=0, l_max=300, max_depth=2,
                         lambda_grid=(0.0,), k_grid=(1,))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(cfg.to_json())
    assert cli.main(["classify", "--config", str(cfg_path)]) == 0
    fragments = out_dir / "fragments"
    index = (fragments / "fragments.json").read_text()
    padded = json.loads(index)[0]["padded_bounds"]
    payload = fragments / "fragment_000.u8raw"
    assert load_labels(payload).dims == tuple(hi - lo + 1 for lo, hi in padded)
    # so are an index entry that is not an object and a sidecar of two dims
    sidecar = fragments / "fragment_000.json"
    for path, text in ((fragments / "fragments.json", json.dumps([1] + json.loads(index)[1:])),
                       (sidecar, json.dumps({"dims": padded[:2]}))):
        kept = path.read_text()
        path.write_text(text)
        assert cli.main(["stitch", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION, text
        assert not (out_dir / "labels.u8raw").exists()
        path.write_text(kept)
    # so is background inside the mask, which the strip solvers would carry
    # into the stitched labels
    kept = payload.read_bytes()
    holes = load_labels(payload).labels
    holes[load_volume(data_dir / "phantom.f32raw").mask[box_slices(padded)]] = BG
    save_labels(LabelVolume(holes), payload)
    assert cli.main(["stitch", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION
    assert "fragment 0 labels" in caplog.text
    assert not (out_dir / "labels.u8raw").exists()
    payload.write_bytes(kept)
    payload.write_bytes(b"\x09" * len(payload.read_bytes()))
    assert cli.main(["stitch", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION
    assert "label byte 9 at voxel (0, 0, 0)" in caplog.text
    assert not (out_dir / "labels.u8raw").exists()


def test_failed_leaf_leaves_partial_diagnostics(tmp_path, monkeypatch):
    # the second leaf fails: the run raises a classify error, and
    # subdomains_partial.json holds the diagnostics of the first leaf alone
    from kfdaseg import kfda
    classify, calls = kfda.classify_subdomain, []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ArithmeticError("second leaf fails")
        return classify(*args, **kwargs)

    monkeypatch.setattr(kfda, "classify_subdomain", failing)
    vol, truth = generate_phantom(PhantomSpec(dims=(20, 20, 20), noise_sigma=0.03,
                                              pv_blur=0.5, seed=4))
    cfg = small_config(tmp_path / "out", max_depth=2, l_max=300, lambda_grid=(0.0,),
                       k_grid=(1,))
    with pytest.raises(PipelineStageError) as err:
        run_pipeline(cfg, vol=vol, init_labels=truth)
    assert err.value.stage == "classify"
    assert len(calls) == 2
    partial = json.loads((tmp_path / "out" / "subdomains_partial.json").read_text())
    assert [diag["domain"] for diag in partial] == [1]


def test_cli_stitch_rejects_another_partition(tmp_path):
    cfg_path = _rejects_another_partition(tmp_path, "classify", "stitch")
    assert not (tmp_path / "out" / "labels.u8raw").exists()
    # the config's own partition stitches
    assert cli.main(["stitch", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "labels.u8raw").exists()
