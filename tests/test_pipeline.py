"""End-to-end pipeline behavior: outputs, determinism, self-consistency, CLI."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kfdaseg import cli
from kfdaseg.phantom import PhantomSpec, corrupt_boundary_labels, generate_phantom, kmeans_init
from kfdaseg.pipeline import (PipelineConfig, PipelineStageError, REPORT_SCHEMA,
                              dice_scores, partition_stage, run_pipeline, stitch_stage)
from kfdaseg.ssim import SsimConstants, classified_mean_image, mssim
from kfdaseg.stitch import ClassifiedFragment
from kfdaseg.volume import (BG, MultiChannelVolume, box_slices, check_mask_consistency,
                            load_labels, load_volume, normalize_intensities, save_labels,
                            save_volume)


def small_config(out_dir, **overrides):
    base = dict(out_dir=str(out_dir), seed=3, l_max=800, max_depth=3,
                sa_sweeps=8, sa_t_min=0.05,
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
    import jsonschema

    cfg, *_ = small_run
    doc = json.loads((Path(cfg.out_dir) / "report.json").read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert len(doc["subdomains"]) >= 1
    assert doc["class_counts"]["final"].keys() == {"csf", "gm", "wm"}


def test_labels_mask_consistency(small_run):
    cfg, vol, *_ , report = small_run
    assert check_mask_consistency(report.labels, vol.mask)


def test_mssim_columns_recomputable(small_run):
    # audit: the report's MSSIM columns must be reproducible from the saved
    # labels plus the reference volume (window size recorded per row)
    from kfdaseg.ssim import fit_constants

    cfg, vol, truth, init, report = small_run
    vol = normalize_intensities(vol)     # the pipeline classifies the normalized volume
    saved = load_labels(Path(cfg.out_dir) / "labels.u8raw")
    for row in report.subdomains:
        bounds = row["padded_bounds"]
        box = box_slices(bounds)
        mask_box = vol.mask[box]
        if not mask_box.any() or row["mssim_kfda"] is None:
            continue
        constants = fit_constants(SsimConstants(), mask_box.shape[:2])
        assert constants.window_size == row["ssim_window"]
        ref_box = vol.data[box][..., 0].astype(np.float64)
        image = classified_mean_image(saved.labels[box], ref_box, mask_box)
        value = mssim(image, ref_box, mask_box, constants)
        assert value == pytest.approx(row["mssim_kfda"], abs=1e-9)


def test_mssim_table_shape(small_run):
    cfg, *_ , report = small_run
    lines = (Path(cfg.out_dir) / "mssim_table.csv").read_text().strip().splitlines()
    assert lines[0] == "domain,initial,kfda"
    assert lines[-1].startswith("means,")
    assert len(lines) == len(report.subdomains) + 2


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
    # volumes are always normalized: the SSIM constants assume [0, 1]
    for knob, value in (("no_such_knob", 1), ("normalize", False), ("workers", 2)):
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
    with pytest.raises(ValueError, match="cooling"):
        PipelineConfig(sa_rho=1.5).validate(check_paths=False)
    with pytest.raises(ValueError, match="bandwidth"):
        PipelineConfig(rbf_sigma=0).validate(check_paths=False)
    with pytest.raises(ValueError, match="l_max"):
        PipelineConfig(l_max=2).validate(check_paths=False)
    with pytest.raises(ValueError, match="l_max"):
        PipelineConfig(l_max=3).validate(check_paths=False)
    with pytest.raises(ValueError, match="lambda"):
        PipelineConfig(lambda_grid=(0.0, -1e-3)).validate(check_paths=False)
    for k_grid in ((), (-1,), (2, 4), (1, 1.5), (0,)):
        with pytest.raises(ValueError, match="k grid"):
            PipelineConfig(k_grid=k_grid).validate(check_paths=False)
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
    for leaf in partition_stage(cfg, vol).leaf_nodes():
        core, padded = (box_slices(b) for b in (leaf.bounds, leaf.padded_bounds))
        coverage[core] += 1
        assert all(p.start <= c.start and c.stop <= p.stop for c, p in zip(core, padded))
        fragments.append(ClassifiedFragment(leaf.bounds, leaf.padded_bounds, truth[padded]))
    assert np.all(coverage == 1), "leaf cores must tile the volume"
    assert np.array_equal(stitch_stage(cfg, vol, fragments).labels, truth)


def test_wide_overlap_runs_with_default_config(monkeypatch):
    # pad_slices=8 gives 16-wide overlaps, wider than EXACT_MAX_WIDTH: the
    # default config anneals those strips, deterministically
    from kfdaseg import stitch

    annealed = []
    anneal = stitch.simulated_anneal

    def spy(problem, sched=None, tables=None):
        annealed.append(problem.shape)
        return anneal(problem, sched, tables)

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
    for leaf in partition_stage(cfg, vol).leaf_nodes():
        labels = truth[box_slices(leaf.padded_bounds)].copy()
        flip = rng.random(labels.shape) < 0.2
        labels[flip] = rng.integers(1, 4, size=int(flip.sum()))
        fragments.append(ClassifiedFragment(leaf.bounds, leaf.padded_bounds, labels))
    assert [f.core_bounds[0] for f in fragments] == [(0, 15), (16, 31)]
    first = stitch_stage(cfg, vol, fragments).labels
    assert annealed and all(min(shape) > stitch.EXACT_MAX_WIDTH for shape in annealed)
    assert np.array_equal(stitch_stage(cfg, vol, fragments).labels, first)
    assert np.all(first != BG)


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
                         sa_sweeps=5, sa_t_min=0.1,
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


def test_cli_validation_exit_code(tmp_path):
    rc = cli.main(["run", "--config", str(tmp_path / "missing.json")])
    assert rc == cli.EXIT_VALIDATION


def test_cli_stagewise_classify_stitch(tmp_path):
    data_dir = tmp_path / "data"
    out_dir = tmp_path / "out"
    cli.main(["phantom", "--out", str(data_dir), "--dims", "24", "24", "24",
              "--noise", "0.03", "--bias", "0.0", "--blur", "0.5", "--seed", "4"])
    cfg = PipelineConfig(volume=str(data_dir / "phantom.f32raw"),
                         init_labels=str(data_dir / "truth.u8raw"),
                         out_dir=str(out_dir), seed=0, l_max=500, max_depth=2,
                         sa_sweeps=5, sa_t_min=0.1, lambda_grid=(0.0,),
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


def test_cli_report_rejects_another_partition(tmp_path):
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
    assert cli.main(["run", "--config", str(cfg_path)]) == 0
    leaves = len(json.loads((out_dir / "subdomains.json").read_text()))
    assert leaves > 1
    written = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    # one leaf against several, then as many leaves with wider padding
    for knob, value in (("max_depth", 0), ("pad_slices", 3)):
        doc = json.loads(cfg.to_json())
        doc[knob] = value
        cfg_path.write_text(json.dumps(doc))
        assert cli.main(["report", "--config", str(cfg_path)]) == cli.EXIT_VALIDATION, knob
        assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == written, knob
