"""Overlap potentials, exact and annealed MAP strips, slice/volume assembly."""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from kfdaseg.stitch import (EXACT_MAX_WIDTH, AnnealSchedule, ClassifiedFragment,
                            SliceSubimage, StitchProblem, composite_init, exact_map,
                            simulated_anneal, spawn_seed, stitch_slice, stitch_volume)
from kfdaseg.volume import BG, CSF, GM, WM, box_slices
from oracles import (build_potentials, enumerate_map_vectorized, log_posterior,
                     row_transfer_map)

FAST = AnnealSchedule(sweeps=5, seed=7)


def hproblem(a, b):
    return StitchProblem("horizontal", np.asarray(a, dtype=np.uint8),
                         np.asarray(b, dtype=np.uint8))


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------

def test_agreement_gives_maximal_potentials():
    obs = np.array([[CSF, GM, GM, WM], [GM, GM, WM, WM]], dtype=np.uint8)
    pt = build_potentials(hproblem(obs, obs))
    h, w = obs.shape
    for r in range(h):
        for c in range(w):
            expected_w = 0.75 if c in (0, w - 1) else 0.25
            assert pt.phi[r, c, obs[r, c] - 1] == pytest.approx(expected_w)
    for r in range(h):
        for c in range(w - 1):
            assert pt.psi_h[r, c, obs[r, c] - 1, obs[r, c + 1] - 1] == 1.0
    for r in range(h - 1):
        for c in range(w):
            assert pt.psi_v[r, c, obs[r, c] - 1, obs[r + 1, c] - 1] == 1.0


def test_disagreeing_node_splits_weight():
    obs_a = np.array([[GM, GM, GM, GM]], dtype=np.uint8)
    obs_b = np.array([[CSF, GM, GM, GM]], dtype=np.uint8)
    pt = build_potentials(hproblem(obs_a, obs_b))
    # node (0,0): GM from one observation, CSF from the other
    w = 0.75          # leftmost column
    assert pt.phi[0, 0, GM - 1] == pytest.approx(w * 0.5)
    assert pt.phi[0, 0, CSF - 1] == pytest.approx(w * 0.5)
    assert pt.phi[0, 0, WM - 1] == pytest.approx(w * 0.01)
    assert pt.phi[0, 0, BG - 1] == pytest.approx(w * 0.01)


def test_boundary_and_interior_weights():
    obs = np.full((3, 4), GM, dtype=np.uint8)
    pt = build_potentials(hproblem(obs, obs))
    assert pt.phi[1, 0, GM - 1] == pytest.approx(0.75)
    assert pt.phi[1, 3, GM - 1] == pytest.approx(0.75)
    assert pt.phi[1, 1, GM - 1] == pytest.approx(0.25)
    vert = StitchProblem("vertical", obs, obs)
    pv = build_potentials(vert)
    assert pv.phi[0, 1, GM - 1] == pytest.approx(0.75)
    assert pv.phi[2, 1, GM - 1] == pytest.approx(0.75)
    assert pv.phi[1, 1, GM - 1] == pytest.approx(0.25)


def test_potentials_take_only_tabulated_values():
    rng = np.random.default_rng(0)
    for _ in range(20):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        a = rng.integers(1, 5, size=shape).astype(np.uint8)
        b = rng.integers(1, 5, size=shape).astype(np.uint8)
        orientation = "horizontal" if rng.random() < 0.5 else "vertical"
        pt = build_potentials(StitchProblem(orientation, a, b))
        psi_values = set(np.round(np.concatenate(
            [pt.psi_h.ravel(), pt.psi_v.ravel()]), 10).tolist())
        assert psi_values <= {1.0, 0.5, 0.01}
        phi_values = set(np.round(pt.phi.ravel(), 10).tolist())
        allowed = {round(w * f, 10) for w in (0.75, 0.25) for f in (1.0, 0.5, 0.01)}
        assert phi_values <= allowed


# ---------------------------------------------------------------------------
# Log posterior
# ---------------------------------------------------------------------------

def test_two_node_chain_hand_value():
    obs = np.array([[GM, GM]], dtype=np.uint8)
    p = hproblem(obs, obs)
    pt = build_potentials(p)
    # both nodes boundary (w=3/4) in full agreement, one edge at 1
    expected = 2 * math.log(0.75) + math.log(1.0)
    assert log_posterior(obs, pt) == pytest.approx(expected, abs=1e-12)


def test_unobserved_edge_costs_log_100():
    obs = np.array([[GM, GM, GM, GM]], dtype=np.uint8)
    pt = build_potentials(hproblem(obs, obs))
    base = log_posterior(obs, pt)
    flipped = obs.copy()
    flipped[0, 1] = WM     # both touching edges flip 1 -> 0.01, node 1 -> 0.01
    degraded = log_posterior(flipped, pt)
    # two edges lose log(100) each, the node loses log(1/0.01)
    assert base - degraded == pytest.approx(3 * math.log(100.0), abs=1e-9)


def test_enumeration_orders_configs_like_log_posterior():
    rng = np.random.default_rng(1)
    a = rng.integers(1, 5, size=(2, 3)).astype(np.uint8)
    b = rng.integers(1, 5, size=(2, 3)).astype(np.uint8)
    p = hproblem(a, b)
    pt = build_potentials(p)
    # продукт of raw potentials must order configurations identically
    def raw_product(config):
        c = config.astype(np.int64) - 1
        value = 1.0
        for r in range(2):
            for col in range(3):
                value *= pt.phi[r, col, c[r, col]]
        for r in range(2):
            for col in range(2):
                value *= pt.psi_h[r, col, c[r, col], c[r, col + 1]]
        for r in range(1):
            for col in range(3):
                value *= pt.psi_v[r, col, c[r, col], c[r + 1, col]]
        return value

    rng2 = np.random.default_rng(2)
    configs = [rng2.integers(1, 5, size=(2, 3)).astype(np.uint8) for _ in range(40)]
    lps = np.array([log_posterior(c, pt) for c in configs])
    raws = np.log([raw_product(c) for c in configs])
    for i in range(len(configs)):
        for j in range(len(configs)):
            if lps[i] > lps[j] + 1e-9:
                assert raws[i] > raws[j], (i, j)
            elif abs(lps[i] - lps[j]) <= 1e-9:
                assert abs(raws[i] - raws[j]) <= 1e-6


# ---------------------------------------------------------------------------
# Strip solvers: simulated annealing and the closed-form MAP
# ---------------------------------------------------------------------------

def test_problem_owns_its_observations():
    # stitch_slice builds problems from views of a canvas it later overwrites
    canvas = np.full((6, 8), GM, dtype=np.uint8)
    patch = np.full((6, 3), WM, dtype=np.uint8)
    p = hproblem(canvas[:, 5:], patch)
    canvas[:] = CSF
    patch[:] = CSF
    assert np.all(p.obs_a == GM)
    assert np.all(p.obs_b == WM)


def test_agreement_is_returned_exactly():
    obs = np.array([[CSF, GM, WM, WM], [GM, GM, GM, WM],
                    [WM, GM, CSF, CSF]], dtype=np.uint8)
    p = hproblem(obs, obs)
    assert np.array_equal(simulated_anneal(p, AnnealSchedule(seed=3)), obs)
    assert np.array_equal(exact_map(p), obs)


def test_incumbent_never_below_initialization():
    rng = np.random.default_rng(4)
    for seed in range(20):
        a = rng.integers(1, 5, size=(3, 4)).astype(np.uint8)
        b = rng.integers(1, 5, size=(3, 4)).astype(np.uint8)
        p = hproblem(a, b)
        pt = build_potentials(p)
        init_lp = log_posterior(composite_init(p), pt)
        result = simulated_anneal(p, AnnealSchedule(seed=seed))
        assert log_posterior(result, pt) >= init_lp - 1e-9
        assert np.all((result == a) | (result == b))
        assert log_posterior(exact_map(p), pt) >= init_lp - 1e-9


def test_sa_reaches_exhaustive_map_on_small_problems():
    rng = np.random.default_rng(5)
    hits = 0
    trials = 40
    for seed in range(trials):
        a = rng.integers(1, 5, size=(2, 3)).astype(np.uint8)
        b = rng.integers(1, 5, size=(2, 3)).astype(np.uint8)
        p = hproblem(a, b)
        pt = build_potentials(p)
        best_lp = enumerate_map_vectorized(p)
        result = simulated_anneal(p, AnnealSchedule(seed=seed))
        if log_posterior(result, pt) >= best_lp - 1e-9:
            hits += 1
        assert log_posterior(exact_map(p), pt) == pytest.approx(best_lp, abs=1e-9)
    assert hits / trials >= 0.95, f"{hits}/{trials} reached the MAP"


def test_exact_map_matches_enumeration():
    # shapes of both orientations down to 1-wide strips; observations that
    # disagree everywhere, in part, or draw from two labels only
    rng = np.random.default_rng(15)
    shapes = [(1, 1), (1, 3), (3, 1), (1, 5), (5, 1), (2, 2), (2, 3), (3, 2)]
    for trial in range(48):
        shape = shapes[trial % len(shapes)]
        a = rng.integers(1, 5, size=shape).astype(np.uint8)
        b = rng.integers(1, 5, size=shape).astype(np.uint8)
        if trial % 3 == 1:
            b = np.where(rng.random(shape) < 0.5, a, b).astype(np.uint8)
        elif trial % 3 == 2:
            a, b = a % 2 + 1, b % 2 + 1
        p = StitchProblem("horizontal" if trial % 2 else "vertical", a, b)
        pt = build_potentials(p)
        best_lp = enumerate_map_vectorized(p)
        result = exact_map(p)
        assert log_posterior(result, pt) == pytest.approx(best_lp, abs=1e-9), trial
        assert np.all((result == a) | (result == b)), trial


def test_row_transfer_oracle_matches_enumeration():
    rng = np.random.default_rng(17)
    for trial in range(60):
        shape = tuple(int(x) for x in rng.integers(1, 4, size=2))
        a = rng.integers(1, 5, size=shape).astype(np.uint8)
        b = rng.integers(1, 5, size=shape).astype(np.uint8)
        if trial % 2:
            b = np.where(rng.random(shape) < 0.5, a, b).astype(np.uint8)
        p = StitchProblem("horizontal" if shape[1] >= shape[0] else "vertical", a, b)
        assert row_transfer_map(p) == pytest.approx(enumerate_map_vectorized(p),
                                                    abs=1e-9), (trial, shape)


def test_exact_map_not_below_annealer():
    rng = np.random.default_rng(16)
    for seed in range(4):
        a = rng.integers(1, 4, size=(26, 4)).astype(np.uint8)
        b = np.where(rng.random((26, 4)) < 0.5, a,
                     rng.integers(1, 4, size=(26, 4))).astype(np.uint8)
        p = hproblem(a, b)
        pt = build_potentials(p)
        annealed = simulated_anneal(p, AnnealSchedule(seed=seed))
        assert log_posterior(exact_map(p), pt) >= log_posterior(annealed, pt) - 1e-9


def test_exact_map_widest_strip_cost():
    # every cell of a 14-wide strip (pad_slices=7), the widest that is
    # solved exactly, disagrees: one component of 896 cells
    rng = np.random.default_rng(17)
    a = rng.integers(1, 5, size=(64, EXACT_MAX_WIDTH)).astype(np.uint8)
    b = a % 4 + 1
    for p in (hproblem(a, b), StitchProblem("vertical", a.T, b.T)):
        pt = build_potentials(p)
        t0 = time.perf_counter()
        result = exact_map(p)
        elapsed = time.perf_counter() - t0
        # under a millisecond on a 2-vCPU VM
        assert elapsed < 5.0, f"{elapsed:.2f}s for a {p.shape} strip"
        assert np.all((result == p.obs_a) | (result == p.obs_b))
        assert log_posterior(result, pt) >= log_posterior(composite_init(p), pt)


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from([(h, w) for h in range(1, 7) for w in range(1, 7) if h * w <= 6]),
       orientation=st.sampled_from(["horizontal", "vertical"]), data=st.data())
def test_exact_map_copies_one_observation_per_component(shape, orientation, data):
    # strips of up to 6 cells, 1-wide ones included: the closed form reaches
    # the exhaustive MAP over all four labels, copies one observation on each
    # 4-connected component of disagreeing cells, and any choice of
    # observation per component scores the same
    labels = st.lists(st.integers(1, 4), min_size=shape[0] * shape[1],
                      max_size=shape[0] * shape[1])
    a = np.array(data.draw(labels), dtype=np.uint8).reshape(shape)
    b = np.array(data.draw(labels), dtype=np.uint8).reshape(shape)
    p = StitchProblem(orientation, a, b)
    pt = build_potentials(p)
    result = exact_map(p)
    best_lp = enumerate_map_vectorized(p)
    assert log_posterior(result, pt) == pytest.approx(best_lp, abs=1e-9)
    components, n = ndimage.label(a != b)
    assert np.array_equal(result[components == 0], a[components == 0])
    for k in range(1, n + 1):
        cells = components == k
        assert (np.array_equal(result[cells], a[cells])
                or np.array_equal(result[cells], b[cells])), k
    for choice in itertools.product((False, True), repeat=n):
        copies_b = np.array((False,) + choice)[components]
        assert log_posterior(np.where(copies_b, b, a), pt) == pytest.approx(best_lp, abs=1e-9)


def test_exact_map_solves_strips_wider_than_the_annealer_threshold():
    # a 40x24 strip, annealed in stitch_slice, has a closed-form MAP too
    rng = np.random.default_rng(19)
    a = rng.integers(1, 4, size=(40, 24)).astype(np.uint8)
    b = np.where(rng.random((40, 24)) < 0.5, a,
                 rng.integers(1, 4, size=(40, 24))).astype(np.uint8)
    assert min(a.shape) > EXACT_MAX_WIDTH
    for p in (hproblem(a, b), StitchProblem("vertical", a.T, b.T)):
        pt = build_potentials(p)
        result = exact_map(p)
        assert np.all((result == p.obs_a) | (result == p.obs_b))
        annealed = simulated_anneal(p, FAST)
        assert log_posterior(result, pt) >= log_posterior(annealed, pt) - 1e-9


def test_default_schedule_counts():
    # perfbench's tracer counts annealer proposals from these two values
    sched = AnnealSchedule()
    assert sched.n_temperatures == 90
    assert sched.sweeps == 20


def test_sa_determinism():
    rng = np.random.default_rng(6)
    a = rng.integers(1, 5, size=(4, 4)).astype(np.uint8)
    b = rng.integers(1, 5, size=(4, 4)).astype(np.uint8)
    p = hproblem(a, b)
    sched = AnnealSchedule(seed=123)
    r1 = simulated_anneal(p, sched)
    r2 = simulated_anneal(p, sched)
    assert np.array_equal(r1, r2)
    r3 = simulated_anneal(p, AnnealSchedule(seed=124))
    assert r3.shape == r1.shape


def test_agreement_columns_preserved():
    # where both observations agree on the outer columns, the MAP keeps them
    rng = np.random.default_rng(7)
    for seed in range(10):
        a = rng.integers(1, 4, size=(4, 4)).astype(np.uint8)
        b = a.copy()
        b[:, 1:3] = rng.integers(1, 4, size=(4, 2))     # disagree inside only
        p = hproblem(a, b)
        result = simulated_anneal(p, AnnealSchedule(seed=seed))
        assert np.array_equal(result[:, 0], a[:, 0])
        assert np.array_equal(result[:, 3], a[:, 3])


# ---------------------------------------------------------------------------
# Slice assembly
# ---------------------------------------------------------------------------

def test_single_subimage_identity():
    rng = np.random.default_rng(9)
    patch = rng.integers(1, 5, size=(8, 8)).astype(np.uint8)
    out = stitch_slice([SliceSubimage(((0, 7), (0, 7)), patch)], (8, 8), FAST)
    assert np.array_equal(out, patch)


def test_two_agreeing_subimages_equal_union():
    rng = np.random.default_rng(10)
    full = rng.integers(1, 5, size=(8, 12)).astype(np.uint8)
    left = SliceSubimage(((0, 7), (0, 7)), full[:, :8].copy())
    right = SliceSubimage(((0, 7), (4, 11)), full[:, 4:].copy())
    out = stitch_slice([left, right], (8, 12), FAST)
    assert np.array_equal(out, full)


def test_four_quadrants_with_corrupted_overlaps():
    rng = np.random.default_rng(11)
    h = w = 20
    truth = np.full((h, w), GM, dtype=np.uint8)
    truth[:, : w // 2] = CSF
    truth[: h // 2, :] = np.where(truth[: h // 2, :] == CSF, CSF, WM)

    def noisy_patch(r0, r1, c0, c1, seed):
        rng_local = np.random.default_rng(seed)
        patch = truth[r0:r1 + 1, c0:c1 + 1].copy()
        flip = rng_local.random(patch.shape) < 0.15
        patch[flip] = rng_local.integers(1, 4, size=int(flip.sum()))
        return patch

    subs = [
        SliceSubimage(((0, 11), (0, 11)), noisy_patch(0, 11, 0, 11, 1)),
        SliceSubimage(((0, 11), (8, 19)), noisy_patch(0, 11, 8, 19, 2)),
        SliceSubimage(((8, 19), (0, 11)), noisy_patch(8, 19, 0, 11, 3)),
        SliceSubimage(((8, 19), (8, 19)), noisy_patch(8, 19, 8, 19, 4)),
    ]
    out = stitch_slice(subs, (h, w), AnnealSchedule(seed=5))
    # overlap columns 8..11: stitched error no worse than either observation
    ov = (slice(0, 20), slice(8, 12))
    err_out = (out[ov] != truth[ov]).mean()
    err_a = (subs[0].labels[:, 8:12] != truth[0:12, 8:12]).mean()
    assert err_out <= err_a + 1e-9


def test_wide_strip_is_annealed():
    # a strip wider than EXACT_MAX_WIDTH is annealed with the default
    # schedule, on the stream spawned for its slice, corner and orientation
    rng = np.random.default_rng(18)
    w = EXACT_MAX_WIDTH + 1
    left = rng.integers(1, 4, size=(w, 20)).astype(np.uint8)
    right = rng.integers(1, 4, size=(w, 20)).astype(np.uint8)
    subs = [SliceSubimage(((0, w - 1), (0, 19)), left),
            SliceSubimage(((0, w - 1), (5, 24)), right)]
    out = stitch_slice(subs, (w, 25), slice_index=2, overlap=w)
    p = hproblem(left[:, 5:], right[:, :w])
    sched = replace(AnnealSchedule(), seed=spawn_seed(0, 2, 0, 5, 0))
    assert np.array_equal(out[:, 5:20], simulated_anneal(p, sched))
    assert np.array_equal(out[:, :5], left[:, :5])
    assert np.array_equal(out[:, 20:], right[:, w:])


def test_uncovered_cells_error():
    patch = np.full((4, 4), GM, dtype=np.uint8)
    with pytest.raises(ValueError, match="not covered"):
        stitch_slice([SliceSubimage(((0, 3), (0, 3)), patch)], (8, 8), FAST)


def test_inconsistent_overlap_width_error():
    # second subimage overlaps 6 columns: the far 2 fall outside any strip
    left = SliceSubimage(((0, 5), (0, 7)), np.full((6, 8), GM, dtype=np.uint8))
    right = SliceSubimage(((0, 5), (2, 11)), np.full((6, 10), WM, dtype=np.uint8))
    with pytest.raises(ValueError, match="overlap"):
        stitch_slice([left, right], (6, 12), FAST)


# ---------------------------------------------------------------------------
# Volume assembly
# ---------------------------------------------------------------------------

def test_single_fragment_volume_identity():
    rng = np.random.default_rng(12)
    labels = rng.integers(1, 5, size=(6, 6, 5)).astype(np.uint8)
    frag = ClassifiedFragment(core_bounds=((0, 5), (0, 5), (0, 4)),
                              padded_bounds=((0, 5), (0, 5), (0, 4)),
                              labels=labels)
    out = stitch_volume([frag], (6, 6, 5), sched=FAST)
    assert np.array_equal(out.labels, labels)


def test_agreeing_fragments_equal_union():
    rng = np.random.default_rng(13)
    full = rng.integers(1, 5, size=(6, 6, 10)).astype(np.uint8)
    lower = ClassifiedFragment(core_bounds=((0, 5), (0, 5), (0, 4)),
                               padded_bounds=((0, 5), (0, 5), (0, 6)),
                               labels=full[:, :, :7].copy())
    upper = ClassifiedFragment(core_bounds=((0, 5), (0, 5), (5, 9)),
                               padded_bounds=((0, 5), (0, 5), (3, 9)),
                               labels=full[:, :, 3:].copy())
    out = stitch_volume([lower, upper], (6, 6, 10), sched=FAST)
    assert np.array_equal(out.labels, full)


def test_stitched_phantom_overlap_quality():
    from kfdaseg.phantom import PhantomSpec, generate_phantom
    from kfdaseg.pipeline import dice_scores
    from kfdaseg.volume import LabelVolume

    spec = PhantomSpec(dims=(24, 24, 24), noise_sigma=0.0, pv_blur=0.0, seed=40)
    _, truth = generate_phantom(spec)
    rng = np.random.default_rng(14)

    def fragment(core, padded):
        sl = box_slices(padded)
        labels = truth.labels[sl].copy()
        flip = rng.random(labels.shape) < 0.10
        labels[flip & (labels != BG)] = rng.integers(1, 4, size=int((flip & (labels != BG)).sum()))
        return ClassifiedFragment(core_bounds=core, padded_bounds=padded, labels=labels)

    frags = [
        fragment(((0, 11), (0, 23), (0, 23)), ((0, 13), (0, 23), (0, 23))),
        fragment(((12, 23), (0, 23), (0, 23)), ((10, 23), (0, 23), (0, 23))),
    ]
    mask = truth.labels != BG
    out = stitch_volume(frags, (24, 24, 24), mask=mask, sched=AnnealSchedule(seed=6))
    scores = dice_scores(out, truth, mask)
    overlap_region = np.zeros((24, 24, 24), dtype=bool)
    overlap_region[10:14] = True
    ov_truth = truth.labels[overlap_region & mask]
    ov_out = out.labels[overlap_region & mask]
    interior = ~overlap_region & mask
    dice_ov = (ov_out == ov_truth).mean()
    dice_in = (out.labels[interior] == truth.labels[interior]).mean()
    assert dice_ov >= dice_in - 0.05


def test_background_inside_mask_rejected():
    # a fragment's background inside the mask is rejected before stitching,
    # named by its voxel in volume coordinates
    lower = ClassifiedFragment(core_bounds=((0, 2), (0, 3), (0, 3)),
                               padded_bounds=((0, 3), (0, 3), (0, 3)),
                               labels=np.full((4, 4, 4), GM, dtype=np.uint8))
    upper = ClassifiedFragment(core_bounds=((3, 5), (0, 3), (0, 3)),
                               padded_bounds=((2, 5), (0, 3), (0, 3)),
                               labels=np.full((4, 4, 4), WM, dtype=np.uint8))
    upper.labels[1, 2, 3] = BG
    mask = np.ones((6, 4, 4), dtype=bool)
    with pytest.raises(ValueError, match=r"fragment 1 labels 1 voxels inside the "
                                         r"mask as background, first at voxel \(3, 2, 3\)"):
        stitch_volume([lower, upper], (6, 4, 4), mask=mask, sched=FAST, overlap=2)
    # off the mask, background is what the output holds there anyway
    mask[3, 2, 3] = False
    out = stitch_volume([lower, upper], (6, 4, 4), mask=mask, sched=FAST, overlap=2)
    assert out.labels[3, 2, 3] == BG
    assert np.all(np.isin(out.labels[mask], (GM, WM)))


def test_uncovered_volume_error():
    frag = ClassifiedFragment(core_bounds=((0, 3), (0, 3), (0, 3)),
                              padded_bounds=((0, 3), (0, 3), (0, 3)),
                              labels=np.full((4, 4, 4), GM, dtype=np.uint8))
    with pytest.raises(Exception, match="covered"):
        stitch_volume([frag], (6, 4, 4), sched=FAST)
