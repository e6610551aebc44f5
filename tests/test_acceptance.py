"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one status line per
criterion. Phantom-scale analogues stand in for the original templates.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg as sla

from kfdaseg.kfda import (KernelSpec, build_matrices, neighborhood_matrix,
                          solve_alpha)
from kfdaseg.partition import (best_cut, bin_entropy, cut_mi, measure, partition,
                               reference_field)
from kfdaseg.phantom import PhantomSpec, generate_phantom
from kfdaseg.ssim import C1, C2, C3, gaussian_window, ssim_patch
from kfdaseg.stitch import AnnealSchedule, StitchProblem, composite_init, simulated_anneal
from kfdaseg.volume import CSF, MultiChannelVolume
from oracles import (build_potentials, exhaustive_cut_oracle, graph_edges, log_posterior,
                     mi_oracle, row_transfer_map, within)
from recipes import criterion_7, criterion_8, criterion_9


def banner(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {num}] {status} {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. MI oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_mi_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        joint = rng.integers(0, 200, size=(2, 2)).astype(np.float64)
        if joint.sum() == 0:
            joint[0, 0] = 1
        total = int(joint.sum())
        h = bin_entropy(joint.sum(axis=1), total)
        value = cut_mi(h, joint.T, total)
        worst = max(worst, abs(value - max(0.0, mi_oracle(joint))))
        assert 0.0 <= value <= h + 1e-15
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert banner(1, ok, f"worst |diff|={worst:.2e}, {elapsed:.2f}s (< 1 s)")


# ---------------------------------------------------------------------------
# 2. Partition optimality
# ---------------------------------------------------------------------------

def test_criterion_2_partition_optimality():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    for trial in range(200):
        dims = tuple(rng.integers(6, 17, size=3))
        mask = rng.random(dims) > 0.15
        vol = MultiChannelVolume(data=rng.random(dims + (1,), dtype=np.float32),
                                 mask=mask)
        ref, bounds = reference_field(vol), tuple((0, d - 1) for d in dims)
        got = best_cut(ref, measure(ref, bounds))
        want = exhaustive_cut_oracle(vol, bounds)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0], trial
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    monotone = True
    for seed in range(20):
        spec = PhantomSpec(dims=(32, 32, 32), noise_sigma=0.02 + 0.002 * (seed % 5),
                           bias_amplitude=0.05 + 0.01 * (seed % 4), pv_blur=1.0,
                           seed=seed)
        vol, _ = generate_phantom(spec)
        tree = partition(vol, max_depth=5)
        curve = tree.mir_curve
        assert len(curve) >= 5
        if any(b < a - 1e-9 for a, b in zip(curve, curve[1:])):
            monotone = False
    elapsed = time.perf_counter() - t0
    ok = monotone and elapsed < 30.0
    assert banner(2, ok, f"200 exhaustive cuts matched, MIR monotone on 20 "
                         f"phantoms, {elapsed:.1f}s (< 30 s)")


# ---------------------------------------------------------------------------
# 3. Eigen solve
# ---------------------------------------------------------------------------

def test_criterion_3_eigen_solve():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)

    def line_subdata(feats):
        return (np.asarray(feats, dtype=np.float64),
                np.ones((len(feats), 1, 1), dtype=bool))

    worst_resid = 0.0
    worst_constraint = 0.0
    for _ in range(10):
        l = int(rng.integers(8, 40))
        feats = rng.random((l, 3))
        labels = np.where(rng.random(l) < 0.5, -1, 1)
        if abs(int(labels.sum())) == l:
            labels[0] = -labels[0]
        mats = build_matrices(np.arange(l), labels, KernelSpec.rbf(0.5), *line_subdata(feats))
        for lam in (0.0, 5e-5, 0.1):
            model = solve_alpha(mats, lam)
            worst_resid = max(worst_resid, model.residual)
            pencil = within(feats, labels, KernelSpec.rbf(0.5)) + mats.beta * np.eye(l)
            worst_constraint = max(worst_constraint,
                                   abs(float(model.alpha @ (pencil @ model.alpha)) - 1.0))

    n = 150
    cov = [[1.0, 0.3], [0.3, 0.8]]
    gen = np.random.default_rng(42)
    x_neg = gen.multivariate_normal([0, 0], cov, size=n)
    x_pos = gen.multivariate_normal([3.0, 1.0], cov, size=n)
    feats = np.vstack([x_neg, x_pos])
    mats = build_matrices(np.arange(2 * n), np.array([-1] * n + [1] * n), KernelSpec.linear(),
                          *line_subdata(feats))
    model = solve_alpha(mats, 0.0)
    w_kfda = feats.T @ model.alpha
    mu_n, mu_p = x_neg.mean(0), x_pos.mean(0)
    s_w = (x_neg - mu_n).T @ (x_neg - mu_n) + (x_pos - mu_p).T @ (x_pos - mu_p)
    w_fisher = np.linalg.solve(s_w, mu_n - mu_p)
    cos = abs(w_kfda @ w_fisher) / np.linalg.norm(w_kfda) / np.linalg.norm(w_fisher)
    angle = math.degrees(math.acos(min(cos, 1.0)))

    elapsed = time.perf_counter() - t0
    ok = worst_resid <= 1e-8 and worst_constraint <= 1e-8 and angle < 1.0 \
        and elapsed < 10.0
    assert banner(3, ok, f"resid<={worst_resid:.1e}, constraint err "
                         f"{worst_constraint:.1e}, Fisher angle {angle:.4f} deg, "
                         f"{elapsed:.1f}s (< 10 s)")


# ---------------------------------------------------------------------------
# 4. Penalty identity
# ---------------------------------------------------------------------------

def test_criterion_4_penalty_identity():
    rng = np.random.default_rng(1004)
    worst = 0.0
    checks = 0
    while checks < 100:
        dims = tuple(rng.integers(3, 9, size=3))
        mask = rng.random(dims) > 0.2
        if mask.sum() < 6:
            continue
        data = rng.random(dims + (3,))
        features = data[mask]
        l = min(12, len(features))
        labels = np.array([-1] * (l // 2) + [1] * (l - l // 2))
        mats = build_matrices(np.arange(l), labels, KernelSpec.rbf(0.5), features, mask)
        edges = graph_edges(neighborhood_matrix(mask))
        for _ in range(10):
            alpha = rng.standard_normal(l)
            v = mats.voxel_projections(alpha)
            quad = float(alpha @ mats.penalty_matvec(alpha))
            edge_sum = -float(((v[edges[:, 0]] - v[edges[:, 1]]) ** 2).sum()) \
                if len(edges) else 0.0
            worst = max(worst, abs(quad - edge_sum))
            checks += 1
    ok = worst <= 1e-8
    assert banner(4, ok, f"{checks} random alphas, worst |diff|={worst:.2e}")


# ---------------------------------------------------------------------------
# 5. SSIM correctness
# ---------------------------------------------------------------------------

def ssim_direct_oracle(x, y, weights=None):
    w = np.full(x.shape, 1.0 / x.size) if weights is None else weights / weights.sum()
    mu_x = float((w * x).sum())
    mu_y = float((w * y).sum())
    var_x = float((w * (x - mu_x) ** 2).sum())
    var_y = float((w * (y - mu_y) ** 2).sum())
    cov = float((w * (x - mu_x) * (y - mu_y)).sum())
    sx, sy = math.sqrt(var_x), math.sqrt(var_y)
    return ((2 * mu_x * mu_y + C1) / (mu_x ** 2 + mu_y ** 2 + C1)
            * (2 * sx * sy + C2) / (var_x + var_y + C2)
            * (cov + C3) / (sx * sy + C3))


def test_criterion_5_ssim_correctness():
    rng = np.random.default_rng(1005)
    w = gaussian_window()
    for _ in range(50):
        x = rng.random((11, 11))
        assert ssim_patch(x, x) == 1.0
    worst_sym = 0.0
    worst_oracle = 0.0
    out_of_bounds = 0
    for i in range(10000):
        x = rng.random((11, 11))
        y = rng.random((11, 11))
        weights = w if i % 2 else None
        a = ssim_patch(x, y, weights=weights)
        b = ssim_patch(y, x, weights=weights)
        worst_sym = max(worst_sym, abs(a - b))
        if not (-1.0 - 1e-12 <= a <= 1.0 + 1e-12):
            out_of_bounds += 1
        if i % 10 == 0:
            worst_oracle = max(worst_oracle,
                               abs(a - ssim_direct_oracle(x, y, weights)))
    ok = worst_sym <= 1e-12 and out_of_bounds == 0 and worst_oracle <= 1e-10
    assert banner(5, ok, f"identity exact, symmetry diff {worst_sym:.1e}, "
                         f"oracle diff {worst_oracle:.1e}, bounds held on 10000 pairs")


# ---------------------------------------------------------------------------
# 6. SA stitching optimality
# ---------------------------------------------------------------------------

def test_criterion_6_sa_optimality():
    rng = np.random.default_rng(1006)
    shapes = [(2, 3)] * 150 + [(2, 4)] * 44 + [(3, 4)] * 6
    hits = 0
    # the 60 s bound is on annealing; the exact row-transfer oracle is not timed
    elapsed = 0.0
    for seed, shape in enumerate(shapes):
        a = rng.integers(1, 5, size=shape).astype(np.uint8)
        b = rng.integers(1, 5, size=shape).astype(np.uint8)
        orientation = "horizontal" if shape[1] >= shape[0] else "vertical"
        p = StitchProblem(orientation, a, b)
        pt = build_potentials(p)
        best_lp = row_transfer_map(p)
        sched = AnnealSchedule(seed=seed)
        t0 = time.perf_counter()
        result = simulated_anneal(p, sched)
        elapsed += time.perf_counter() - t0
        lp = log_posterior(result, pt)
        assert lp >= log_posterior(composite_init(p), pt) - 1e-9
        if lp >= best_lp - 1e-9:
            hits += 1
    rate = hits / len(shapes)
    ok = rate >= 0.95 and elapsed < 60.0
    assert banner(6, ok, f"MAP reached in {hits}/{len(shapes)} runs "
                         f"({100 * rate:.1f}%), {elapsed:.1f}s (< 60 s)")


# ---------------------------------------------------------------------------
# 7. End-to-end phantom recovery
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recovery_run(tmp_path_factory):
    t0 = time.perf_counter()
    report = criterion_7().run(tmp_path_factory.mktemp("recovery"))
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_criterion_7_end_to_end_recovery(recovery_run):
    report, elapsed = recovery_run
    dice = report.dice
    ok = (all(dice[c] is not None and dice[c] >= 0.90 for c in ("csf", "gm", "wm"))
          and report.improved_fraction is not None
          and report.improved_fraction >= 0.70
          and elapsed < 600.0)
    assert banner(7, ok, f"dice={{csf: {dice['csf']:.4f}, gm: {dice['gm']:.4f}, "
                         f"wm: {dice['wm']:.4f}}}, improved "
                         f"{100 * (report.improved_fraction or 0):.0f}% of "
                         f"{len(report.subdomains)} subdomains, "
                         f"{elapsed:.0f}s (< 600 s)")


# ---------------------------------------------------------------------------
# 8. CSF-growth analogue
# ---------------------------------------------------------------------------

def test_criterion_8_csf_growth(tmp_path):
    recipe = criterion_8()
    csf_truth = int((recipe.truth.labels == CSF).sum())
    csf_init = int((recipe.init.labels == CSF).sum())
    assert csf_init <= 0.6 * csf_truth

    report = recipe.run(tmp_path / "csf")
    csf_out = report.class_counts["final"]["csf"]
    halfway = csf_init + 0.5 * (csf_truth - csf_init)
    ok = csf_out >= halfway and csf_out <= 1.15 * csf_truth
    assert banner(8, ok, f"CSF voxels: init {csf_init}, truth {csf_truth}, "
                         f"recovered {csf_out} (halfway mark {halfway:.0f}, "
                         f"cap {1.15 * csf_truth:.0f})")


# ---------------------------------------------------------------------------
# 9. Determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    recipe = criterion_9()
    out = tmp_path / "det"

    def snapshot():
        recipe.run(out)
        return {name: (out / name).read_bytes()
                for name in ("labels.u8raw", "report.json", "mssim_table.csv",
                             "curves.csv", "subdomains.json", "partition.json")}

    first = snapshot()
    second = snapshot()
    ok = all(first[name] == second[name] for name in first)
    assert banner(9, ok, "two identically configured runs are byte-identical "
                         "across labels and all report files")
