"""Acceptance gate: eleven end-to-end checks, one printed line each.

Each test prints `acceptance NN PASS|FAIL label: detail [t s]` on the real
stdout before asserting, so a full run always shows the per-criterion
outcome.  Statistical tolerances are asserted exactly as stated; wall
times are reported in the line but not asserted, since they depend on
the host.
"""
import dataclasses
import io
import time

import numpy as np
import pytest

from stackmf._rng import SharedNoise
from stackmf.cli import build_objects, presets, run_experiment
from stackmf.coupling import build_pihat, verify_mixture_convexity
from stackmf.dynamics import (
    CoefficientSet,
    DelayLaw,
    ModelSpec,
    Policy,
    PolicySet,
    TimeGrid,
    simulate_nplayer,
)
from stackmf.measures import (
    DiscreteMeasure,
    empirical_rate_curve,
    w2_exact_1d,
    w2_exact_lp,
)
from stackmf.meanfield import holder_exponent_estimate, solve_conditional_law
from stackmf.rates import (
    epsilon_nash_certify,
    eta_orthogonality_check,
    fit_slope,
    state_gap_experiment,
    wasserstein_gap_curve,
    cost_gap_experiment,
)


def _line(capsys, num, ok, label, detail, t0):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nacceptance {num:02d} {status} {label}: {detail} "
              f"[{time.time() - t0:.1f} s]", flush=True)


def test_01_coupling_exactness(capsys):
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst_row = worst_col = worst_diag = 0.0
    for _ in range(10_000):
        n = int(rng.integers(1, 11))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        m = build_pihat(p, q).pihat
        worst_row = max(worst_row, float(np.abs(m.sum(axis=1) - p).max()))
        worst_col = max(worst_col, float(np.abs(m.sum(axis=0) - q).max()))
        worst_diag = max(worst_diag,
                         float(np.abs(np.diag(m) - np.minimum(p, q)).max()))
    ok = max(worst_row, worst_col, worst_diag) < 1e-12
    detail = (f"10^4 pairs, residuals row {worst_row:.1e} "
              f"col {worst_col:.1e} diag {worst_diag:.1e}")
    _line(capsys, 1, ok, "coupling exactness", detail, t0)
    assert ok, detail


def _random_measure(rng, dim, max_support=8):
    k = int(rng.integers(1, max_support + 1))
    pts = rng.standard_normal((k, dim))
    w = rng.dirichlet(np.ones(k))
    return DiscreteMeasure(pts, w)


def test_02_mixture_convexity(capsys):
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = -np.inf
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        L = int(rng.integers(2, 5))
        mus = [_random_measure(rng, dim) for _ in range(L)]
        nus = [_random_measure(rng, dim) for _ in range(L)]
        lams = rng.dirichlet(np.ones(L))
        lhs, rhs = verify_mixture_convexity(mus, nus, lams)
        worst = max(worst, lhs - rhs)
    ok = worst <= 1e-9
    detail = f"200 instances, max lhs-rhs = {worst:.2e}"
    _line(capsys, 2, ok, "mixture convexity", detail, t0)
    assert ok, detail


def test_03_ot_oracle_agreement(capsys):
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst_diff = 0.0
    for _ in range(200):
        mu = _random_measure(rng, 1, max_support=40)
        nu = _random_measure(rng, 1, max_support=40)
        worst_diff = max(worst_diff,
                         abs(w2_exact_1d(mu, nu) - w2_exact_lp(mu, nu)[0]))
    worst_tri = -np.inf
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        mu = _random_measure(rng, dim, max_support=16)
        nu = _random_measure(rng, dim, max_support=16)
        rho = _random_measure(rng, dim, max_support=16)
        d_mn = w2_exact_lp(mu, nu)[0]
        d_mr = w2_exact_lp(mu, rho)[0]
        d_rn = w2_exact_lp(rho, nu)[0]
        worst_tri = max(worst_tri, d_mn - d_mr - d_rn)
    ok = worst_diff < 1e-9 and worst_tri <= 1e-9
    detail = (f"200 dual-route diffs max {worst_diff:.2e}, "
              f"200 triangle slacks max {worst_tri:.2e}")
    _line(capsys, 3, ok, "OT oracle agreement", detail, t0)
    assert ok, detail


def test_04_empirical_measure_rate(capsys):
    # n1=1 is checked twice.  The sharp Gaussian decay in dimension 1 is
    # E W2^2 ~ log log N / N (Bobkov & Ledoux, Mem. AMS 2019), so the slope
    # of W2^2 / log log N is held to -1 two-sidedly.  The N^(-1/2) factor of
    # rate_f is the Fournier & Guillin (PTRF 2015) upper bound, so the raw
    # slope is held to it one-sidedly, as acceptance 06 does.
    t0 = time.time()
    Ns = [50, 100, 200, 400, 800, 1600, 3200]
    logNs = np.log(np.array(Ns, float))
    # exact assignment dominates the cost above N=800; W2^2 concentrates
    # there, so fewer replications leave the slope stderr unchanged
    tapered = [200, 200, 200, 200, 200, 60, 30]
    checks = []
    for dim, target, tol in ((1, -1.0, 0.15), (3, -0.5, 0.15),
                             (4, -0.5, 0.15), (6, -1.0 / 3.0, 0.15)):
        reps = 200 if dim == 1 else tapered
        means, _ = empirical_rate_curve(dim, Ns, reps, seed=4)
        if dim == 1:
            values = means / np.log(logNs)
        elif dim == 4:
            values = means / logNs
        else:
            values = means
        slope, _, _ = fit_slope(Ns, values)
        good = abs(slope - target) <= tol
        text = f"n1={dim}: slope {slope:.3f} vs {target:+.3f}+-0.15"
        if dim == 1:
            raw, _, _ = fit_slope(Ns, means)
            good = good and raw <= -0.5 + 0.15
            text = (f"n1=1: slope/loglogN {slope:.3f} vs {target:+.3f}+-0.15,"
                    f" raw slope {raw:.3f} <= -0.35")
        checks.append((text, good))
    ok = all(good for _, good in checks)
    detail = ", ".join(
        f"{text} {'ok' if good else 'MISS'}" for text, good in checks)
    _line(capsys, 4, ok, "empirical-measure rate", detail, t0)
    assert ok, detail


def test_05_degenerate_delay_w2_curve(capsys):
    t0 = time.time()
    cfg = presets()["degenerate-delay-n1-1"]
    model, policies, law = build_objects(cfg)
    rep = wasserstein_gap_curve(
        model, policies, law, cfg.Ns, cfg.reps, cfg.K, cfg.seed,
        scenario=cfg.name, regime=cfg.regime, slope_tol=0.25)
    ok = rep.slope is not None and abs(rep.slope + 0.5) <= 0.25 \
        and rep.verdict == "pass"
    detail = (f"slope {rep.slope:.3f} vs -0.5+-0.25, reps {rep.reps}, "
              f"K {cfg.K}, verdict {rep.verdict}")
    _line(capsys, 5, ok, "degenerate-delay W2 curve", detail, t0)
    assert ok, detail


def test_06_discrete_delay_state_gap(capsys):
    t0 = time.time()
    cfg = presets()["two-atom-delay-n1-1"]
    model, policies, law = build_objects(cfg)
    rep = state_gap_experiment(
        model, policies, law, cfg.Ns, cfg.reps, cfg.K, cfg.seed,
        scenario=cfg.name, regime=cfg.regime)
    ok = rep.slope is not None and rep.slope <= -0.5 + 0.25 \
        and rep.verdict == "pass"
    detail = f"slope {rep.slope:.3f} <= -0.25 one-sided, verdict {rep.verdict}"
    _line(capsys, 6, ok, "two-atom-delay state gap", detail, t0)
    assert ok, detail


def test_07_linear_in_measure_rates(capsys):
    t0 = time.time()
    cfg_s = presets()["linear-in-measure-n1-1"]
    model, policies, law = build_objects(cfg_s)
    rep_s = state_gap_experiment(
        model, policies, law, cfg_s.Ns, cfg_s.reps, cfg_s.K, cfg_s.seed,
        scenario=cfg_s.name, regime=cfg_s.regime)
    cfg_c = presets()["linear-in-measure-cost-n1-1"]
    model, policies, law = build_objects(cfg_c)
    rep_c = cost_gap_experiment(
        model, policies, law, cfg_c.Ns, cfg_c.reps, cfg_c.K, cfg_c.seed,
        scenario=cfg_c.name, regime=cfg_c.regime)
    ok = abs(rep_s.slope + 1.0) <= 0.25 and abs(rep_c.slope + 0.5) <= 0.25
    detail = (f"state slope {rep_s.slope:.3f} vs -1+-0.25, "
              f"cost slope {rep_c.slope:.3f} vs -0.5+-0.25")
    _line(capsys, 7, ok, "linear-in-measure 1/N rates", detail, t0)
    assert ok, detail


def test_08_eta_orthogonality(capsys):
    t0 = time.time()
    cfg = presets()["eta-orthogonality-n64"]
    model, policies, law = build_objects(cfg)
    rep = eta_orthogonality_check(
        model, policies, law, cfg.Ns[0], cfg.extras["panels"],
        cfg.extras["leader_paths"], cfg.K, cfg.seed, scenario=cfg.name)
    ok = 0.7 <= rep.ratio <= 1.3
    detail = (f"ratio {rep.ratio:.4f} in [0.7, 1.3], N {rep.N}, "
              f"{rep.panels}x{rep.leader_paths} replications")
    _line(capsys, 8, ok, "eta orthogonality", detail, t0)
    assert ok, detail


def test_09_holder_in_delta(capsys):
    # Brownian leader feeding the follower diffusion through the policy:
    # squared conditional-law gaps scale linearly in the delay spacing
    t0 = time.time()
    grid = TimeGrid(-0.25, 0.5, 1.0 / 32)
    coeffs = CoefficientSet("linear_quadratic", {"s1_v": 0.6, "s1": 0.1})
    model = ModelSpec(
        coefficients=coeffs, grid=grid,
        leader_init={"family": "scaled_brownian", "params": {"sigma": 0.5}},
        follower_init={"family": "normal", "params": {"scale": 0.3}})
    policies = PolicySet(Policy("zero"), Policy("affine", {"gain_lead": 1.0}))
    flow, report = solve_conditional_law(
        model, policies, [(0.125, 1.0)], 41, K=100)
    assert report.converged
    hrep = holder_exponent_estimate(
        model, policies, flow, [0.0625, 0.125, 0.1875, 0.25], 400)
    ok = not hrep.skipped and abs(hrep.exponent - 1.0) <= 0.2
    detail = f"delta-exponent {hrep.exponent:.3f} vs 1+-0.2 on squared gaps"
    _line(capsys, 9, ok, "Holder continuity in the delay", detail, t0)
    assert ok, detail


def test_10_epsilon_nash_structure(capsys):
    t0 = time.time()
    grid = TimeGrid(-0.125, 0.5, 1.0 / 16)
    coeffs = CoefficientSet(
        "linear_quadratic",
        {"a1": -0.8, "s1": 0.3, "a0": -0.5, "s0": 0.25,
         "cost1_control": 1.0, "cost0_control": 1.0})
    model = ModelSpec(
        coefficients=coeffs, grid=grid,
        follower_init={"family": "normal", "params": {"scale": 0.5}})
    profile = PolicySet(Policy("zero"), Policy("zero"))
    law = DelayLaw.degenerate(0.125)
    self_rep = epsilon_nash_certify(model, profile, [profile], 16, 50, 11,
                                    delay_law=law)
    c = 0.7
    dev = PolicySet(Policy("zero"), Policy("constant", {"value": c}))
    dev_rep = epsilon_nash_certify(model, profile, [dev], 16, 100, 11,
                                   delay_law=law, kappa=5.0)
    beat = dev_rep.follower_costs[0] - dev_rep.profile_follower_cost
    se = dev_rep.follower_gain_stderrs[0]
    expected = c * c * grid.T
    ok = self_rep.epsilon_hat == 0.0 \
        and abs(beat - expected) <= max(3.0 * se, 1e-12)
    detail = (f"self-library eps_hat {self_rep.epsilon_hat!r}, constant "
              f"deviation loses {beat:.6f} vs c^2 T = {expected:.6f} "
              f"(3 se = {3 * se:.2e})")
    _line(capsys, 10, ok, "epsilon-Nash structure", detail, t0)
    assert ok, detail


def test_11_determinism_and_symmetry(capsys, tmp_path):
    t0 = time.time()
    cfg = dataclasses.replace(
        presets()["two-atom-delay-n1-1"], Ns=[4, 8, 16], reps=50, K=256,
        extras={"slope_tol": 0.45})
    rc1 = run_experiment(cfg, out_dir=tmp_path / "a", threads=1,
                         stream=io.StringIO())
    rc2 = run_experiment(cfg, out_dir=tmp_path / "b", threads=3,
                         stream=io.StringIO())
    identical = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("results.csv", "report.json", "manifest.json"))

    model, policies, law = build_objects(presets()["uniform-delay-n1-1"])
    perm = [5, 3, 7, 1, 0, 6, 2, 4]
    base = simulate_nplayer(model, policies, 8, law, SharedNoise(77))
    relab = simulate_nplayer(model, policies, 8, law,
                             SharedNoise(77).permuted(perm))
    symmetric = (np.array_equal(relab.leader_path, base.leader_path)
                 and np.array_equal(relab.delays, base.delays[perm])
                 and np.array_equal(relab.follower_paths,
                                    base.follower_paths[perm]))
    ok = rc1 == 0 and rc2 == 0 and identical and symmetric
    detail = (f"thread counts 1 vs 3 byte-identical: {identical}; "
              f"relabeling permutes paths exactly: {symmetric}")
    _line(capsys, 11, ok, "determinism and symmetry", detail, t0)
    assert ok, detail
