"""Gap experiments, slope fitting, exponent table, epsilon certification."""
import collections
import dataclasses
import io
import json
import math
import os
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackmf import _pool, _rng, dynamics, measures, rates
from stackmf._rng import REPLICATION, SharedNoise, child_entropy
from stackmf.dynamics import (
    CoefficientSet,
    DelayLaw,
    Draws,
    ModelSpec,
    Policy,
    PolicySet,
    TimeGrid,
    evaluate_costs_nplayer,
    sample_delays,
    simulate_nplayer,
)
from stackmf.errors import (
    ConfigError,
    ExperimentInvalidError,
    ParameterError,
    SimulationDivergedError,
    ValidationError,
)
from stackmf.meanfield import (
    ConditionalLawFlow,
    evaluate_costs_limit,
    simulate_limit_pair,
    solve_conditional_law,
)
from stackmf.measures import DiscreteMeasure, w2_exact_1d, w2_exact_lp
from stackmf.rates import (
    EpsilonReport,
    GapReport,
    cost_gap_experiment,
    epsilon_nash_certify,
    eta_orthogonality_check,
    fit_slope,
    leave_one_out_check,
    predicted_exponent,
    predicted_n_slope,
    state_gap_experiment,
    synchronous_dominance_check,
    wasserstein_gap_curve,
)

ZERO_POLICIES = PolicySet(Policy("zero"), Policy("zero"))
TRACKING = PolicySet(Policy("affine", {"gain": -0.2}),
                     Policy("affine", {"gain": -0.2, "gain_lead": 0.4}))


def make_model(grid=None, family="linear_quadratic", params=None, feats=(),
               **kw):
    grid = grid or TimeGrid(-0.125, 0.5, 1.0 / 16)
    coeffs = CoefficientSet(family, params or {}, feats)
    return ModelSpec(coefficients=coeffs, grid=grid, **kw)


def no_interaction_model():
    return make_model(
        params={"a1": -0.8, "s1": 0.3, "a0": -0.5, "s0": 0.25},
        feats=("mean",),
        follower_init={"family": "normal", "params": {"scale": 0.5}})


def linear_measure_model(grid=None):
    return make_model(
        grid=grid or TimeGrid(-0.125, 1.0, 1.0 / 32),
        family="linear_in_measure",
        params={"a1": -0.8, "k1": 0.5, "s1": 0.3, "a0": -0.5, "k0": 0.4,
                "s0": 0.3, "kernel": "mean", "cost1_state": 1.0,
                "cost1_track": 0.5},
        feats=("mean",),
        follower_init={"family": "normal", "params": {"scale": 0.6}})


TWO_ATOM = DelayLaw.discrete([0.0625, 0.125], [0.5, 0.5])


class TestFitSlope:
    def test_exact_inverse_n(self):
        Ns = [8, 16, 32, 64]
        slope, stderr, r2 = fit_slope(Ns, 3.0 / np.array(Ns, float))
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_exact_inverse_sqrt(self):
        Ns = [10, 40, 160]
        slope, _, _ = fit_slope(Ns, 2.0 / np.sqrt(np.array(Ns, float)))
        assert slope == pytest.approx(-0.5, abs=1e-12)

    def test_multiplicative_noise_within_three_stderr(self):
        # slope error is t with 4 dof here, so |t| > 3 happens ~4% of the
        # time; a stderr off by 2x would push the miss count past the cap
        Ns = np.array([8, 16, 32, 64, 128, 256], float)
        misses = 0
        for trial in range(200):
            rng = np.random.default_rng(900 + trial)
            values = 2.5 * Ns ** -0.7 * np.exp(0.1 * rng.standard_normal(6))
            slope, stderr, _ = fit_slope(Ns, values)
            if abs(slope + 0.7) > 3.0 * stderr:
                misses += 1
        assert misses <= 20

    def test_guards(self):
        with pytest.raises(ValidationError):
            fit_slope([8, 16], [1.0, 0.5])
        with pytest.raises(ValidationError):
            fit_slope([8, 16, 32], [1.0, 0.0, 0.5])
        with pytest.raises(ValidationError):
            fit_slope([8, 16, 32], [1.0, -0.5, 0.25])


class TestPredictedExponent:
    def test_general_squared(self):
        expo, rate = predicted_exponent(5, 6.0, "general", "squared_state_gap")
        assert expo == pytest.approx(4.0 / 7.0, abs=1e-12)
        assert rate == "N^(-8/35)"

    def test_general_squared_fractional_q(self):
        expo, rate = predicted_exponent(1, 4.2, "general", "squared_state_gap")
        assert expo == pytest.approx(22.0 / 43.0, abs=1e-9)
        assert rate == "N^(-11/43)"

    def test_general_cost(self):
        expo, rate = predicted_exponent(3, 6.0, "general", "cost_gap")
        assert expo == pytest.approx(2.0 / 7.0, abs=1e-12)
        assert rate == "N^(-1/7)"

    def test_linear_in_measure(self):
        assert predicted_exponent(3, 2.0, "linear_in_measure",
                                  "squared_state_gap") == (1.0, "N^(-1)")
        assert predicted_exponent(3, 2.0, "linear_in_measure",
                                  "cost_gap") == (0.5, "N^(-1/2)")

    def test_discrete_cost(self):
        assert predicted_exponent(3, 5.0, "discrete_delta",
                                  "cost_gap") == (0.5, "N^(-1/4)")

    def test_degenerate_high_dimension(self):
        assert predicted_exponent(6, 6.0, "degenerate_delta",
                                  "squared_state_gap") == (1.0, "N^(-1/3)")

    def test_sigma0_control_free(self):
        expo, rate = predicted_exponent(1, 6.0, "sigma0_control_free",
                                        "squared_state_gap")
        assert expo == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert rate == "N^(-1/3)"
        expo, _ = predicted_exponent(1, 6.0, "sigma0_control_free", "cost_gap")
        assert expo == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_log_factor_at_dimension_four(self):
        _, rate = predicted_exponent(4, 6.0, "degenerate_delta",
                                     "squared_state_gap")
        assert "log(N)" in rate

    def test_n_slope(self):
        assert predicted_n_slope(1, 6.0, "linear_in_measure",
                                 "squared_state_gap") == -1.0
        assert predicted_n_slope(1, 6.0, "degenerate_delta",
                                 "squared_state_gap") == -0.5
        assert predicted_n_slope(6, 6.0, "degenerate_delta",
                                 "squared_state_gap") == pytest.approx(-1 / 3)

    def test_guards(self):
        with pytest.raises(ParameterError):
            predicted_exponent(3, 3.0, "general", "cost_gap")
        with pytest.raises(ParameterError):
            predicted_exponent(3, 6.0, "no_such_regime", "cost_gap")
        with pytest.raises(ParameterError):
            predicted_exponent(3, 6.0, "general", "no_such_quantity")
        with pytest.raises(ParameterError):
            predicted_exponent(0, 6.0, "general", "cost_gap")


class TestStateGapExperiment:
    def test_argument_guards(self):
        model = no_interaction_model()
        law = DelayLaw.degenerate(0.125)
        with pytest.raises(ValidationError):
            state_gap_experiment(model, ZERO_POLICIES, law, [8, 8, 16],
                                 50, 128, 0)
        with pytest.raises(ValidationError):
            state_gap_experiment(model, ZERO_POLICIES, law, [2, 8, 16],
                                 50, 128, 0)
        with pytest.raises(ValidationError):
            state_gap_experiment(model, ZERO_POLICIES, law, [4, 8, 16],
                                 10, 128, 0)

    @pytest.mark.parametrize("Ns, kw, error", [
        ([4, 8], {}, ValidationError),
        ([4, 8, 16], {"regime": "general"}, ParameterError),
    ])
    def test_fails_before_any_replication(self, monkeypatch, Ns, kw, error):
        # two sizes cannot be fitted, and q = 3 has no general exponent
        def no_replications(*args, **kwargs):
            raise AssertionError("replications ran")
        monkeypatch.setattr(rates, "_replicate", no_replications)
        model = make_model(q=3.0)
        for fn in (state_gap_experiment, wasserstein_gap_curve,
                   cost_gap_experiment):
            with pytest.raises(error):
                fn(model, ZERO_POLICIES, DelayLaw.degenerate(0.125), Ns,
                   50, 128, 0, **kw)

    def test_no_interaction_gaps_zero_slope_undefined(self):
        rep = state_gap_experiment(
            no_interaction_model(), ZERO_POLICIES, DelayLaw.degenerate(0.125),
            [4, 8, 16], 50, 128, 7)
        assert rep.curves["squared_state_gap"][0] == (0.0, 0.0, 0.0)
        assert rep.curves["leader_sq_gap"][0] == (0.0, 0.0, 0.0)
        assert rep.slope is None
        assert rep.verdict == "undefined"
        # measures never coincide exactly, so the W2 term stays positive
        assert all(v > 0 for v in rep.curves["w2_time_integral"][0])

    def test_nonconvergent_fixed_point_invalidates(self):
        model = make_model(
            params={"a1": 0.4, "k1": 3.0, "s1": 0.3},
            feats=("mean",),
            follower_init={"family": "normal", "params": {"scale": 0.5}})
        with pytest.raises(ExperimentInvalidError):
            state_gap_experiment(
                model, ZERO_POLICIES, DelayLaw.degenerate(0.125),
                [4, 8, 16], 50, 128, 0, tol=1e-12, max_iter=1)

    def test_linear_in_measure_slope_near_inverse_n(self):
        rep = state_gap_experiment(
            linear_measure_model(), TRACKING, TWO_ATOM, [8, 16, 32],
            50, 512, 3, regime="linear_in_measure", slope_tol=0.45)
        assert rep.verdict == "pass"
        assert -1.5 < rep.slope < -0.7
        assert rep.predicted_slope == -1.0
        assert rep.predicted_rate == "N^(-1)"
        assert rep.fixed_point_failures == 0

    def test_thread_count_does_not_change_numbers(self):
        model = no_interaction_model()
        law = DelayLaw.degenerate(0.125)
        a = state_gap_experiment(model, ZERO_POLICIES, law, [4, 8, 16],
                                 50, 128, 7, threads=1)
        b = state_gap_experiment(model, ZERO_POLICIES, law, [4, 8, 16],
                                 50, 128, 7, threads=4)
        assert a.curves == b.curves
        assert a.slope == b.slope

    def test_uniform_delay_balanced_partition(self):
        rep = state_gap_experiment(
            linear_measure_model(), TRACKING, DelayLaw.uniform(0.0625, 0.125),
            [4, 8, 16], 50, 128, 3, regime="general")
        assert rep.fixed_point_failures == 0
        assert all(np.isfinite(v) for v in rep.curves["squared_state_gap"][0])
        assert rep.slope < 0


class TestWassersteinGapCurve:
    def test_minimum_population_is_two(self):
        model = no_interaction_model()
        with pytest.raises(ValidationError):
            wasserstein_gap_curve(model, ZERO_POLICIES,
                                  DelayLaw.degenerate(0.125),
                                  [1, 2, 4], 50, 128, 0)

    def test_single_follower_matches_dirac_closed_form(self):
        # at N = 2 the empirical side is a Dirac, so W2^2 against the flow
        # has the closed form |x|^2 - 2 x m1 + m2 in the flow moments
        grid = TimeGrid(-0.125, 0.25, 1.0 / 32)
        model = make_model(
            grid=grid,
            params={"a1": -0.8, "s1": 0.3, "a0": -0.5, "s0": 0.25},
            feats=("mean",),
            follower_init={"family": "normal", "params": {"scale": 0.5}})
        law = DelayLaw.degenerate(0.125)
        seed, reps, K = 21, 50, 256
        rep = wasserstein_gap_curve(model, ZERO_POLICIES, law, [2, 4, 8],
                                    reps, K, seed)
        expected = 0.0
        for r in range(reps):
            ent = child_entropy(seed, REPLICATION, r)
            noise = SharedNoise(ent)
            flow, _ = solve_conditional_law(
                model, ZERO_POLICIES, [(0.125, 1.0)], ent, K)
            delays = sample_delays(law, 7, noise)[:1]
            _, x1 = simulate_limit_pair(model, ZERO_POLICIES, flow, noise,
                                        delays)
            total = 0.0
            for k in range(grid.forward_steps):
                pts = flow.particles[0, :, k, 0]
                m1 = pts.mean()
                m2 = float(np.mean(pts * pts))
                x = float(x1[0, k, 0])
                total += (x * x - 2.0 * x * m1 + m2) * grid.h
            expected += total / reps
        assert rep.curves["w2_time_integral"][0][0] == pytest.approx(
            expected, abs=1e-9)

    def test_degenerate_heavy_tail_slope(self):
        # empirical-measure decay of a law with barely more than 4 moments
        grid = TimeGrid(-0.125, 0.25, 1.0 / 64)
        model = make_model(
            grid=grid, family="smooth_nonlinear",
            params={"a1": -0.3, "b1": 0.5, "k1": 0.4, "s1": 0.05,
                    "s1_x": 0.15, "t1": 0.1, "a0": -0.5, "b0": 0.4,
                    "s0": 0.35},
            feats=("mean",), q=4.1,
            leader_init={"family": "ou_path",
                         "params": {"theta": 1.0, "vol": 0.4}},
            follower_init={"family": "student_t",
                           "params": {"df": 4.2, "scale": 0.5}})
        pols = PolicySet(Policy("affine", {"gain": -0.3}),
                         Policy("affine", {"gain": -0.1, "gain_lead": 0.6}))
        rep = wasserstein_gap_curve(
            model, pols, DelayLaw.degenerate(0.125), [8, 16, 32, 64, 128],
            100, 1024, 11, regime="degenerate_delta", slope_tol=0.15)
        assert rep.verdict == "pass"
        assert abs(rep.slope + 0.5) <= 0.15


class TestCostGapExperiment:
    def test_zero_costs_zero_gaps(self):
        rep = cost_gap_experiment(
            no_interaction_model(), ZERO_POLICIES, DelayLaw.degenerate(0.125),
            [4, 8, 16], 50, 128, 7)
        assert rep.curves["cost_gap"][0] == (0.0, 0.0, 0.0)
        assert rep.curves["leader_cost_gap"][0] == (0.0, 0.0, 0.0)
        assert rep.verdict == "undefined"

    def test_linear_in_measure_cost_slope(self):
        rep = cost_gap_experiment(
            linear_measure_model(), TRACKING, TWO_ATOM, [8, 16, 32],
            50, 512, 3, regime="linear_in_measure")
        assert rep.verdict == "pass"
        assert abs(rep.slope + 0.5) <= 0.25
        assert rep.predicted_rate == "N^(-1/2)"


class TestStreamBudget:
    def test_cost_gap_derives_each_follower_stream_once(self, monkeypatch):
        # per replication: one stream per follower role, drawn once for
        # max(Ns) followers, plus a fixed set of leader and Picard streams;
        # nothing is derived per N or per follower
        calls = collections.defaultdict(collections.Counter)
        real = _rng.generator

        def counting(entropy, *key):
            calls[entropy][key] += 1
            return real(entropy, *key)

        monkeypatch.setattr(_rng, "generator", counting)
        monkeypatch.setattr(dynamics, "generator", counting)
        model = linear_measure_model(grid=TimeGrid(-0.125, 0.25, 1.0 / 16))
        totals = []
        for Ns in ([4, 8, 16], [4, 8, 16, 32, 64]):
            calls.clear()
            cost_gap_experiment(model, TRACKING, TWO_ATOM, Ns, 50, 128, 3)
            assert len(calls) == 50
            for keys in calls.values():
                for tag in (_rng.FOLLOWER_INIT, _rng.FOLLOWER_NOISE,
                            _rng.DELAY):
                    assert keys[(tag,)] == 1
            totals.append({sum(keys.values()) for keys in calls.values()})
        assert len(totals[0]) == 1 and totals[0] == totals[1]


def _step_by_step(a, b, wb, h, m):
    """Rectangle rule with one measure pair per step, w2_exact_1d at n1 = 1
    and w2_exact_lp above: the reference the sliced route must match bit
    for bit."""
    total = 0.0
    for k in range(m):
        mu = DiscreteMeasure(a[:, k, :], np.full(a.shape[0], 1.0 / a.shape[0]))
        nu = DiscreteMeasure(b[:, k, :], wb)
        val = w2_exact_1d(mu, nu) if a.shape[2] == 1 else w2_exact_lp(mu, nu)[0]
        total += val * val * h
    return total


class TestW2TimeIntegral:
    grid = TimeGrid(-0.125, 0.5, 1.0 / 16)

    def flow(self, weights, K=40, seed=3):
        rng = np.random.default_rng(seed)
        m = self.grid.forward_steps
        atoms = [0.0625, 0.125][:len(weights)]
        return ConditionalLawFlow(
            grid=self.grid, atoms=np.array(atoms), weights=np.array(weights),
            particles=rng.standard_normal((len(atoms), K, m + 1, 1)),
            leader_path=np.zeros((m + 1, 1)), leader_seed=0, features={})

    @pytest.mark.parametrize("weights, cap, uniform", [
        ([1.0], 512, True),            # 1/K weights, exactly uniform
        ([0.5, 0.5], 64, True),        # subsampled to the cap
        ([0.3, 0.7], 512, False),      # weighted support, per step
    ])
    def test_equals_per_step_loop(self, monkeypatch, weights, cap, uniform):
        flow = self.flow(weights)
        paths = np.random.default_rng(9).standard_normal(
            (12, self.grid.forward_steps + 1, 1))
        paths[3] = paths[5]                              # a tie
        calls = []
        core = measures._w2sq_uniform_1d
        monkeypatch.setattr(measures, "_w2sq_uniform_1d",
                            lambda *a: calls.append(1) or core(*a))
        got = rates._w2_time_integral(paths, flow,
                                      np.random.default_rng(4), cap)
        assert len(calls) == int(uniform)      # one call for all steps
        zflat, zw = rates._flow_support(flow, cap, np.random.default_rng(4))
        ref = _step_by_step(paths, zflat, zw, self.grid.h,
                            self.grid.forward_steps)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()

    @pytest.mark.parametrize("n1", [1, 2])
    @pytest.mark.parametrize("uniform", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_integral_equals_per_step_oracle(self, monkeypatch, n1, uniform,
                                             seed):
        rng = np.random.default_rng(seed)
        m, P, n = 9, 7, 6 + seed
        a = rng.standard_normal((P, m + 1, n1))
        b = np.round(rng.standard_normal((n, m + 1, n1)), 1)    # ties
        a[2] = a[4]
        wb = np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n))

        def no_measure(*args):
            raise AssertionError("DiscreteMeasure built at n1 = 1")
        if n1 == 1:
            monkeypatch.setattr(measures, "DiscreteMeasure", no_measure)
        got = measures._w2sq_integral(a, b, wb, 0.125, m)
        monkeypatch.undo()
        ref = _step_by_step(a, b, wb, 0.125, m)
        assert np.float64(got).tobytes() == np.float64(ref).tobytes()

    def test_non_finite_path_raises(self):
        paths = np.zeros((6, self.grid.forward_steps + 1, 1))
        paths[2, 3, 0] = np.nan
        for weights in ([1.0], [0.3, 0.7]):
            with pytest.raises(ValidationError, match="non-finite"):
                rates._w2_time_integral(paths, self.flow(weights),
                                        np.random.default_rng(0))
        with pytest.raises(ValidationError, match="non-finite"):
            synchronous_dominance_check(self.grid, paths, np.zeros_like(paths))

    def test_synchronous_dominance_equals_per_step_loop(self):
        rng = np.random.default_rng(11)
        y, x = rng.standard_normal((2, 9, self.grid.forward_steps + 1, 1))
        lhs, _ = synchronous_dominance_check(self.grid, y, x)
        ref = _step_by_step(y, x, np.full(9, 1.0 / 9), self.grid.h,
                            self.grid.forward_steps)
        assert np.float64(lhs).tobytes() == np.float64(ref).tobytes()


class TestCouplingProperties:
    def test_synchronous_dominance_each_replication(self):
        model = linear_measure_model(grid=TimeGrid(-0.125, 0.5, 1.0 / 16))
        law = TWO_ATOM
        for r in range(20):
            ent = child_entropy(404, REPLICATION, r)
            noise = SharedNoise(ent)
            flow, _ = solve_conditional_law(
                model, TRACKING, [(0.0625, 0.5), (0.125, 0.5)], ent, 256)
            bundle = simulate_nplayer(model, TRACKING, 8, law, noise)
            _, x1 = simulate_limit_pair(model, TRACKING, flow, noise,
                                        bundle.delays)
            lhs, rhs = synchronous_dominance_check(
                model.grid, bundle.follower_paths[1:], x1[1:])
            assert lhs <= rhs + 1e-10

    def test_leave_one_out_bound_each_replication(self):
        model = linear_measure_model(grid=TimeGrid(-0.125, 0.5, 1.0 / 16))
        for r in range(20):
            ent = child_entropy(405, REPLICATION, r)
            bundle = simulate_nplayer(model, TRACKING, 8, TWO_ATOM, ent)
            pts = bundle.follower_paths[:, -1, :]
            lhs, rhs = leave_one_out_check(pts, i=0)
            assert lhs <= rhs + 1e-10


def nash_model(grid=None):
    # control enters the cost only, so cost differences are exact
    return make_model(
        grid=grid or TimeGrid(-0.125, 0.5, 1.0 / 16),
        params={"a1": -0.8, "s1": 0.3, "cost1_control": 1.0,
                "cost0_control": 1.0},
        feats=("mean",),
        follower_init={"family": "normal", "params": {"scale": 0.5}})


class TestEpsilonNashCertify:
    LAW = DelayLaw.degenerate(0.125)

    def test_self_library_epsilon_zero(self):
        rep = epsilon_nash_certify(nash_model(), ZERO_POLICIES,
                                   [ZERO_POLICIES], 8, 20, 11,
                                   delay_law=self.LAW)
        assert rep.epsilon_hat == 0.0
        assert rep.follower_gains == (0.0,)
        assert rep.common_random_numbers

    def test_constant_deviation_loses_exactly_c_squared_T(self):
        model = nash_model()
        c = 0.7
        dev = PolicySet(Policy("zero"), Policy("constant", {"value": c}))
        rep = epsilon_nash_certify(model, ZERO_POLICIES, [dev], 16, 30, 11,
                                   delay_law=self.LAW, kappa=5.0)
        expected = c * c * model.grid.T
        assert rep.epsilon_hat == 0.0
        assert rep.follower_gains[0] == pytest.approx(-expected, abs=1e-12)
        assert rep.follower_gain_stderrs[0] <= 1e-12
        # reverse comparison: the profile beats the deviation by c^2 T
        assert rep.follower_costs[0] - rep.profile_follower_cost \
            == pytest.approx(expected, abs=1e-12)

    def test_tiny_perturbation_within_noise_floor(self):
        dev = PolicySet(Policy("zero"), Policy("constant", {"value": 1e-6}))
        rep = epsilon_nash_certify(nash_model(), ZERO_POLICIES, [dev], 8, 20,
                                   11, delay_law=self.LAW)
        assert rep.epsilon_hat <= 1e-10

    def test_leader_deviation_certified_separately(self):
        model = nash_model()
        dev = PolicySet(Policy("constant", {"value": 0.5}), Policy("zero"))
        rep = epsilon_nash_certify(model, ZERO_POLICIES, [dev], 8, 20, 11,
                                   delay_law=self.LAW, gamma=5.0)
        assert rep.epsilon2_hat == 0.0
        assert rep.leader_gains[0] == pytest.approx(
            -0.25 * model.grid.T, abs=1e-12)
        assert rep.follower_gains == ()

    def test_norm_cap_violation_names_deviation(self):
        dev = PolicySet(Policy("zero"), Policy("constant", {"value": 0.7}))
        with pytest.raises(ExperimentInvalidError, match="deviation 0"):
            epsilon_nash_certify(nash_model(), ZERO_POLICIES, [dev], 16, 5,
                                 11, delay_law=self.LAW, kappa=0.2)
        lead = PolicySet(Policy("constant", {"value": 0.7}), Policy("zero"))
        with pytest.raises(ExperimentInvalidError, match="deviation 0"):
            epsilon_nash_certify(nash_model(), ZERO_POLICIES, [lead], 16, 5,
                                 11, delay_law=self.LAW, gamma=0.2)

    def test_library_guards(self):
        both = PolicySet(Policy("constant", {"value": 0.1}),
                         Policy("constant", {"value": 0.1}))
        with pytest.raises(ValidationError):
            epsilon_nash_certify(nash_model(), ZERO_POLICIES, [both], 8, 5,
                                 11, delay_law=self.LAW)
        with pytest.raises(ValidationError):
            epsilon_nash_certify(nash_model(), ZERO_POLICIES, [], 8, 5, 11,
                                 delay_law=self.LAW)
        with pytest.raises(ValidationError):
            epsilon_nash_certify(nash_model(), ZERO_POLICIES, [ZERO_POLICIES],
                                 128, 5, 11, delay_law=self.LAW)


class TestEtaOrthogonality:
    def test_requires_linear_in_measure(self):
        with pytest.raises(ParameterError):
            eta_orthogonality_check(no_interaction_model(), ZERO_POLICIES,
                                    TWO_ATOM, 16, 10, 2, 128, 0)

    def test_ratio_near_one_small_scale(self):
        model = make_model(
            grid=TimeGrid(-0.125, 0.5, 1.0 / 16),
            family="linear_in_measure",
            params={"a1": -0.8, "k1": 0.5, "s1": 0.3, "a0": -0.5, "s0": 0.3,
                    "kernel": "tanh_mean"},
            feats=("tanh_mean",),
            follower_init={"family": "normal", "params": {"scale": 0.6}})
        pols = PolicySet(Policy("affine", {"gain": -0.2}),
                         Policy("affine", {"gain": -0.2, "gain_lead": 0.4}))
        rep = eta_orthogonality_check(model, pols, TWO_ATOM, 16, 200, 5,
                                      256, 5)
        assert 0.6 < rep.ratio < 1.4
        assert rep.lhs > 0 and rep.rhs > 0


class TestGapReportInvariants:
    def test_negative_gap_rejected(self):
        with pytest.raises(ValidationError):
            GapReport(scenario="x", quantity="g", Ns=(4, 8), reps=50,
                      curves={"g": ((1.0, -0.1), (0.0, 0.0))},
                      slope=None, slope_stderr=None, r2=None,
                      predicted_slope=None, predicted_rate=None,
                      verdict="undefined")

    def test_missing_quantity_rejected(self):
        with pytest.raises(ValidationError):
            GapReport(scenario="x", quantity="g", Ns=(4, 8), reps=50,
                      curves={"other": ((1.0, 0.5), (0.0, 0.0))},
                      slope=None, slope_stderr=None, r2=None,
                      predicted_slope=None, predicted_rate=None,
                      verdict="undefined")

    def test_epsilon_report_nonnegative(self):
        with pytest.raises(ValidationError):
            EpsilonReport(
                scenario="x", N=8, reps=5, profile_leader_cost=0.0,
                profile_follower_cost=0.0, follower_costs=(),
                follower_gains=(), follower_gain_stderrs=(),
                epsilon_hat=-0.5, leader_costs=(), leader_gains=(),
                leader_gain_stderrs=(), epsilon2_hat=0.0)


# ---------------------------------------------------------------------------
# the blocked driver against a per-replication reference loop

_KIND_PRESETS = {"state_gap": "two-atom-delay-n1-1",
                 "wasserstein_gap": "degenerate-delay-n1-1",
                 "cost_gap": "linear-in-measure-cost-n1-1"}
_CURVES = {"state_gap": ("leader_sq_gap", "follower_sq_gap",
                         "squared_state_gap", "w2_time_integral"),
           "wasserstein_gap": ("w2_time_integral",),
           "cost_gap": ("cost_gap", "leader_cost_gap")}


def _small_gap_config(kind, Ns, reps, seed, law, params=None, **fields):
    from stackmf.cli import presets
    base = presets()[_KIND_PRESETS[kind]]
    model = dict(base.model, T=0.25)
    if params:
        model["params"] = dict(base.model["params"], **params)
    return dataclasses.replace(
        base, name=f"small-{kind}", Ns=Ns, reps=reps, K=100, seed=seed,
        delay_law=law, model=model, regime=None, rate_assertions=False,
        extras={}, **fields)


def _reference_curves(kind, model, pols, law, Ns, reps, K, seed, tol):
    """The gap curves from single-replication calls, one replication and
    one N at a time, in the order of a serial loop."""
    rows = []
    for r in range(reps):
        ent = child_entropy(seed, REPLICATION, r)
        noise = SharedNoise(ent)
        draws = Draws.sample(model, law, noise, Ns[-1])
        flows, row = {}, []
        for N in Ns:
            key = rates._partition_for(law, model, N, "auto")
            if key not in flows:
                flows[key] = solve_conditional_law(
                    model, pols, key, ent, K, tol=tol, draws=draws)[0]
            flow = flows[key]
            if kind == "wasserstein_gap":
                d = draws.head(N - 1)
                _, x1 = simulate_limit_pair(model, pols, flow, noise,
                                            d.delays, d)
                row.append((rates._w2_time_integral(
                    x1, flow, noise.subsample()),))
                continue
            d = draws.head(N)
            b = simulate_nplayer(model, pols, N, law, noise, d)
            x0, x1 = simulate_limit_pair(model, pols, flow, noise, b.delays, d)
            if kind == "cost_gap":
                j0n, jin = evaluate_costs_nplayer(b, model, pols)
                j0l, jil = evaluate_costs_limit(model, pols, flow, x0, x1,
                                                b.delays)
                row.append((float(np.mean(np.abs(np.array(jin)
                                                 - np.array(jil)))),
                            abs(j0n - j0l)))
            else:
                lead = float(rates._sup_sq_gap(b.leader_path, x0))
                fol = rates._atom_sup_mean(
                    rates._sup_sq_gap(b.follower_paths, x1), b.delays)
                row.append((lead, fol, lead + fol, rates._w2_time_integral(
                    x1[1:], flow, noise.subsample())))
        rows.append(row)
    arr = np.asarray(rows)                         # (reps, nN, curves)
    return {name: rates._aggregate(arr[:, :, i])
            for i, name in enumerate(_CURVES[kind])}


_LAWS = [{"family": "degenerate", "a": 0.125},
         {"family": "discrete", "atoms": [0.0625, 0.125], "weights": [0.5, 0.5]},
         {"family": "uniform", "lo": 0.0, "hi": 0.125}]


class TestBlockedDriverContract:
    @pytest.mark.parametrize("kind", sorted(_KIND_PRESETS))
    @settings(max_examples=2, deadline=None)
    @given(data=st.data())
    def test_threads_and_serial_reference(self, kind, data):
        from stackmf.cli import build_objects, run_experiment
        floor = 2 if kind == "wasserstein_gap" else 4
        Ns = sorted(data.draw(st.sets(st.integers(floor, 11), min_size=3,
                                      max_size=3), label="Ns"))
        reps = data.draw(st.sampled_from([50, 53]), label="reps")
        assert reps % rates._BLOCK     # the last block is partial
        cfg = _small_gap_config(
            kind, Ns, reps, data.draw(st.integers(0, 2 ** 20), label="seed"),
            data.draw(st.sampled_from(_LAWS), label="law"))
        with tempfile.TemporaryDirectory() as tmp:
            out = {}
            for threads in (1, 2):
                d = Path(tmp, str(threads))
                assert run_experiment(cfg, threads=threads, out_dir=d,
                                      stream=io.StringIO()) == 0
                out[threads] = [(d / f).read_bytes() for f in
                                ("results.csv", "report.json", "manifest.json")]
            assert out[1] == out[2]
            curves = json.loads(out[1][1])["report"]["curves"]
        model, pols, law = build_objects(cfg)
        ref = _reference_curves(kind, model, pols, law, cfg.Ns, reps, cfg.K,
                                cfg.seed, cfg.tol)
        assert curves == {k: [list(m), list(s)] for k, (m, s) in ref.items()}


class TestProcessDriver:
    """`_run_replications` over forked workers; `_usable_cpus` is pinned
    to 2 so the pool runs on any box."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)

    def test_results_in_index_order_from_workers(self):
        out = _pool._run_replications(lambda i: (i, os.getpid()), 6, 2)
        assert [i for i, _ in out] == list(range(6))
        assert os.getpid() not in {pid for _, pid in out}

    def test_first_error_by_index(self):
        def unit(i):
            if i == 1:
                time.sleep(0.5)     # unit 3 fails first in time
                raise SimulationDivergedError(1, "unit 1")
            if i == 3:
                raise ConfigError(["unit 3"])
            return i

        with pytest.raises(SimulationDivergedError) as got:
            _pool._run_replications(unit, 6, 2)
        assert (got.value.step, str(got.value)) == (1, "unit 1")

    def test_dead_worker_raises_broken_pool(self):
        from concurrent.futures.process import BrokenProcessPool
        raised = []

        def call():
            try:
                _pool._run_replications(
                    lambda i: os._exit(1) if i == 2 else i, 6, 2)
            except BaseException as exc:
                raised.append(exc)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(60)
        assert not caller.is_alive(), "the driver hangs on a dead worker"
        assert len(raised) == 1 and isinstance(raised[0], BrokenProcessPool)

    def test_workers_capped_by_units_and_cpus(self, monkeypatch):
        import concurrent.futures
        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                sizes.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recording)
        assert _pool._run_replications(lambda i: i, 3, 8) == [0, 1, 2]
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 3)
        assert _pool._run_replications(lambda i: i, 6, 8) == list(range(6))
        assert _pool._run_replications(lambda i: i, 2, 8) == [0, 1]
        assert sizes == [2, 3, 2]
        assert _pool._unit_fn is None     # set in the workers only


class TestDivergenceOrder:
    @pytest.mark.parametrize("seed, params, fields", [
        # an explosive follower drift: the Picard solve of replication 0
        # overflows at forward step 3
        (3, {"a1": 2.0e78, "s1": 3.0}, {}),
        # a leader pulled hard by the follower mean overflows only where
        # the empirical mean of a few followers is large: first in the
        # N-player game of replication 9 (the second block), at step 7
        (1, {"kernel": "mean", "k0": 1.0e294, "a0": 3168.0},
         {"follower_init": {"family": "normal", "params": {"scale": 3.0}}}),
    ])
    def test_same_error_as_the_serial_reference(self, tmp_path, seed, params,
                                                fields):
        from stackmf.cli import build_objects, run_experiment
        cfg = _small_gap_config("cost_gap", [4, 6, 8], 50, seed, _LAWS[1],
                                params=params, **fields)
        model, pols, law = build_objects(cfg)
        with pytest.raises(SimulationDivergedError) as ref:
            _reference_curves("cost_gap", model, pols, law, cfg.Ns, cfg.reps,
                              cfg.K, cfg.seed, cfg.tol)
        with pytest.raises(SimulationDivergedError) as got:
            cost_gap_experiment(model, pols, law, cfg.Ns, cfg.reps, cfg.K,
                                cfg.seed, tol=cfg.tol)
        assert (got.value.step, str(got.value)) == (ref.value.step,
                                                    str(ref.value))
        assert run_experiment(cfg, out_dir=tmp_path, stream=io.StringIO()) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report == {"name": cfg.name, "kind": "cost_gap",
                          "status": "invalid",
                          "error_type": "SimulationDivergedError",
                          "reason": str(ref.value)}

    def test_earliest_replication_then_earliest_stage(self, monkeypatch):
        # stand-ins that diverge on chosen (replication, stage) pairs, so
        # the batched order of stages differs from the serial one
        model = no_interaction_model()
        ents = [child_entropy(21, REPLICATION, r) for r in range(50)]
        bad = {("nplayer", ents[5], 8), ("twin", ents[3], 16),
               ("nplayer", ents[3], 16), ("picard", ents[11], None)}

        def check(stage, noises, n):
            for noise in noises if isinstance(noises, list) else [noises]:
                for tag, ent, at in bad:
                    if (tag, ent) == (stage, noise.entropy) \
                            and (at is None or n >= at):
                        raise SimulationDivergedError(
                            0, f"{stage} of replication {ents.index(ent)}")

        real_np, real_twin = rates.simulate_nplayer, rates.simulate_limit_pair
        real_solve = rates.solve_conditional_law

        def nplayer(model, pols, N, law, noises, draws):
            check("nplayer", noises, N)
            return real_np(model, pols, N, law, noises, draws)

        def twin(model, pols, flows, noises, delays, draws):
            check("twin", noises, draws.N)
            return real_twin(model, pols, flows, noises, delays, draws)

        def solve(model, pols, key, ent, *args, **kwargs):
            check("picard", SharedNoise(ent), None)
            return real_solve(model, pols, key, ent, *args, **kwargs)

        monkeypatch.setattr(rates, "simulate_nplayer", nplayer)
        monkeypatch.setattr(rates, "simulate_limit_pair", twin)
        monkeypatch.setattr(rates, "solve_conditional_law", solve)
        with pytest.raises(SimulationDivergedError,
                           match="^nplayer of replication 3$"):
            state_gap_experiment(model, ZERO_POLICIES, TWO_ATOM, [4, 8, 16],
                                 50, 100, 21, threads=2)

    def test_epsilon_nash_earliest_replication_then_earliest_arm(
            self, monkeypatch):
        # a stand-in that diverges on chosen (replication, arm) pairs: the
        # block of replications 0-7 steps arm 0 of replication 5 before arm
        # 2 of replication 3, a serial loop the other way round
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)
        ents = [child_entropy(21, REPLICATION, r) for r in range(16)]
        bad = {(ents[5], 0), (ents[3], 2), (ents[9], 0)}
        arms = []
        real = rates.simulate_nplayer

        def nplayer(model, pols, N, law, noises, draws):
            if pols not in arms:
                arms.append(pols)
            for noise in noises:
                if (noise.entropy, arms.index(pols)) in bad:
                    raise SimulationDivergedError(
                        0, f"replication {ents.index(noise.entropy)}")
            return real(model, pols, N, law, noises, draws)

        monkeypatch.setattr(rates, "simulate_nplayer", nplayer)
        library = [
            PolicySet(Policy("zero"), Policy("constant", {"value": 0.7})),
            PolicySet(Policy("constant", {"value": 0.5}), Policy("zero"))]
        for threads in (1, 2):
            with pytest.raises(SimulationDivergedError,
                               match="^replication 3$"):
                epsilon_nash_certify(nash_model(), ZERO_POLICIES, library, 8,
                                     16, 21, delay_law=TWO_ATOM,
                                     threads=threads)


class TestOneDriverForEveryKind:
    """epsilon-Nash and the eta check write the same bytes with one and two
    worker processes; `_usable_cpus` is pinned to 2 so the pool runs on any
    box."""

    @staticmethod
    def _run_both(cfg):
        from stackmf.cli import run_experiment
        with tempfile.TemporaryDirectory() as tmp:
            out = {}
            for threads in (1, 2):
                d = Path(tmp, str(threads))
                assert run_experiment(cfg, threads=threads, out_dir=d,
                                      stream=io.StringIO()) == 0
                out[threads] = [(d / f).read_bytes() for f in
                                ("results.csv", "report.json", "manifest.json")]
        assert out[1] == out[2]

    @settings(max_examples=6, deadline=None)
    @given(N=st.integers(2, 12), reps=st.sampled_from([9, 13, 19]),
           seed=st.integers(0, 2 ** 20))
    def test_epsilon_nash_one_and_two_workers(self, N, reps, seed):
        from stackmf.cli import presets
        assert reps % rates._BLOCK     # the last block is partial
        cfg = dataclasses.replace(presets()["epsilon-nash-n16"], Ns=[N],
                                  reps=reps, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "_usable_cpus", lambda: 2)
            self._run_both(cfg)

    @settings(max_examples=4, deadline=None)
    @given(N=st.integers(2, 12), paths=st.integers(2, 3),
           panels=st.integers(2, 20), seed=st.integers(0, 2 ** 20))
    def test_eta_one_and_two_workers(self, N, paths, panels, seed):
        from stackmf.cli import presets
        base = presets()["eta-orthogonality-n64"]
        cfg = dataclasses.replace(
            base, Ns=[N], K=100, seed=seed, model=dict(base.model, T=0.25),
            extras={"panels": panels, "leader_paths": paths})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_pool, "_usable_cpus", lambda: 2)
            self._run_both(cfg)
