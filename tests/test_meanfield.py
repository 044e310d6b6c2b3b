"""Conditional-law flow solver, delay partitions, limit-pair coupling."""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackmf import _rng, meanfield
from stackmf._rng import SharedNoise
from stackmf.dynamics import (
    CoefficientSet,
    DelayLaw,
    Draws,
    ModelSpec,
    Policy,
    PolicySet,
    TimeGrid,
    simulate_nplayer,
)
from stackmf.errors import (
    DimensionError,
    ParameterError,
    SimulationDivergedError,
    ValidationError,
)
from stackmf.meanfield import (
    ConditionalLawFlow,
    balanced_partition_level,
    evaluate_costs_limit,
    holder_exponent_estimate,
    partition_delay_law,
    simulate_limit_pair,
    solve_conditional_law,
)
from stackmf.measures import (DiscreteMeasure, _w2_or_inf, moment, w2_exact_1d,
                              w2_exact_lp)

ZERO_POLICIES = PolicySet(Policy("zero"), Policy("zero"))


def measure_at(flow, time_index, atom):
    """Uniform K-point law of delay atom `atom` at grid time index."""
    return DiscreteMeasure(flow.particles[atom, :, time_index, :],
                           np.full(flow.K, 1.0 / flow.K))


def mixture_at(flow, time_index):
    """Atom-weighted mixture of the per-atom laws at grid time index."""
    parts = flow.particles
    w = np.repeat(flow.weights / flow.K, flow.K)
    return DiscreteMeasure(parts[:, :, time_index, :].reshape(-1, parts.shape[3]),
                           w / w.sum())


def make_model(grid=None, family="linear_quadratic", params=None, feats=(),
               **kw):
    grid = grid or TimeGrid(-0.125, 0.5, 1.0 / 16)
    coeffs = CoefficientSet(family, params or {}, feats)
    return ModelSpec(coefficients=coeffs, grid=grid, **kw)


class TestPartitionDelayLaw:
    def test_degenerate_single_atom(self):
        assert partition_delay_law(DelayLaw.degenerate(0.2), 7) == [(0.2, 1.0)]

    def test_uniform_level_four(self):
        parts = partition_delay_law(DelayLaw.uniform(0.0, 1.0), 4)
        atoms = [a for a, _ in parts]
        weights = [w for _, w in parts]
        assert atoms == pytest.approx([0.0, 0.25, 0.5, 0.75], abs=1e-15)
        assert weights == pytest.approx([0.25] * 4, abs=1e-15)

    def test_discrete_atoms_on_boundaries_exact(self):
        law = DelayLaw.discrete([0.0, 0.5], [0.3, 0.7], bounds=(0.0, 1.0))
        parts = partition_delay_law(law, 2)
        assert parts == [(0.0, pytest.approx(0.3)), (0.5, pytest.approx(0.7))]

    def test_weights_sum_to_one(self):
        law = DelayLaw.uniform(0.1, 0.45)
        for n in (1, 3, 5, 8):
            parts = partition_delay_law(law, n)
            assert sum(w for _, w in parts) == pytest.approx(1.0, abs=1e-12)

    def test_level_must_be_positive(self):
        with pytest.raises(ParameterError):
            partition_delay_law(DelayLaw.uniform(0, 1), 0)


class TestBalancedPartitionLevel:
    def test_frozen_example(self):
        # f(100) = 0.1, exponent 6/7, ceil(0.1^(-6/7)) = ceil(7.197) = 8
        assert balanced_partition_level(1, 6.0, 101) == 8

    def test_monotone_in_N(self):
        levels = [balanced_partition_level(1, 6.0, N) for N in (8, 32, 128, 512)]
        assert all(a <= b for a, b in zip(levels, levels[1:]))

    def test_q_guard(self):
        with pytest.raises(ParameterError):
            balanced_partition_level(1, 4.0, 100)

    def test_clamped(self):
        assert balanced_partition_level(1, 4.01, 10 ** 9) <= 10_000
        assert balanced_partition_level(1, 6.0, 2) >= 1


class TestSolveConditionalLaw:
    def test_no_z_dependence_converges_in_one_iteration(self):
        model = make_model(params={"a1": -0.5, "s1": 0.3},
                           follower_init={"family": "normal", "params": {}})
        flow, report = solve_conditional_law(
            model, ZERO_POLICIES, [(0.125, 1.0)], leader_noise_seed=3, K=100)
        assert report.converged
        assert report.iterations == 1
        assert report.discrepancies[-1] <= 1e-12

    def test_brownian_second_moment(self):
        # g1 = 0, sigma1 = 1, xi1 = 0: per-atom law at t is Brownian,
        # second moment = t within 10% at K = 10^4
        grid = TimeGrid(0.0, 0.5, 1.0 / 16)
        model = make_model(grid=grid, params={"s1": 1.0})
        flow, report = solve_conditional_law(
            model, ZERO_POLICIES, [(0.0, 1.0)], leader_noise_seed=5, K=10_000)
        assert report.converged
        for k in (4, 8):
            t = k * grid.h
            m2 = moment(measure_at(flow, k, 0), 2) ** 2
            assert abs(m2 - t) < 0.1 * t

    def test_contraction_discrepancies_decrease(self):
        # mean-reversion toward the flow mean: Picard discrepancies shrink
        model = make_model(params={"a1": -1.0, "k1": 0.5, "s1": 0.3},
                           feats=("mean",),
                           follower_init={"family": "normal", "params": {}})
        flow, report = solve_conditional_law(
            model, ZERO_POLICIES, [(0.0625, 0.5), (0.125, 0.5)],
            leader_noise_seed=7, K=400, tol=1e-15, max_iter=5)
        d = report.discrepancies
        assert len(d) == 5 and not report.converged
        assert d[0] > d[1] > d[2]

    def test_invariants_of_flow_object(self):
        model = make_model(params={"a1": -0.5, "k1": 0.3, "s1": 0.2},
                           feats=("mean",),
                           follower_init={"family": "normal", "params": {}})
        flow, _ = solve_conditional_law(
            model, ZERO_POLICIES, [(0.0625, 0.5), (0.125, 0.5)],
            leader_noise_seed=9, K=200)
        assert flow.K == 200
        assert flow.weights.sum() == pytest.approx(1.0, abs=1e-12)
        mu = measure_at(flow, 4, 1)
        assert mu.n_points == 200
        assert np.allclose(mu.weights, 1.0 / 200)

    def test_mixture_moment_identity(self):
        model = make_model(params={"a1": -0.5, "s1": 0.4},
                           follower_init={"family": "normal", "params": {}})
        flow, _ = solve_conditional_law(
            model, ZERO_POLICIES, [(0.0, 0.3), (0.0625, 0.45), (0.125, 0.25)],
            leader_noise_seed=11, K=150)
        for k in (0, 4, 8):
            mix = moment(mixture_at(flow, k), 2) ** 2
            per = sum(w * moment(measure_at(flow, k, j), 2) ** 2
                      for j, w in enumerate(flow.weights))
            assert mix == pytest.approx(per, abs=1e-12)

    def test_moment_domination(self):
        # mixture M2^2 is a convex combination of per-atom values, hence
        # bounded by their max
        model = make_model(params={"a1": -0.5, "s1": 0.4, "k1": 0.2},
                           feats=("mean",),
                           follower_init={"family": "normal", "params": {}})
        flow, _ = solve_conditional_law(
            model, ZERO_POLICIES, [(0.0, 0.5), (0.125, 0.5)],
            leader_noise_seed=13, K=300)
        for k in (2, 6):
            mix = moment(mixture_at(flow, k), 2) ** 2
            cap = max(moment(measure_at(flow, k, j), 2) ** 2
                      for j in range(flow.n_atoms))
            assert mix <= cap + 1e-12

    def test_causality_exact(self):
        # perturbing leader noise after a time leaves the flow before it
        # unchanged, bit for bit
        model = make_model(params={"s0": 0.5, "a1": -0.8, "b1": 0.5,
                                   "k1": 0.4, "s1": 0.25},
                           feats=("mean",),
                           leader_init={"family": "scaled_brownian",
                                        "params": {"sigma": 0.5}},
                           follower_init={"family": "normal", "params": {}})
        policies = PolicySet(Policy("zero"),
                             Policy("affine", {"gain_lead": 0.5}))
        m = model.grid.forward_steps
        rng = np.random.default_rng(0)
        zeta_a = rng.standard_normal((m, 1))
        zeta_b = zeta_a.copy()
        cut = m // 2
        zeta_b[cut:] += 1.0
        base = Draws.sample(model, DelayLaw.degenerate(0.125),
                            SharedNoise(17), 1)
        flows = []
        for zeta in (zeta_a, zeta_b):
            flow, _ = solve_conditional_law(
                model, policies, [(0.125, 1.0)], leader_noise_seed=17, K=150,
                draws=dataclasses.replace(base, leader_noise=zeta))
            flows.append(flow)
        a, b = flows
        assert np.array_equal(a.particles[:, :, :cut + 1, :],
                              b.particles[:, :, :cut + 1, :])
        assert not np.array_equal(a.particles, b.particles)

    def test_explosion_raises_typed_divergence(self):
        model = make_model(params={"a1": 1e200},
                           follower_init={"family": "constant",
                                          "params": {"value": 1.0}})
        with pytest.raises(SimulationDivergedError) as err:
            solve_conditional_law(model, ZERO_POLICIES, [(0.0, 1.0)], 3, K=100)
        assert err.value.step >= 0

    @pytest.mark.parametrize("n1, converged", [(1, True), (2, False)])
    def test_overflowing_discrepancy_is_a_typed_divergence(self, n1,
                                                           converged):
        # finite particles too far apart to square.  The quantile route of
        # n1 = 1 pairs close iterates and converges; the pairwise costs of
        # n1 > 1 overflow at forward step 0, which ends the solve typed
        # instead of running max_iter iterations unconverged
        model = make_model(n1=n1, follower_init={
            "family": "normal", "params": {"scale": 1e160}})
        part = [(0.0625, 0.5), (0.125, 0.5)]
        if converged:
            _, report = solve_conditional_law(model, ZERO_POLICIES, part, 3,
                                              K=128)
            assert report.converged
            return
        with pytest.raises(SimulationDivergedError,
                           match="non-finite Picard discrepancy at forward "
                                 "step 0") as err:
            solve_conditional_law(model, ZERO_POLICIES, part, 3, K=128)
        assert err.value.step == 0

    def test_parameter_guards(self):
        model = make_model()
        with pytest.raises(ParameterError):
            solve_conditional_law(model, ZERO_POLICIES, [(0.0, 1.0)], 0, K=50)
        with pytest.raises(ValidationError):
            solve_conditional_law(model, ZERO_POLICIES, [(0.0, 0.5)], 0, K=100)

    @pytest.mark.parametrize("seed", [2.9, True, -1])
    def test_leader_seed_must_be_a_nonnegative_integer(self, seed):
        # not cast: 2.9 would solve for seed 2 and record leader_seed 2
        with pytest.raises(ParameterError, match="seed must be an integer"):
            solve_conditional_law(make_model(), ZERO_POLICIES, [(0.0, 1.0)],
                                  seed, K=100)


class TestSimulateLimitPair:
    def test_no_interaction_matches_nplayer_exactly(self):
        # without measure coupling the two systems are the same equations
        # driven by the same streams
        model = make_model(params={"a1": -0.6, "s1": 0.3, "a0": -0.4, "s0": 0.2},
                           leader_init={"family": "scaled_brownian",
                                        "params": {"sigma": 0.4}},
                           follower_init={"family": "normal", "params": {}})
        policies = PolicySet(Policy("zero"),
                             Policy("affine", {"gain_lead": 0.7}))
        law = DelayLaw.discrete([0.0625, 0.125], [0.5, 0.5])
        noise = SharedNoise(21)
        bundle = simulate_nplayer(model, policies, 6, law, noise)
        flow, _ = solve_conditional_law(
            model, policies, partition_delay_law(law, 2), 21, K=100)
        x0, x1 = simulate_limit_pair(model, policies, flow, noise, bundle.delays)
        assert np.array_equal(x0, bundle.leader_path)
        assert np.array_equal(x1, bundle.follower_paths)

    def test_relabeling_permutes_limit_paths_exactly(self):
        # follower i of the relabeled run draws the streams of perm[i]
        # and reads the prescribed flow, so its path is x1[perm[i]]
        model = make_model(params={"a1": -0.6, "k1": 0.5, "s1": 0.3,
                                   "s1_x": 0.2, "a0": -0.4, "s0": 0.2},
                           feats=("mean",),
                           leader_init={"family": "scaled_brownian",
                                        "params": {"sigma": 0.4}},
                           follower_init={"family": "normal", "params": {}})
        policies = PolicySet(Policy("affine", {"gain": 0.1}),
                             Policy("affine", {"gain": -0.2,
                                               "gain_lead": 0.7}))
        law = DelayLaw.uniform(0.0, 0.125)
        flow, _ = solve_conditional_law(
            model, policies, partition_delay_law(law, 2), 31, K=100)
        delays = simulate_nplayer(model, policies, 8, law, 31).delays
        perm = [5, 3, 7, 1, 0, 6, 2, 4]
        x0, x1 = simulate_limit_pair(model, policies, flow, SharedNoise(31),
                                     delays)
        y0, y1 = simulate_limit_pair(model, policies, flow,
                                     SharedNoise(31).permuted(perm),
                                     delays[perm])
        assert np.array_equal(y0, x0)
        assert np.array_equal(y1, x1[perm])
        assert not np.array_equal(y1, x1)

    def test_seed_mismatch_rejected(self):
        model = make_model(params={"s1": 0.3},
                           follower_init={"family": "normal", "params": {}})
        flow, _ = solve_conditional_law(
            model, ZERO_POLICIES, [(0.0, 1.0)], 5, K=100)
        with pytest.raises(ValidationError):
            simulate_limit_pair(model, ZERO_POLICIES, flow, SharedNoise(6), [0.0])

    def test_frozen_coefficients_leader_constant(self):
        model = make_model(
            leader_init={"family": "constant", "params": {"value": 2.0}})
        flow, _ = solve_conditional_law(
            model, ZERO_POLICIES, [(0.0, 1.0)], 8, K=100)
        x0, x1 = simulate_limit_pair(model, ZERO_POLICIES, flow,
                                     SharedNoise(8), [0.0, 0.0])
        assert np.all(x0 == 2.0)

    def test_gap_shrinks_with_N(self):
        # deterministic dynamics: the only gap source is empirical-vs-limit
        # features, which shrink as N grows
        model = make_model(params={"a1": -0.5, "k1": 0.6},
                           feats=("mean",),
                           follower_init={"family": "normal", "params": {}})
        law = DelayLaw.degenerate(0.0)
        gaps = []
        for N in (4, 64):
            gap_sq = 0.0
            for rep in range(40):
                noise = SharedNoise(1000 + rep)
                bundle = simulate_nplayer(model, ZERO_POLICIES, N, law, noise)
                flow, _ = solve_conditional_law(
                    model, ZERO_POLICIES, [(0.0, 1.0)], 1000 + rep, K=2000)
                x0, x1 = simulate_limit_pair(
                    model, ZERO_POLICIES, flow, noise, bundle.delays)
                d = bundle.follower_paths - x1
                gap_sq += np.max(np.sum(d * d, axis=2), axis=1).mean()
            gaps.append(gap_sq / 40)
        assert gaps[1] < gaps[0]

    def test_limit_costs_match_nplayer_when_uncoupled(self):
        model = make_model(params={"a1": -0.6, "s1": 0.3, "cost1_state": 1.0,
                                   "cost1_control": 0.5, "cost0_const": 1.0},
                           follower_init={"family": "normal", "params": {}})
        policies = PolicySet(Policy("zero"), Policy("affine", {"gain": 0.2}))
        law = DelayLaw.degenerate(0.0)
        noise = SharedNoise(33)
        bundle = simulate_nplayer(model, policies, 4, law, noise)
        flow, _ = solve_conditional_law(
            model, policies, partition_delay_law(law, 1), 33, K=100)
        x0, x1 = simulate_limit_pair(model, policies, flow, noise, bundle.delays)
        from stackmf.dynamics import evaluate_costs_nplayer
        J0n, Jin = evaluate_costs_nplayer(bundle, model, policies)
        J0l, Jil = evaluate_costs_limit(model, policies, flow, x0, x1,
                                        bundle.delays)
        # states identical; cost difference comes only from the measure
        # features, absent here
        assert J0l == pytest.approx(J0n, abs=1e-12)
        assert Jil == pytest.approx(Jin, abs=1e-12)


class TestImmersion:
    def test_two_step_toy_exhaustive(self):
        # 2-step system, leader noise (s0, s1) and follower noise (w0, w1)
        # in {-1, +1}: the follower state at t=2 uses the leader only
        # through x0(0) (delay 1), so its conditional law given the leader
        # path truncated at t - delta equals the law given the full path.
        h = 1.0

        def x1_final(s0, s1, w0, w1):
            # x0: 0 -> s0 -> s0 + s1; follower drift feeds on delayed x0
            x0 = {0: 0.0, 1: s0, 2: s0 + s1}
            x1 = 0.0
            for k in (0, 1):
                delayed = x0[max(k - 1, 0) if k - 1 >= 0 else 0] if k >= 1 else 0.0
                delayed = x0[k - 1] if k >= 1 else 0.0
                x1 = x1 + 0.5 * delayed * h + 0.3 * w_val(w0, w1, k) * math.sqrt(h)
            return x1

        def w_val(w0, w1, k):
            return w0 if k == 0 else w1

        signs = (-1.0, 1.0)
        # conditional law given truncated info (s0 only): collect over
        # (s1, w0, w1)
        for s0 in signs:
            truncated = sorted(
                x1_final(s0, s1, w0, w1)
                for s1, w0, w1 in itertools.product(signs, repeat=3))
            # law given the full leader path (s0, s1): must not depend on s1
            for s1 in signs:
                full = sorted(x1_final(s0, s1, w0, w1)
                              for w0, w1 in itertools.product(signs, repeat=2))
                # each full-path atom set appears twice in the truncated one
                assert truncated == sorted(full + full)


class TestHolderEstimate:
    @staticmethod
    def _flow_and_model(params, policies, seed=41, feats=()):
        grid = TimeGrid(-0.25, 0.5, 1.0 / 32)
        model = make_model(grid=grid, params=params, feats=feats,
                           leader_init={"family": "scaled_brownian",
                                        "params": {"sigma": 0.5}},
                           follower_init={"family": "normal",
                                          "params": {"scale": 0.3}})
        flow, report = solve_conditional_law(
            model, policies, [(0.125, 1.0)], seed, K=100)
        assert report.converged
        return model, flow

    def test_needs_four_deltas(self):
        policies = ZERO_POLICIES
        model, flow = self._flow_and_model({"s1": 0.2}, policies)
        with pytest.raises(ParameterError):
            holder_exponent_estimate(model, policies, flow,
                                     [0.0625, 0.125, 0.1875], 100)
        with pytest.raises(ParameterError):
            holder_exponent_estimate(
                model, policies, flow,
                [0.0625, 0.125, 0.1875, 0.25], 50)

    def test_no_delay_dependence_skipped(self):
        policies = ZERO_POLICIES
        model, flow = self._flow_and_model({"a1": -0.5, "s1": 0.2}, policies)
        report = holder_exponent_estimate(
            model, policies, flow, [0.0625, 0.125, 0.1875, 0.25], 100)
        assert report.skipped
        assert report.exponent is None

    def test_drift_feedthrough_slope_two(self):
        # Brownian leader entering the follower DRIFT: time smoothing gives
        # squared gaps of order |delta - gamma|^2, slope near 2
        policies = PolicySet(Policy("zero"),
                             Policy("affine", {"gain_lead": 1.0}))
        model, flow = self._flow_and_model({"b1": 1.0, "s1": 0.1}, policies)
        report = holder_exponent_estimate(
            model, policies, flow,
            [0.0625, 0.125, 0.1875, 0.25], 400)
        assert not report.skipped
        assert abs(report.exponent - 2.0) <= 0.4, report

    def test_diffusion_feedthrough_slope_one(self):
        # Brownian leader entering the follower DIFFUSION: Ito isometry
        # gives squared gaps of order |delta - gamma|, slope near 1
        policies = PolicySet(Policy("zero"),
                             Policy("affine", {"gain_lead": 1.0}))
        model, flow = self._flow_and_model({"s1_v": 0.6, "s1": 0.1}, policies)
        report = holder_exponent_estimate(
            model, policies, flow,
            [0.0625, 0.125, 0.1875, 0.25], 400)
        assert not report.skipped
        assert abs(report.exponent - 1.0) <= 0.2, report

    def test_doubling_spacings_scales_gaps(self):
        # predicted gaps scale by 2^slope when all spacings double
        policies = PolicySet(Policy("zero"),
                             Policy("affine", {"gain_lead": 1.0}))
        model, flow = self._flow_and_model({"s1_v": 0.6, "s1": 0.1}, policies)
        r1 = holder_exponent_estimate(
            model, policies, flow, [0.0625, 0.125, 0.1875, 0.25], 200)
        predicted = {}
        for d, g in zip(r1.distances, r1.gaps):
            predicted[round(d / model.grid.h)] = math.exp(
                r1.log_constant) * d ** r1.exponent
        for lag, pred in predicted.items():
            if 2 * lag in predicted:
                ratio = predicted[2 * lag] / pred
                assert ratio == pytest.approx(2 ** r1.exponent, rel=1e-9)


class TestStackedLimitTwin:
    """Row r of a stacked limit twin, and of its costs, equals the call on
    replication r alone."""

    LAW = DelayLaw.discrete([0.0625, 0.125], [0.5, 0.5])

    def model(self, n1=1, feats=("mean",)):
        return make_model(
            params={"a0": -0.5, "k0": 0.4, "s0": 0.3, "a1": -0.8, "k1": 0.5,
                    "s1": 0.3, "s1_x": 0.2, "cost0_state": 0.5,
                    "cost0_track": 0.3, "cost1_state": 1.0,
                    "cost1_control": 0.2, "cost1_track": 0.5,
                    "cost1_terminal": 0.7},
            feats=feats, n1=n1,
            leader_init={"family": "ou_path",
                         "params": {"theta": 1.0, "vol": 0.4}},
            follower_init={"family": "normal", "params": {"scale": 0.6}})

    @pytest.mark.parametrize("deviant", [None, Policy("constant", {"value": 0.5})])
    @pytest.mark.parametrize("leader", [
        Policy("zero"), Policy("constant", {"value": 0.3}),
        Policy("affine", {"gain": -0.4, "offset": 0.1})])
    @pytest.mark.parametrize("n1, feats", [
        (1, ("mean",)), (2, ("mean", "second_moment"))])
    def test_rows_equal_single_runs(self, leader, deviant, n1, feats):
        model = self.model(n1, feats)
        pols = PolicySet(leader, Policy("affine", {"gain": -0.2,
                                                   "gain_lead": 0.4}),
                         deviant=deviant)
        noises = [SharedNoise(s) for s in (4, 9)]
        draws = [Draws.sample(model, self.LAW, noise, 5) for noise in noises]
        flows = [solve_conditional_law(
            model, pols, [(0.0625, 0.5), (0.125, 0.5)], noise.entropy, 100,
            draws=d)[0] for noise, d in zip(noises, draws)]
        batch = Draws.stack(draws)
        x0s, x1s = simulate_limit_pair(model, pols, flows, noises,
                                       batch.delays, batch)
        J0, Ji = evaluate_costs_limit(model, pols, flows, x0s, x1s,
                                      batch.delays)
        for r in range(2):
            x0, x1 = simulate_limit_pair(model, pols, flows[r], noises[r],
                                         draws[r].delays, draws[r])
            assert np.array_equal(x0s[r], x0)
            assert np.array_equal(x1s[r], x1)
            j0, ji = evaluate_costs_limit(model, pols, flows[r], x0, x1,
                                          draws[r].delays)
            assert J0[r] == j0
            assert Ji[r].tolist() == ji

    def test_head_of_the_twin_equals_the_twin_of_the_head(self):
        # twin followers read the flow, not each other
        model = self.model()
        pols = PolicySet(Policy("affine", {"gain": -0.4}),
                         Policy("affine", {"gain": -0.2, "gain_lead": 0.4}))
        noise = SharedNoise(4)
        draws = Draws.sample(model, self.LAW, noise, 9)
        flow, _ = solve_conditional_law(
            model, pols, [(0.0625, 0.5), (0.125, 0.5)], 4, 100, draws=draws)
        x0, x1 = simulate_limit_pair(model, pols, flow, noise, draws.delays,
                                     draws)
        j0, ji = evaluate_costs_limit(model, pols, flow, x0, x1, draws.delays)
        head = draws.head(4)
        y0, y1 = simulate_limit_pair(model, pols, flow, noise, head.delays,
                                     head)
        assert np.array_equal(x0, y0)
        assert np.array_equal(x1[:4], y1)
        assert evaluate_costs_limit(model, pols, flow, y0, y1,
                                    head.delays) == (j0, ji[:4])

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("n1, feats", [
        (1, ("mean",)), (2, ("mean", "second_moment"))])
    def test_noise_cut_to_s_steps_stops_the_twin_at_step_s(self, n1, feats,
                                                             stacked):
        # the eta check reads its twin at step m // 2 and steps it no further
        model = self.model(n1, feats)
        pols = PolicySet(Policy("affine", {"gain": -0.4}),
                         Policy("affine", {"gain": -0.2, "gain_lead": 0.4}))
        seeds = (4, 9) if stacked else (4,)
        noises = [SharedNoise(seed) for seed in seeds]
        draws = [Draws.sample(model, self.LAW, noise, 5) for noise in noises]
        flows = [solve_conditional_law(
            model, pols, [(0.0625, 0.5), (0.125, 0.5)], noise.entropy, 100,
            draws=d)[0] for noise, d in zip(noises, draws)]
        if stacked:
            batch = Draws.stack(draws)
        else:
            (batch,), (flows,), (noises,) = draws, flows, noises
        x0, x1 = simulate_limit_pair(model, pols, flows, noises,
                                     batch.delays, batch)
        m, z0 = model.grid.forward_steps, model.grid.zero_index
        for s in (0, m // 2, m - 1):
            cut = dataclasses.replace(
                batch, leader_noise=batch.leader_noise[..., :s, :],
                follower_noise=batch.follower_noise[..., :s, :])
            y0, y1 = simulate_limit_pair(model, pols, flows, noises,
                                         batch.delays, cut)
            assert y0.tobytes() == x0[..., :z0 + s + 1, :].tobytes()
            assert y1.tobytes() == x1[..., :s + 1, :].tobytes()

    def test_cut_twin_does_not_read_a_later_divergence(self):
        # the declared behaviour of the eta check: a twin that would first
        # turn non-finite after step s raises only when stepped past it
        model = self.model()
        noise = SharedNoise(4)
        draws = Draws.sample(model, self.LAW, noise, 5)
        flow, _ = solve_conditional_law(
            model, ZERO_POLICIES, [(0.0625, 0.5), (0.125, 0.5)], 4, 100,
            draws=draws)
        s = model.grid.forward_steps // 2
        zeta = draws.follower_noise.copy()
        zeta[:, s] = np.inf         # drives step s + 1
        late = dataclasses.replace(draws, follower_noise=zeta)
        with pytest.raises(SimulationDivergedError):
            simulate_limit_pair(model, ZERO_POLICIES, flow, noise,
                                draws.delays, late)
        cut = dataclasses.replace(late, leader_noise=late.leader_noise[:s],
                                  follower_noise=zeta[:, :s])
        _, x1 = simulate_limit_pair(model, ZERO_POLICIES, flow, noise,
                                    draws.delays, cut)
        assert x1.shape == (5, s + 1, 1) and np.isfinite(x1).all()

    def test_leader_and_follower_noise_cover_the_same_steps(self):
        model = self.model()
        noise = SharedNoise(4)
        draws = Draws.sample(model, self.LAW, noise, 5)
        flow, _ = solve_conditional_law(
            model, ZERO_POLICIES, [(0.0625, 0.5), (0.125, 0.5)], 4, 100,
            draws=draws)
        cut = dataclasses.replace(draws, leader_noise=draws.leader_noise[:3])
        with pytest.raises(DimensionError):
            simulate_limit_pair(model, ZERO_POLICIES, flow, noise,
                                draws.delays, cut)


# ---------------------------------------------------------------------------
# reference: the stopping rule one sub-time at a time, each cloud
# subsampled and weighted on its own


def cloud_w2(points_a, points_b, idx_a, idx_b):
    """Exact W2 between uniform clouds after index subsampling."""
    a = points_a[idx_a] if idx_a is not None else points_a
    b = points_b[idx_b] if idx_b is not None else points_b
    mu = DiscreteMeasure(a, np.full(len(a), 1.0 / len(a)))
    nu = DiscreteMeasure(b, np.full(len(b), 1.0 / len(b)))
    return w2_exact_1d(mu, nu) if a.shape[1] == 1 else w2_exact_lp(mu, nu)[0]


class TestStoppingRule:
    """Each Picard discrepancy equals the per-sub-time reference over the
    iterates the solve steps, and the flow holds the last of them."""

    POLICIES = PolicySet(Policy("affine", {"gain": -0.3}),
                         Policy("affine", {"gain": -0.2, "gain_lead": 0.4}))

    def model(self, n1, follower_init=None):
        return make_model(
            params={"a0": -0.2, "k0": 0.4, "s0": 0.2, "a1": -0.5, "k1": 0.8,
                    "s1": 0.3},
            feats=("mean",) + (("second_moment",) if n1 == 2 else ()),
            n1=n1,
            leader_init={"family": "ou_path", "params": {"vol": 0.4}},
            follower_init=follower_init or {"family": "normal",
                                            "params": {"scale": 0.6}})

    @pytest.mark.parametrize("n1, atoms", [
        (1, (0.0, 0.0625, 0.125)),   # 300 particles: subsampled to 256
        (1, (0.0625, 0.125)),        # 200 particles: all of them
        (2, (0.0625, 0.125)),        # the LP route
    ])
    def test_discrepancies_equal_per_sub_time_loop(self, monkeypatch, n1,
                                                   atoms):
        model, seed, K = self.model(n1), 13, 100
        iterates = []
        stepper = meanfield._euler

        def recording(*args):
            out = stepper(*args)
            iterates.append(out[1][0])
            return out

        monkeypatch.setattr(meanfield, "_euler", recording)
        flow, report = solve_conditional_law(
            model, self.POLICIES, [(a, 1 / len(atoms)) for a in atoms], seed,
            K, tol=1e-6, max_iter=4)

        m, cloud = model.grid.forward_steps, len(atoms) * K
        sub_times = np.unique(np.linspace(0, m, 16).round().astype(int))
        idx = None
        if cloud > 256:
            idx = np.sort(SharedNoise(seed).subsample(0).choice(
                cloud, 256, replace=False))
        want = tuple(
            float(max(cloud_w2(new[:, k], old[:, k], idx, idx)
                      for k in sub_times))
            for new, old in zip(iterates[1:], iterates))
        assert report.iterations == len(want) >= 2
        assert report.discrepancies == want
        assert report.converged == (want[-1] <= 1e-6)
        assert np.array_equal(flow.particles,
                              iterates[-1].reshape(flow.particles.shape))

    def test_constant_initial_law_derives_no_flow_init_stream(self,
                                                              monkeypatch):
        calls = []
        real = _rng.generator

        def counting(*key):
            calls.append(key)
            return real(*key)

        monkeypatch.setattr(_rng, "generator", counting)
        partition = [(0.0625, 0.5), (0.125, 0.5)]
        solves = []
        # a normal law of scale 0 puts the same states on its FLOW_INIT
        # draws
        for spec, streams in (
                ({"family": "constant", "params": {"value": 0.3}}, 0),
                ({"family": "normal", "params": {"loc": 0.3, "scale": 0.0}},
                 len(partition))):
            calls.clear()
            solves.append(solve_conditional_law(
                self.model(1, follower_init=spec), self.POLICIES, partition,
                5, 100, max_iter=3))
            assert sum(key[1] == _rng.FLOW_INIT for key in calls) == streams
        (a, report_a), (b, report_b) = solves
        assert np.array_equal(a.particles, b.particles)
        assert np.array_equal(a.leader_path, b.leader_path)
        assert report_a == report_b

    @pytest.mark.parametrize("n1, atoms", [
        (1, (0.0, 0.0625, 0.125)),
        (1, (0.0625, 0.125)),
        (2, (0.0625, 0.125)),
    ])
    def test_w2_is_taken_at_fewer_sub_times(self, monkeypatch, n1, atoms):
        # with _FINITE_SQUARES at 0 every sub-time is priced in time order,
        # the full per-sub-time loop
        model = self.model(n1)
        partition = [(a, 1 / len(atoms)) for a in atoms]
        m = model.grid.forward_steps
        sub_times = np.unique(np.linspace(0, m, 16).round().astype(int)).size
        counts = []     # exact W2 evaluations after each iterate
        stepper = meanfield._euler

        def stepping(*args):
            counts.append(0)
            return stepper(*args)

        def counting(fn):
            def counted(*args):
                counts[-1] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(meanfield, "_euler", stepping)
        for name in ("w2_exact_1d", "_w2_or_inf"):
            monkeypatch.setattr(meanfield, name,
                                counting(getattr(meanfield, name)))
        reports = {}
        for limit, priced in ((0.0, lambda c: c == sub_times),
                              (meanfield._FINITE_SQUARES,
                               lambda c: 1 <= c < sub_times)):
            monkeypatch.setattr(meanfield, "_FINITE_SQUARES", limit)
            counts.clear()
            _, reports[limit] = solve_conditional_law(
                model, self.POLICIES, partition, 13, 100, tol=1e-6,
                max_iter=4)
            assert len(counts) == reports[limit].iterations + 1 >= 3
            assert counts[0] == 0
            assert all(priced(c) for c in counts[1:]), counts
        full, pruned = reports.values()
        assert pruned == full

    def test_coinciding_iterates_take_at_most_one_w2(self, monkeypatch):
        # a zero coupling bound makes every sub-time's W2 zero
        calls = []
        for name in ("w2_exact_1d", "_w2_or_inf"):
            fn = getattr(meanfield, name)
            monkeypatch.setattr(meanfield, name, lambda *a, fn=fn: (
                calls.append(a), fn(*a))[1])
        _, report = solve_conditional_law(make_model(), ZERO_POLICIES,
                                          [(0.0, 1.0)], 3, K=100)
        assert report.iterations == 1
        assert report.discrepancies == (0.0,)
        assert len(calls) <= 1


def per_sub_time_max(clouds_new, clouds_old):
    """The stopping rule one sub-time at a time in time order: the maximum
    exact W2, or ("diverged", k) at the first non-finite sub-time k."""
    n, n1 = clouds_new.shape[1:]
    uniform = np.full(n, 1.0 / n)
    disc = 0.0
    for k, (a, b) in enumerate(zip(clouds_new, clouds_old)):
        mu, nu = DiscreteMeasure(a, uniform), DiscreteMeasure(b, uniform)
        w2 = w2_exact_1d(mu, nu) if n1 == 1 else _w2_or_inf(mu, nu)[0]
        if not math.isfinite(w2):
            return ("diverged", k)
        disc = max(disc, w2)
    return disc


class TestPicardDiscrepancy:
    """The pruned stopping rule equals the full loop bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n1=st.sampled_from([1, 2]),
           n=st.sampled_from([200, 256]),
           kinds=st.lists(st.sampled_from(["zero", "shift", "scaled", "noise",
                                            "copy"]), min_size=1, max_size=16),
           spread=st.sampled_from([1.0, 1e155]),
           step=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
    # sixteen equal shifts whose W2 and bounds differ in the last digit: a
    # rule with no rounding margin prunes the maximum here
    @example(seed=131, n1=1, n=200, kinds=["shift"] * 16, spread=1.0,
             step=1e-3)
    def test_equals_per_sub_time_loop(self, seed, n1, n, kinds, spread,
                                      step):
        # "shift" moves every point alike, so W2 equals the coupling bound
        # up to rounding, and sub-times shifted alike tie up to rounding;
        # "scaled" shifts by a random fraction of that, and "noise" has W2
        # well below its bound, so the two order the sub-times differently;
        # "copy" repeats sub-time 0, an exact tie with an early sub-time; a
        # spread of 1e155 squares past _FINITE_SQUARES, the time-ordered
        # route
        rng = np.random.default_rng(seed)
        old = spread * rng.standard_normal((len(kinds), n, n1))
        new = old.copy()
        shift = spread * step * rng.standard_normal(n1)
        for k, kind in enumerate(kinds):
            if kind == "shift":
                new[k] = old[k] + shift
            elif kind == "scaled":
                new[k] = old[k] + rng.uniform(0.25, 1.0) * shift
            elif kind == "noise":
                new[k] = old[k] + spread * step * 2.0 ** -rng.integers(4) \
                    * rng.standard_normal((n, n1))
            elif kind == "copy":
                old[k], new[k] = old[0], new[0]
        try:
            got = meanfield._picard_discrepancy(new, old,
                                                np.arange(len(kinds)))
        except SimulationDivergedError as err:
            got = ("diverged", err.step)
        assert got == per_sub_time_max(new, old)
