"""Cost evaluators: the loop-free rectangle rule against per-step loops."""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackmf._rng import SharedNoise
from stackmf.dynamics import (
    CoefficientSet,
    DelayLaw,
    Draws,
    ModelSpec,
    Policy,
    PolicySet,
    TimeGrid,
    TrajectoryBundle,
    evaluate_costs_nplayer,
    follower_feature_arrays,
    simulate_nplayer,
)
from stackmf.errors import SimulationDivergedError
from stackmf.meanfield import (
    evaluate_costs_limit,
    simulate_limit_pair,
    solve_conditional_law,
)

LAW = DelayLaw.discrete([0.0625, 0.125], [0.5, 0.5])
ZERO = PolicySet(Policy("zero"), Policy("zero"))
PARTITION = [(0.0625, 0.5), (0.125, 0.5)]


# ---------------------------------------------------------------------------
# reference: the per-step loops, adding one left endpoint at a time

def step_controls(policies, x0_path, X, lags, row):
    """Controls of one step from the policies: the leader at row `row` of
    x0_path, followers X reading it `lags` rows earlier."""
    x0_delayed = np.take_along_axis(x0_path, (row - lags)[..., None],
                                    axis=-2)
    u0 = np.asarray(policies.leader_value(x0_path[..., row, :]), dtype=float)
    v1 = np.asarray(policies.follower_value(X, x0_delayed), dtype=float)
    return u0, np.broadcast_to(v1, X.shape)


def loop_costs_nplayer(bundle, model, policies):
    coeffs = model.coefficients
    names = coeffs.measure_features
    grid = bundle.grid
    h, m, z0 = grid.h, grid.forward_steps, grid.zero_index
    lead = bundle.leader_path
    lags = np.round(bundle.delays / h).astype(int)
    J0 = np.zeros(lead.shape[:-2])
    Ji = np.zeros(bundle.delays.shape)
    for k in range(m):
        X = bundle.follower_paths[..., k, :]
        u0, v1 = step_controls(policies, lead, X, lags, z0 + k)
        full, loo = follower_feature_arrays(X, names)
        J0 += coeffs.f0(lead[..., z0 + k, :], full, u0) * h
        Ji += coeffs.f1(X, loo, v1) * h
    X = bundle.follower_paths[..., m, :]
    full, loo = follower_feature_arrays(X, names)
    J0 += coeffs.h0(lead[..., z0 + m, :], full)
    Ji += coeffs.h1(X, loo)
    return J0, Ji


def loop_costs_limit(model, policies, feats, x0_path, x1_paths, delays):
    """feats: name -> (..., m+1, dim), stacked over replications when the
    paths are."""
    grid = model.grid
    coeffs = model.coefficients
    h, m, z0 = grid.h, grid.forward_steps, grid.zero_index
    lags = np.round(np.asarray(delays, dtype=float) / h).astype(int)
    J0 = np.zeros(np.shape(x0_path)[:-2])
    Ji = np.zeros(lags.shape)

    def at(k):
        return ({name: arr[..., k, :] for name, arr in feats.items()},
                {name: arr[..., k, None, :] for name, arr in feats.items()})

    for k in range(m):
        lead, fol = at(k)
        X = x1_paths[..., k, :]
        u0, v1 = step_controls(policies, x0_path, X, lags, z0 + k)
        J0 += coeffs.f0(x0_path[..., z0 + k, :], lead, u0) * h
        Ji += coeffs.f1(X, fol, v1) * h
    lead, fol = at(m)
    J0 += coeffs.h0(x0_path[..., z0 + m, :], lead)
    Ji += coeffs.h1(x1_paths[..., m, :], fol)
    return J0, Ji


def make_model(n1):
    feats = ("mean",) if n1 == 1 else ("mean", "second_moment")
    return ModelSpec(
        coefficients=CoefficientSet("linear_quadratic", {
            "a0": -0.5, "k0": 0.4, "s0": 0.3, "a1": -0.8, "k1": 0.5,
            "s1": 0.3, "s1_x": 0.2, "cost0_const": 0.1, "cost0_state": 0.5,
            "cost0_control": 0.3, "cost0_track": 0.3, "cost0_terminal": 0.4,
            "cost1_state": 1.0, "cost1_control": 0.2, "cost1_track": 0.5,
            "cost1_terminal": 0.7}, feats),
        grid=TimeGrid(-0.125, 0.5, 1.0 / 16), n1=n1,
        leader_init={"family": "ou_path",
                     "params": {"theta": 1.0, "vol": 0.4}},
        follower_init={"family": "normal", "params": {"scale": 0.6}})


LEADERS = [Policy("zero"), Policy("constant", {"value": 0.3}),
           Policy("affine", {"gain": -0.4, "offset": 0.1})]
DEVIANTS = [None, Policy("constant", {"value": 0.5}),
            Policy("affine", {"gain": 0.3, "gain_lead": -0.2})]


def assert_same_costs(got, want, stacked):
    J0, Ji = got
    if stacked:
        assert isinstance(J0, np.ndarray) and isinstance(Ji, np.ndarray)
    else:
        assert type(J0) is float and type(Ji) is list
        assert all(type(val) is float for val in Ji)
    assert np.array_equal(J0, want[0])
    assert np.array_equal(Ji, want[1])


@settings(max_examples=10, deadline=None)
@given(n1=st.sampled_from([1, 2]), reps=st.sampled_from([None, 1, 3]),
       N=st.integers(2, 12), leader=st.sampled_from(LEADERS),
       deviant=st.sampled_from(DEVIANTS), seed=st.integers(0, 2 ** 16))
# N >= 8 followers: numpy sums the sorted follower axis pairwise, so the
# rounding depends on the memory layout of the time-major paths
@example(n1=1, reps=3, N=12, leader=LEADERS[2], deviant=DEVIANTS[2], seed=5)
def test_rectangle_rule_equals_step_loop(n1, reps, N, leader, deviant, seed):
    """Both evaluators give the per-step loop's values byte for byte, for
    one replication (floats) and stacked replications (arrays)."""
    model = make_model(n1)
    pols = PolicySet(leader, Policy("affine", {"gain": -0.2,
                                               "gain_lead": 0.4}),
                     deviant=deviant)
    noises = [SharedNoise(seed + r) for r in range(reps or 1)]
    draws = [Draws.sample(model, LAW, noise, N) for noise in noises]
    flows = [solve_conditional_law(model, pols, PARTITION, noise.entropy,
                                   100, draws=d)[0]
             for noise, d in zip(noises, draws)]
    if reps is None:
        batch, noise_arg, flow_arg = draws[0], noises[0], flows[0]
        feats = flows[0].features
    else:
        batch, noise_arg, flow_arg = Draws.stack(draws), noises, flows
        feats = {name: np.stack([f.features[name] for f in flows])
                 for name in flows[0].features}
    stacked = reps is not None

    bundle = simulate_nplayer(model, pols, N, LAW, noise_arg, batch)
    assert_same_costs(evaluate_costs_nplayer(bundle, model, pols),
                      loop_costs_nplayer(bundle, model, pols), stacked)

    x0, x1 = simulate_limit_pair(model, pols, flow_arg, noise_arg,
                                 batch.delays, batch)
    assert_same_costs(
        evaluate_costs_limit(model, pols, flow_arg, x0, x1, batch.delays),
        loop_costs_limit(model, pols, feats, x0, x1, batch.delays), stacked)


class TestCostOverflow:
    """A cost that overflows on finite paths is a typed divergence at the
    first step whose cumulative cost is non-finite."""

    def bundle(self, planted, R=2, N=3):
        model = make_model(1)
        grid = model.grid
        lead = np.zeros((R, grid.n_steps + 1, 1))
        fol = np.zeros((R, N, grid.forward_steps + 1, 1))
        for (role, r, step), value in planted.items():
            if role == "leader":
                lead[r, grid.zero_index + step, 0] = value
            else:
                fol[r, 1, step, 0] = value
        return model, TrajectoryBundle(
            grid=grid, leader_path=lead, follower_paths=fol,
            delays=np.full((R, N), 0.0625))

    @pytest.mark.parametrize("planted, step", [
        ({("follower", 1, 2): 1e200}, 2),
        ({("leader", 0, 5): 1e200, ("follower", 1, 3): 1e200}, 3),
        ({("leader", 1, 0): 1e200}, 0),
        ({("follower", 0, 8): 1e200}, 8),    # the terminal cost, step m
        ({("leader", 1, 8): -1e200}, 8),
    ])
    def test_first_non_finite_step_is_named(self, planted, step):
        model, bundle = self.bundle(planted)
        assert model.grid.forward_steps == 8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationDivergedError) as info:
                evaluate_costs_nplayer(bundle, model, ZERO)
        assert info.value.step == step
        assert f"forward step {step}" in str(info.value)

    def test_control_overflow_on_finite_paths_is_named(self):
        # the follower control reads the leader one step (its delay) late:
        # 1e250 * 1e100 overflows at step 4, the squared states do not
        model, bundle = self.bundle({("leader", 0, 3): 1e100})
        pols = PolicySet(Policy("zero"), Policy("affine", {"gain_lead": 1e250}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationDivergedError) as info:
                evaluate_costs_nplayer(bundle, model, pols)
        assert info.value.step == 4

    def test_large_finite_costs_pass(self):
        model, bundle = self.bundle({("follower", 1, 2): 1e150,
                                     ("leader", 0, 8): 1e150})
        J0, Ji = evaluate_costs_nplayer(bundle, model, ZERO)
        assert np.all(np.isfinite(J0)) and np.all(np.isfinite(Ji))
