"""SDE engine: grids, delay laws, coefficients, simulation, costs."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from stackmf import _rng
from stackmf._rng import SharedNoise
from stackmf.dynamics import (
    CoefficientSet,
    DelayLaw,
    Draws,
    ModelSpec,
    Policy,
    PolicySet,
    TimeGrid,
    _as_generator,
    _phi_block,
    draw_follower_initial,
    evaluate_costs_nplayer,
    sample_delays,
    sample_initial_leader_path,
    simulate_nplayer,
    snap_delays_to_grid,
)
from stackmf.errors import (
    ParameterError,
    SimulationDivergedError,
    ValidationError,
)
from stackmf.measures import DiscreteMeasure, w2_exact_lp


def features_of_measure(mu: DiscreteMeasure, names):
    """Feature averages of a weighted discrete measure."""
    return {name: mu.weights @ _phi_block(name, mu.points) for name in names}


def coefficient_function(coeffs: CoefficientSet, name: str):
    """Wrap one coefficient as a callable (x, measure, v) -> array, with the
    measure reduced to the declared features."""
    fn = getattr(coeffs, name)

    def wrapped(x, mu: DiscreteMeasure, v):
        feats = features_of_measure(mu, coeffs.measure_features)
        return np.atleast_1d(np.asarray(fn(np.asarray(x, float), feats,
                                           np.asarray(v, float)), dtype=float))

    return wrapped


def lipschitz_probe(coefficient, trials: int, radius: float, seed, *,
                    dims=(1, 1, 1)) -> float:
    """Max observed ratio |df| / (|dx| + W2(z, z') + |dv|) over random probes.

    Each trial also varies one argument at a time so a linear coefficient
    c * x reports exactly |c|.  The measure argument distance uses the exact
    LP.
    """
    rng = _as_generator(seed, _rng.PROBE)
    nx, nz, nv = dims
    best = 0.0

    def out(x, mu, v):
        return np.asarray(coefficient(x, mu, v), dtype=float).ravel()

    for _ in range(trials):
        x1 = radius * rng.uniform(-1, 1, nx)
        x2 = radius * rng.uniform(-1, 1, nx)
        v1 = radius * rng.uniform(-1, 1, nv)
        v2 = radius * rng.uniform(-1, 1, nv)
        natoms = int(rng.integers(1, 6))
        z1 = DiscreteMeasure(radius * rng.uniform(-1, 1, (natoms, nz)),
                             rng.dirichlet(np.ones(natoms)))
        natoms = int(rng.integers(1, 6))
        z2 = DiscreteMeasure(radius * rng.uniform(-1, 1, (natoms, nz)),
                             rng.dirichlet(np.ones(natoms)))
        dx = float(np.linalg.norm(x1 - x2))
        dv = float(np.linalg.norm(v1 - v2))
        dz = w2_exact_lp(z1, z2)[0]
        base = out(x1, z1, v1)
        if dx > 1e-9:
            best = max(best, float(np.linalg.norm(out(x2, z1, v1) - base)) / dx)
        if dz > 1e-9:
            best = max(best, float(np.linalg.norm(out(x1, z2, v1) - base)) / dz)
        if dv > 1e-9:
            best = max(best, float(np.linalg.norm(out(x1, z1, v2) - base)) / dv)
        denom = dx + dz + dv
        if denom > 1e-9:
            best = max(best, float(np.linalg.norm(out(x2, z2, v2) - base)) / denom)
    return best


def make_model(grid=None, family="linear_quadratic", params=None, feats=(),
               **kw):
    grid = grid or TimeGrid(-0.125, 1.0, 1.0 / 32)
    coeffs = CoefficientSet(family, params or {}, feats)
    return ModelSpec(coefficients=coeffs, grid=grid, **kw)


ZERO_POLICIES = PolicySet(Policy("zero"), Policy("zero"))


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(-0.125, 1.0, 1.0 / 64)
        assert g.b == 0.125
        assert g.T == 1.0
        assert g.n_steps == 72
        assert g.zero_index == 8
        assert g.forward_steps == 64
        assert g.times.shape == (73,)
        assert g.forward_times[0] == pytest.approx(0.0, abs=1e-15)
        assert g.times[-1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_history(self):
        g = TimeGrid(0.0, 1.0, 0.25)
        assert g.zero_index == 0
        assert g.forward_steps == 4

    def test_step_must_divide_b(self):
        with pytest.raises(ValidationError):
            TimeGrid(-0.1, 1.0, 0.03)

    def test_step_must_divide_T(self):
        with pytest.raises(ValidationError):
            TimeGrid(-0.1, 1.0, 0.3)

    def test_rejects_bad_endpoints(self):
        with pytest.raises(ValidationError):
            TimeGrid(0.5, 1.0, 0.1)
        with pytest.raises(ValidationError):
            TimeGrid(-0.1, -1.0, 0.1)
        with pytest.raises(ValidationError):
            TimeGrid(-0.1, 1.0, -0.1)


class TestDelayLaw:
    def test_degenerate(self):
        law = DelayLaw.degenerate(0.25)
        assert law.a == law.b == 0.25
        assert law.cdf(0.2) == 0.0
        assert law.cdf(0.25) == 1.0

    def test_discrete_cdf(self):
        law = DelayLaw.discrete([0.1, 0.3], [0.5, 0.5])
        assert law.cdf(0.05) == 0.0
        assert law.cdf(0.1) == pytest.approx(0.5)
        assert law.cdf(0.2) == pytest.approx(0.5)
        assert law.cdf(0.3) == pytest.approx(1.0)

    def test_uniform_cdf(self):
        law = DelayLaw.uniform(0.0, 0.5)
        assert law.cdf(0.25) == pytest.approx(0.5, abs=1e-15)
        assert law.cdf(-1.0) == 0.0
        assert law.cdf(1.0) == 1.0

    def test_quantile_inverts_cdf(self):
        law = DelayLaw.uniform(0.1, 0.5)
        for u in (0.0, 0.25, 0.5, 0.99):
            assert law.cdf(law.quantile(u)) == pytest.approx(u, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            DelayLaw.discrete([0.3, 0.1], [0.5, 0.5])
        with pytest.raises(ValidationError):
            DelayLaw.discrete([0.1, 0.3], [0.5, 0.6])
        with pytest.raises(ValidationError):
            DelayLaw("degenerate", 0.2, 0.3)
        with pytest.raises(ValidationError):
            DelayLaw.uniform(-0.1, 0.5)


class TestSampleDelays:
    def test_degenerate_all_equal(self):
        d = sample_delays(DelayLaw.degenerate(0.2), 100, 0)
        assert np.all(d == 0.2)

    def test_discrete_frequency(self):
        # binomial concentration at 10^4 draws
        law = DelayLaw.discrete([0.1, 0.3], [0.5, 0.5])
        d = sample_delays(law, 10_000, 1)
        freq = np.mean(d == 0.1)
        assert abs(freq - 0.5) < 0.02

    def test_uniform_mean_clt(self):
        law = DelayLaw.uniform(0.1, 0.5)
        d = sample_delays(law, 10_000, 2)
        bound = 3 * (0.5 - 0.1) / math.sqrt(12 * 10_000)
        assert abs(d.mean() - 0.3) < bound

    def test_uniform_ks_smoke(self):
        law = DelayLaw.uniform(0.0, 1.0)
        d = sample_delays(law, 10_000, 3)
        stat = stats.kstest(d, law.cdf).statistic
        assert stat < 1.63 / math.sqrt(10_000)

    def test_values_within_support(self):
        for law in (DelayLaw.uniform(0.1, 0.4),
                    DelayLaw.discrete([0.1, 0.2, 0.4], [0.2, 0.3, 0.5])):
            d = sample_delays(law, 1000, 4)
            assert np.all(d >= law.a - 1e-15) and np.all(d <= law.b + 1e-15)

    def test_shared_noise_permutation_equivariant(self):
        law = DelayLaw.uniform(0.0, 0.5)
        base = sample_delays(law, 6, SharedNoise(9))
        perm = [3, 1, 5, 0, 2, 4]
        permuted = sample_delays(law, 6, SharedNoise(9).permuted(perm))
        assert np.array_equal(permuted, base[perm])

    def test_degenerate_shared_noise_derives_no_stream(self, monkeypatch):
        real = _rng.generator
        calls = []

        def counting(*key):
            calls.append(key)
            return real(*key)

        monkeypatch.setattr(_rng, "generator", counting)
        d = sample_delays(DelayLaw.degenerate(0.125), 50, SharedNoise(9))
        assert len(calls) == 0
        assert np.array_equal(d, np.full(50, 0.125))


class TestSnapDelays:
    def test_grid_multiple_unchanged(self):
        g = TimeGrid(-0.5, 1.0, 0.1)
        assert snap_delays_to_grid([0.3], g)[0] == pytest.approx(0.3, abs=1e-15)

    def test_rounding(self):
        g = TimeGrid(-0.5, 1.0, 0.1)
        assert snap_delays_to_grid([0.149], g)[0] == pytest.approx(0.1, abs=1e-12)
        assert snap_delays_to_grid([0.151], g)[0] == pytest.approx(0.2, abs=1e-12)

    def test_max_error_half_step(self):
        g = TimeGrid(-0.5, 1.0, 1.0 / 16)
        rng = np.random.default_rng(6)
        d = rng.uniform(0.0, 0.5, 500)
        snapped = snap_delays_to_grid(d, g)
        assert np.abs(snapped - d).max() <= g.h / 2 + 1e-15

    def test_idempotent(self):
        g = TimeGrid(-0.5, 1.0, 1.0 / 16)
        d = snap_delays_to_grid(np.random.default_rng(7).uniform(0, 0.5, 50), g)
        assert np.array_equal(snap_delays_to_grid(d, g), d)


class TestInitialLeaderPath:
    def test_constant_flat(self):
        g = TimeGrid(-0.5, 1.0, 0.125)
        path = sample_initial_leader_path(g, "constant", {"value": 2.5}, 0)
        assert path.shape == (5, 1)
        assert np.all(path == 2.5)

    def test_ou_zero_vol_exponential_decay(self):
        g = TimeGrid(-1.0, 1.0, 0.125)
        path = sample_initial_leader_path(
            g, "ou_path", {"theta": 2.0, "vol": 0.0, "start": 5.0}, 0)
        ts = np.arange(9) * 0.125
        assert np.abs(path[:, 0] - 5.0 * np.exp(-2.0 * ts)).max() <= 1e-12

    def test_scaled_brownian_increment_variance(self):
        # E|xi(t) - xi(s)|^2 = sigma^2 |t - s| over 10^4 samples within 5%
        g = TimeGrid(-0.5, 1.0, 1.0 / 32)
        rng = np.random.default_rng(10)
        lag = g.zero_index // 4
        sigma = 0.7
        incs = np.empty(10_000)
        for k in range(10_000):
            p = sample_initial_leader_path(g, "scaled_brownian", {"sigma": sigma}, rng)
            incs[k] = p[-1, 0] - p[-1 - lag, 0]
        target = sigma ** 2 * lag * g.h
        assert abs(np.mean(incs ** 2) - target) < 0.05 * target

    def test_invalid_params(self):
        g = TimeGrid(-0.5, 1.0, 0.125)
        with pytest.raises(ValidationError):
            sample_initial_leader_path(g, "ou_path", {"theta": -1.0}, 0)
        with pytest.raises(ValidationError):
            sample_initial_leader_path(g, "nope", {}, 0)
        with pytest.raises(ValidationError):
            sample_initial_leader_path(g, "constant", {"value": 0.0, "bogus": 1}, 0)


class TestFollowerInitials:
    def test_constant(self):
        x = draw_follower_initial({"family": "constant", "params": {"value": 1.5}},
                                  np.random.default_rng(0), 1)
        assert np.all(x == 1.5)

    def test_normal_moments(self):
        rng = np.random.default_rng(1)
        x = draw_follower_initial(
            {"family": "normal", "params": {"loc": 2.0, "scale": 0.5}},
            rng, 1, size=20_000)
        assert abs(x.mean() - 2.0) < 0.02
        assert abs(x.std() - 0.5) < 0.02

    def test_student_t_needs_df(self):
        with pytest.raises(ParameterError):
            draw_follower_initial({"family": "student_t", "params": {"df": 2.0}},
                                  np.random.default_rng(2), 1)


class TestModelSpecInitialConditions:
    @pytest.mark.parametrize("kw, key", [
        ({"follower_init": {"family": "normal", "params": {"scael": 0.6}}},
         "scael"),
        ({"leader_init": {"family": "ou_path", "params": {"thetaa": 1.0}}},
         "thetaa"),
        ({"follower_init": {"family": "student_t", "params": {"df": 2.0}}},
         "df > 2"),
        ({"leader_init": {"family": "ou_path", "params": {"theta": -1.0}}},
         "theta"),
        ({"leader_init": {"family": "brownian", "params": {}}}, "brownian"),
    ])
    def test_rejected_at_construction(self, kw, key):
        with pytest.raises(ParameterError, match=key):
            make_model(**kw)

    def test_every_documented_key_accepted(self):
        make_model(
            leader_init={"family": "ou_path", "params": {
                "theta": 1.0, "mean": 0.1, "vol": 0.2, "start": 0.3,
                "dim": 1}},
            follower_init={"family": "student_t", "params": {
                "loc": 0.1, "scale": 0.5, "df": 4.5}})


class TestDraws:
    def model(self):
        return make_model(
            leader_init={"family": "scaled_brownian", "params": {"sigma": 0.5}},
            follower_init={"family": "student_t",
                           "params": {"df": 4.5, "scale": 0.5}})

    def test_head_equals_smaller_sample(self):
        # a follower's draws are rows of one block per role
        model, law = self.model(), DelayLaw.uniform(0.0, 0.125)
        big = Draws.sample(model, law, SharedNoise(5), 12).head(7)
        small = Draws.sample(model, law, SharedNoise(5), 7)
        for field in ("leader_init_path", "leader_noise", "follower_init",
                      "follower_noise", "delays"):
            assert np.array_equal(getattr(big, field), getattr(small, field))

    @settings(max_examples=25, deadline=None)
    @given(init=st.sampled_from([
               {"family": "normal", "params": {"scale": 0.6}},
               {"family": "student_t", "params": {"df": 4.5, "scale": 0.5}}]),
           law=st.sampled_from([DelayLaw.uniform(0.0, 0.125),
                                DelayLaw.discrete([0.0625, 0.125],
                                                  [0.5, 0.5])]),
           seed=st.integers(0, 2 ** 32 - 1), N=st.integers(1, 24),
           data=st.data())
    def test_sample_equals_head_of_larger_sample(self, init, law, seed, N,
                                                 data):
        # nested N: normal, Student t and uniform blocks are row-major, so
        # a prefix of a block is the smaller block, bit for bit
        n = data.draw(st.integers(1, N))
        model = make_model(follower_init=init)
        big = Draws.sample(model, law, SharedNoise(seed), N).head(n)
        small = Draws.sample(model, law, SharedNoise(seed), n)
        for f in dataclasses.fields(Draws):
            assert np.array_equal(getattr(big, f.name),
                                  getattr(small, f.name)), f.name

    def test_permuted_noise_permutes_rows(self):
        model, law = self.model(), DelayLaw.uniform(0.0, 0.125)
        perm = [4, 2, 0, 5, 1, 3]
        base = Draws.sample(model, law, SharedNoise(5), 6)
        view = Draws.sample(model, law, SharedNoise(5).permuted(perm), 6)
        for name in ("follower_init", "follower_noise", "delays"):
            assert np.array_equal(getattr(view, name),
                                  getattr(base, name)[perm])
        assert np.array_equal(view.leader_noise, base.leader_noise)

    def test_simulate_nplayer_same_with_and_without_draws(self):
        model, law = self.model(), DelayLaw.uniform(0.0, 0.125)
        noise = SharedNoise(9)
        d = Draws.sample(model, law, noise, 6)
        a = simulate_nplayer(model, ZERO_POLICIES, 6, law, noise)
        b = simulate_nplayer(model, ZERO_POLICIES, 6, law, noise, d)
        assert np.array_equal(a.follower_paths, b.follower_paths)
        assert np.array_equal(a.leader_path, b.leader_path)
        with pytest.raises(ValidationError):
            simulate_nplayer(model, ZERO_POLICIES, 5, law, noise, d)

    def test_shapes_checked(self):
        d = Draws.sample(self.model(), DelayLaw.degenerate(0.0),
                         SharedNoise(1), 3)
        with pytest.raises(ValidationError):
            dataclasses.replace(d, delays=np.zeros(2))
        with pytest.raises(ValidationError):
            d.head(4)


class TestCoefficientSet:
    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            CoefficientSet("bogus", {})

    def test_unknown_param(self):
        with pytest.raises(ParameterError):
            CoefficientSet("linear_quadratic", {"zz": 1.0})

    def test_measure_gain_requires_feature(self):
        with pytest.raises(ParameterError):
            CoefficientSet("linear_quadratic", {"k1": 0.5}, ())
        CoefficientSet("linear_quadratic", {"k1": 0.5}, ("mean",))

    def test_linear_in_measure_kernel_declared(self):
        with pytest.raises(ParameterError):
            CoefficientSet("linear_in_measure",
                           {"k1": 0.5, "kernel": "tanh_mean"}, ("mean",))
        CoefficientSet("linear_in_measure",
                       {"k1": 0.5, "kernel": "tanh_mean"}, ("tanh_mean",))


class TestLipschitzProbe:
    def test_constant_coefficient_zero(self):
        fn = lambda x, mu, v: np.array([3.0])
        assert lipschitz_probe(fn, 25, 1.0, 0) == 0.0

    def test_linear_slope_exact(self):
        fn = lambda x, mu, v: 3.0 * np.asarray(x)
        assert lipschitz_probe(fn, 25, 1.0, 1) == pytest.approx(3.0, abs=1e-9)

    def test_declared_L_bounds_probe(self):
        coeffs = CoefficientSet(
            "linear_quadratic",
            {"a1": 0.5, "b1": 0.25, "k1": 0.2, "s1": 0.1},
            ("mean",))
        ratio = lipschitz_probe(coefficient_function(coeffs, "g1"), 50, 2.0, 2)
        assert ratio <= 1.0 * 1.01

    def test_measure_kernel_ratio_on_diracs(self):
        # 1-Lipschitz mean kernel: measure increments bounded by W2 on Diracs
        coeffs = CoefficientSet("linear_in_measure", {"k1": 1.0}, ("mean",))
        g1 = coefficient_function(coeffs, "g1")
        rng = np.random.default_rng(13)
        x = np.zeros(1)
        v = np.zeros(1)
        for _ in range(50):
            ya, yb = rng.normal(size=2)
            za = DiscreteMeasure(np.array([[ya]]), np.ones(1))
            zb = DiscreteMeasure(np.array([[yb]]), np.ones(1))
            num = abs(float(g1(x, za, v)[0] - g1(x, zb, v)[0]))
            assert num <= abs(ya - yb) + 1e-12


class TestSimulateNPlayer:
    def test_all_zero_coefficients_frozen(self):
        model = make_model(
            leader_init={"family": "constant", "params": {"value": 1.0}},
            follower_init={"family": "constant", "params": {"value": 2.0}})
        b = simulate_nplayer(model, ZERO_POLICIES, 3, DelayLaw.degenerate(0.125), 0)
        assert np.all(b.leader_path == 1.0)
        assert np.all(b.follower_paths == 2.0)

    def test_pure_drift_path_equals_time(self):
        # g1 = b1 * v with v constant 1 gives dX = dt exactly on the grid
        model = make_model(params={"b1": 1.0})
        policies = PolicySet(Policy("zero"), Policy("constant", {"value": 1.0}))
        b = simulate_nplayer(model, policies, 2, DelayLaw.degenerate(0.125), 0)
        ts = b.grid.forward_times
        assert np.abs(b.follower_paths[0, :, 0] - ts).max() <= 1e-12

    def test_brownian_variance(self):
        # no interaction, sigma = 1: terminal sample variance across 10^4
        # i.i.d. followers is T within 5%
        grid = TimeGrid(0.0, 0.25, 1.0 / 16)
        model = make_model(grid=grid, params={"s1": 1.0})
        b = simulate_nplayer(model, ZERO_POLICIES, 10_000, DelayLaw.degenerate(0.0), 5)
        var = b.follower_paths[:, -1, 0].var()
        assert abs(var - 0.25) < 0.05 * 0.25

    def test_needs_two_followers(self):
        model = make_model()
        with pytest.raises(ValidationError):
            simulate_nplayer(model, ZERO_POLICIES, 1, DelayLaw.degenerate(0.0), 0)

    def test_delay_exceeding_history_rejected(self):
        model = make_model()
        with pytest.raises(ValidationError):
            simulate_nplayer(model, ZERO_POLICIES, 2, DelayLaw.degenerate(0.5), 0)

    def test_explosion_names_step(self):
        model = make_model(params={"a1": 1e200},
                           follower_init={"family": "constant", "params": {"value": 1.0}})
        with pytest.raises(SimulationDivergedError) as err:
            simulate_nplayer(model, ZERO_POLICIES, 2, DelayLaw.degenerate(0.0), 0)
        assert err.value.step >= 0
        assert "step" in str(err.value)

    def test_determinism_bit_identical(self):
        model = make_model(params={"a1": -0.5, "k1": 0.3, "s1": 0.2},
                           feats=("mean",))
        law = DelayLaw.discrete([0.0625, 0.125], [0.5, 0.5])
        b1 = simulate_nplayer(model, ZERO_POLICIES, 6, law, 42)
        b2 = simulate_nplayer(model, ZERO_POLICIES, 6, law, 42)
        assert np.array_equal(b1.leader_path, b2.leader_path)
        assert np.array_equal(b1.follower_paths, b2.follower_paths)
        assert np.array_equal(b1.delays, b2.delays)

    def test_permutation_symmetry_exact(self):
        # relabeling followers permutes paths bit-for-bit, leader unchanged
        model = make_model(
            params={"a0": -0.2, "k0": 0.4, "s0": 0.1,
                    "a1": -0.5, "k1": 0.3, "s1": 0.2},
            feats=("mean", "tanh_mean"),
            leader_init={"family": "scaled_brownian", "params": {"sigma": 0.5}},
            follower_init={"family": "normal", "params": {"scale": 1.0}})
        policies = PolicySet(Policy("affine", {"gain": 0.1}),
                             Policy("affine", {"gain": -0.2, "gain_lead": 0.5}))
        law = DelayLaw.uniform(0.0, 0.125)
        N = 8
        perm = [5, 3, 7, 1, 0, 6, 2, 4]
        base = simulate_nplayer(model, policies, N, law, SharedNoise(77))
        relab = simulate_nplayer(model, policies, N, law,
                                 SharedNoise(77).permuted(perm))
        assert np.array_equal(relab.leader_path, base.leader_path)
        assert np.array_equal(relab.delays, base.delays[perm])
        assert np.array_equal(relab.follower_paths, base.follower_paths[perm])

    def test_moment_stability_under_refinement(self):
        # E[sup_t |y|^2] stable within 10% when h is halved
        law = DelayLaw.degenerate(0.125)
        policies = PolicySet(Policy("zero"),
                             Policy("affine", {"gain_lead": 0.3}))
        vals = []
        for h in (1.0 / 16, 1.0 / 32):
            grid = TimeGrid(-0.125, 0.5, h)
            model = make_model(
                grid=grid,
                params={"a1": -1.0, "k1": 0.3, "b1": 0.5, "s1": 0.3},
                feats=("mean",),
                leader_init={"family": "scaled_brownian", "params": {"sigma": 0.4}},
                follower_init={"family": "normal", "params": {"scale": 0.7}})
            sups = []
            for rep in range(1000):
                b = simulate_nplayer(model, policies, 4, law, 1000 + rep)
                sups.append(np.max(np.sum(b.follower_paths ** 2, axis=2)))
            vals.append(np.mean(sups))
        assert abs(vals[0] - vals[1]) <= 0.1 * max(vals)

    def test_grid_refinement_strong_order(self):
        # coupled Brownian ladder: halving h changes the path by O(h) in
        # mean-square sup norm for state-dependent control-free sigma;
        # slope of E[sup |y_h - y_{h/2}|^2] vs h within 1 +- 0.3
        T = 1.0
        fine_steps = 128
        h_fine = T / fine_steps
        law = DelayLaw.degenerate(0.0)
        params = {"a1": -1.0, "s1": 0.2, "s1_x": 0.4}
        pairs = [(16, 32), (32, 64), (64, 128)]
        diffs = {p: [] for p in pairs}
        rng = np.random.default_rng(31)
        N = 2
        for rep in range(150):
            zf = rng.standard_normal((N, fine_steps, 1))
            dwf = math.sqrt(h_fine) * zf
            x_init = rng.normal(size=(N, 1))
            paths = {}
            for steps in (16, 32, 64, 128):
                s = fine_steps // steps
                h = T / steps
                zeta = dwf.reshape(N, steps, s, 1).sum(axis=2) / math.sqrt(h)
                model = make_model(grid=TimeGrid(0.0, T, h), params=params)
                draws = Draws(leader_init_path=np.zeros((1, 1)),
                              leader_noise=np.zeros((steps, 1)),
                              follower_init=x_init, follower_noise=zeta,
                              delays=np.zeros(N))
                b = simulate_nplayer(model, ZERO_POLICIES, N, law, 0, draws)
                paths[steps] = b.follower_paths
            for coarse, fine in pairs:
                s = fine // coarse
                gap = paths[coarse][:, :, 0] - paths[fine][:, ::s, 0]
                diffs[(coarse, fine)].append(np.max(gap ** 2, axis=1).mean())
        hs = np.array([T / coarse for coarse, _ in pairs])
        means = np.array([np.mean(diffs[p]) for p in pairs])
        slope = np.polyfit(np.log(hs), np.log(means), 1)[0]
        assert abs(slope - 1.0) <= 0.3, (slope, means)


class TestCosts:
    def test_zero_cost_zero_states(self):
        model = make_model(params={"cost0_terminal": 1.0})
        b = simulate_nplayer(model, ZERO_POLICIES, 2, DelayLaw.degenerate(0.0), 0)
        J0, Ji = evaluate_costs_nplayer(b, model)
        assert J0 == 0.0
        assert Ji == [0.0, 0.0]

    def test_constant_running_cost_exact(self):
        # f0 = 1, h = 0: rectangle rule on a constant is exactly T
        grid = TimeGrid(-0.125, 1.0, 1.0 / 64)
        model = make_model(grid=grid, params={"cost0_const": 1.0})
        b = simulate_nplayer(model, ZERO_POLICIES, 2, DelayLaw.degenerate(0.0), 0)
        J0, _ = evaluate_costs_nplayer(b, model)
        assert J0 == 1.0

    def test_quadratic_cost_on_drift_path(self):
        # path = t, running cost x^2: integral T^3/3 within h * T^2
        grid = TimeGrid(0.0, 1.0, 1.0 / 64)
        model = make_model(grid=grid, params={"b1": 1.0, "cost1_state": 1.0})
        policies = PolicySet(Policy("zero"), Policy("constant", {"value": 1.0}))
        b = simulate_nplayer(model, policies, 2, DelayLaw.degenerate(0.0), 0)
        _, Ji = evaluate_costs_nplayer(b, model)
        assert abs(Ji[0] - 1.0 / 3.0) <= (1.0 / 64)

    def test_terminal_cost(self):
        grid = TimeGrid(0.0, 0.5, 1.0 / 32)
        model = make_model(grid=grid, params={"b1": 1.0, "cost1_terminal": 1.0})
        policies = PolicySet(Policy("zero"), Policy("constant", {"value": 1.0}))
        b = simulate_nplayer(model, policies, 2, DelayLaw.degenerate(0.0), 0)
        _, Ji = evaluate_costs_nplayer(b, model)
        assert Ji[0] == pytest.approx(0.25, abs=1e-12)

    def test_control_cost_exact(self):
        # f1 = |v|^2 with constant control c: J = c^2 T exactly
        grid = TimeGrid(0.0, 1.0, 1.0 / 32)
        model = make_model(grid=grid, params={"cost1_control": 1.0})
        policies = PolicySet(Policy("zero"), Policy("constant", {"value": 0.7}))
        b = simulate_nplayer(model, policies, 2, DelayLaw.degenerate(0.0), 0)
        _, Ji = evaluate_costs_nplayer(b, model)
        assert Ji[0] == pytest.approx(0.49, abs=1e-12)

    def test_costs_deterministic_given_bundle(self):
        model = make_model(params={"a1": -0.5, "s1": 0.3, "cost1_state": 1.0,
                                   "cost0_track": 0.5},
                           feats=("mean",),
                           follower_init={"family": "normal", "params": {}})
        b = simulate_nplayer(model, ZERO_POLICIES, 5, DelayLaw.degenerate(0.0), 3)
        assert evaluate_costs_nplayer(b, model) == evaluate_costs_nplayer(b, model)


class TestConstructorContracts:
    """Every per-object rule lives in the constructor, and a constructor
    answers any JSON value with a StackmfError."""

    @pytest.mark.parametrize("make", [
        lambda: TimeGrid("-0.5", "1", "0.25"),
        lambda: TimeGrid(-0.5, True, 0.25),
        lambda: TimeGrid.over(None, 1.0, 0.25),
        lambda: TimeGrid.over(0.5, [1.0], 0.25),
        lambda: TimeGrid.over(0.5, 1.0, math.nan),
        lambda: DelayLaw.degenerate(math.inf),
        lambda: DelayLaw.uniform("0.1", 0.5),
        lambda: DelayLaw.discrete(None, [1.0]),
        lambda: DelayLaw.discrete([], []),
        lambda: DelayLaw.discrete([0.1, 0.3], [0.0, 1.0]),
        lambda: DelayLaw.discrete([0.1, 0.3], [True, 0.0]),
        lambda: CoefficientSet("linear_quadratic", {"a1": "0.5"}),
        lambda: CoefficientSet("linear_quadratic", {"a1": True}),
        lambda: CoefficientSet("linear_quadratic", [1.0]),
        lambda: CoefficientSet(["linear_quadratic"], {}),
        lambda: CoefficientSet("linear_quadratic", {}, "mean"),
        lambda: CoefficientSet("linear_quadratic", {}, None),
        lambda: Policy("affine", {"gain": "x"}),
        lambda: Policy("constant", {"value": None}),
        lambda: Policy("affine", [0.1]),
        lambda: Policy(None),
        lambda: make_model(n1=True),
        lambda: make_model(n1=2.0),
        lambda: make_model(q="6"),
        lambda: make_model(follower_init={"family": "normal",
                                          "params": {"scale": "0.5"}}),
        lambda: make_model(leader_init={"family": "ou_path",
                                        "params": {"vol": math.nan}}),
        lambda: make_model(leader_init={"family": "ou_path", "params": [1]}),
        lambda: make_model(follower_init=[("family", "normal")]),
    ])
    def test_bad_values_raise_validation_errors(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_step_must_divide_the_named_spans(self):
        with pytest.raises(ValidationError, match="the lag span b"):
            TimeGrid.over(0.1, 1.0, 0.25)
        with pytest.raises(ValidationError, match="the horizon T"):
            TimeGrid.over(0.25, 0.9, 0.25)

    def test_values_normalized_to_floats(self):
        assert TimeGrid.over(1, 2, 1) == TimeGrid(-1.0, 2.0, 1.0)
        assert Policy("constant", {"value": 1}).params["value"] == 1.0
        assert isinstance(make_model(q=6).q, float)

    def test_custom_family_is_gone(self):
        with pytest.raises(ParameterError):
            Policy("custom", {"fn": lambda *a: 0.0})

    def test_leader_reads_no_gain_lead(self):
        lead = Policy("affine", {"gain": 0.1, "gain_lead": 1.0})
        with pytest.raises(ParameterError, match="gain_lead"):
            PolicySet(lead, Policy("zero"))
        PolicySet(Policy("zero"), lead)
        PolicySet(Policy("zero"), Policy("zero"), deviant=lead)


class TestDeviantPolicy:
    @pytest.mark.parametrize("deviant", [
        Policy("zero"),
        Policy("constant", {"value": 0.7}),
        Policy("affine", {"gain": -0.4, "gain_lead": 0.9, "offset": 0.1}),
    ])
    @pytest.mark.parametrize("follower", [
        Policy("zero"),
        Policy("constant", {"value": -0.2}),
        Policy("affine", {"gain": 0.3, "gain_lead": -0.5}),
    ])
    def test_follower_zero_plays_the_deviant(self, deviant, follower):
        rng = np.random.default_rng(0)
        x1, x0_delayed = rng.normal(size=(5, 1)), rng.normal(size=(5, 1))
        profile = PolicySet(Policy("zero"), follower)
        mixed = PolicySet(Policy("zero"), follower, deviant=deviant)
        alone = PolicySet(Policy("zero"), deviant)
        v = mixed.follower_value(x1, x0_delayed, 1)
        base = np.broadcast_to(profile.follower_value(x1, x0_delayed, 1),
                               (5, 1))
        assert v.shape == (5, 1)
        assert np.array_equal(v[1:], base[1:])
        assert np.array_equal(
            v[0], np.broadcast_to(alone.follower_value(x1, x0_delayed, 1),
                                  (5, 1))[0])
        assert np.array_equal(mixed.leader_value(x1[0], 1),
                              profile.leader_value(x1[0], 1))


class TestStackedReplications:
    """Row r of a stacked call equals the call on replication r alone."""

    LAW = DelayLaw.discrete([0.0625, 0.125], [0.5, 0.5])
    FOLLOWER = Policy("affine", {"gain": -0.2, "gain_lead": 0.4})

    def model(self, n1=1, feats=("mean",), params=None):
        return make_model(
            params=params or {
                "a0": -0.5, "k0": 0.4, "s0": 0.3, "s0_x": 0.1,
                "a1": -0.8, "k1": 0.5, "s1": 0.3, "s1_x": 0.2,
                "cost0_state": 0.5, "cost0_track": 0.3, "cost0_terminal": 0.2,
                "cost1_state": 1.0, "cost1_control": 0.2,
                "cost1_track": 0.5, "cost1_terminal": 0.7},
            feats=feats, n0=n1, n1=n1, p0=n1, p1=n1,
            leader_init={"family": "scaled_brownian", "params": {"sigma": 0.5}},
            follower_init={"family": "student_t",
                           "params": {"df": 4.5, "scale": 0.5}})

    @pytest.mark.parametrize("deviant", [None, Policy("constant", {"value": 0.5})])
    @pytest.mark.parametrize("leader", [
        Policy("zero"), Policy("constant", {"value": 0.3}),
        Policy("affine", {"gain": -0.4, "offset": 0.1})])
    @pytest.mark.parametrize("n1, feats", [
        (1, ("mean",)), (2, ("mean", "second_moment"))])
    def test_rows_equal_single_runs(self, leader, deviant, n1, feats):
        model = self.model(n1, feats)
        pols = PolicySet(leader, self.FOLLOWER, deviant=deviant)
        noises = [SharedNoise(s) for s in (3, 7, 11)]
        draws = [Draws.sample(model, self.LAW, noise, 6) for noise in noises]
        stacked = simulate_nplayer(model, pols, 6, self.LAW, noises,
                                   Draws.stack(draws))
        J0, Ji = evaluate_costs_nplayer(stacked, model)
        assert stacked.follower_paths.shape[:2] == (3, 6)
        for r, (noise, d) in enumerate(zip(noises, draws)):
            one = simulate_nplayer(model, pols, 6, self.LAW, noise, d)
            assert np.array_equal(stacked.leader_path[r], one.leader_path)
            assert np.array_equal(stacked.follower_paths[r], one.follower_paths)
            assert np.array_equal(stacked.delays[r], one.delays)
            for role in ("leader", "followers"):
                assert np.array_equal(stacked.controls_applied[role][r],
                                      one.controls_applied[role])
            j0, ji = evaluate_costs_nplayer(one, model)
            assert J0[r] == j0
            assert Ji[r].tolist() == ji

    def test_head_of_stacked_draws_equals_stacked_heads(self):
        model = self.model()
        draws = [Draws.sample(model, self.LAW, SharedNoise(s), 8) for s in (1, 2)]
        a = Draws.stack(draws).head(5)
        b = Draws.stack([d.head(5) for d in draws])
        assert a.N == 5 and a.stacked
        for field in dataclasses.fields(Draws):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name))

    def test_relabeling_one_replication_permutes_only_its_rows(self):
        model = self.model()
        pols = PolicySet(Policy("affine", {"gain": -0.4}), self.FOLLOWER)
        noises = [SharedNoise(s) for s in (3, 7)]
        draws = [Draws.sample(model, self.LAW, noise, 6) for noise in noises]
        perm = np.array([3, 0, 5, 1, 4, 2])
        d = draws[1]
        relabeled = Draws(d.leader_init_path, d.leader_noise,
                          d.follower_init[perm], d.follower_noise[perm],
                          d.delays[perm])
        a = simulate_nplayer(model, pols, 6, self.LAW, noises,
                             Draws.stack(draws))
        b = simulate_nplayer(model, pols, 6, self.LAW, noises,
                             Draws.stack([draws[0], relabeled]))
        assert np.array_equal(a.leader_path, b.leader_path)
        assert np.array_equal(a.follower_paths[0], b.follower_paths[0])
        assert np.array_equal(a.follower_paths[1][perm], b.follower_paths[1])
        Ja, Jb = evaluate_costs_nplayer(a, model), evaluate_costs_nplayer(b, model)
        assert np.array_equal(Ja[0], Jb[0])
        assert np.array_equal(Ja[1][1][perm], Jb[1][1])
        assert np.array_equal(Ja[1][0], Jb[1][0])

    def test_divergence_names_the_earliest_replication(self):
        # no noise: x grows by (1 + a1 h) per step, so the start sets the
        # step that overflows; replication 2 overflows first, 1 later
        model = self.model(params={"a1": 1000.0})
        m = model.grid.forward_steps
        rows = []
        for start in (0.0, 1e300, 1e307):
            rows.append(Draws(np.zeros((model.grid.zero_index + 1, 1)),
                              np.zeros((m, 1)), np.full((3, 1), start),
                              np.zeros((3, m, 1)), np.zeros(3)))
        with pytest.raises(SimulationDivergedError) as stacked:
            simulate_nplayer(model, ZERO_POLICIES, 3, self.LAW, [None] * 3,
                             Draws.stack(rows))
        with pytest.raises(SimulationDivergedError) as alone:
            simulate_nplayer(model, ZERO_POLICIES, 3, self.LAW, 0, rows[1])
        assert stacked.value.step == alone.value.step > 0
        assert str(stacked.value) == str(alone.value)
        simulate_nplayer(model, ZERO_POLICIES, 3, self.LAW, 0, rows[0])
