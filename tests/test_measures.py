"""Exact transport distances on finite supports.

The 1-D quantile route and the LP route are independent implementations and
are cross-checked against each other and against a brute-force coupling
enumeration on tiny instances.
"""
import concurrent.futures
import itertools
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from stackmf import _pool, measures
from stackmf._rng import generator
from stackmf.errors import (
    CapacityError,
    DimensionError,
    ParameterError,
    SimulationDivergedError,
    ValidationError,
)
from stackmf.measures import (
    DiscreteMeasure,
    TransportPlan,
    empirical_from_samples,
    empirical_rate_curve,
    mixture,
    moment,
    rate_f,
    w2_exact_1d,
    w2_exact_lp,
    w2sq_uniform_samples,
)


def dirac(x):
    pt = np.atleast_1d(np.asarray(x, float))
    return DiscreteMeasure(pt[None, :], np.ones(1))


def uniform_on(points):
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.shape[0] == 1 and pts.shape[1] > 1 and np.asarray(points).ndim == 1:
        pts = pts.T
    n = pts.shape[0]
    return DiscreteMeasure(pts, np.full(n, 1.0 / n))


def w2sq_bruteforce(mu, nu):
    """Minimize over vertices of the transportation polytope.

    Every vertex of the polytope is supported on a spanning forest; for the
    tiny instances used here it is enough to minimize over all couplings
    whose support is a subset of size <= n + m - 1, solved by iterating the
    north-west style completion over all support orders.  Simpler and fully
    reliable: grid-search over all assignments when both sides are uniform
    with equal size, otherwise solve the LP by enumerating basic supports.
    """
    cost = cdist(mu.points, nu.points, "sqeuclidean")
    n, m = cost.shape
    if n == m and np.allclose(mu.weights, 1.0 / n) and np.allclose(nu.weights, 1.0 / n):
        best = np.inf
        for perm in itertools.permutations(range(n)):
            val = sum(cost[i, perm[i]] for i in range(n)) / n
            best = min(best, val)
        return best
    # enumerate supports of size at most n + m - 1 and check feasibility of
    # the resulting linear system
    cells = list(itertools.product(range(n), range(m)))
    best = np.inf
    for size in range(max(n, m), n + m):
        for support in itertools.combinations(cells, size):
            a = np.zeros((n + m, size))
            for k, (i, j) in enumerate(support):
                a[i, k] = 1.0
                a[n + j, k] = 1.0
            b = np.concatenate([mu.weights, nu.weights])
            sol, residual, rank, _ = np.linalg.lstsq(a, b, rcond=None)
            if np.linalg.norm(a @ sol - b) > 1e-9:
                continue
            if np.any(sol < -1e-9):
                continue
            val = sum(float(sol[k]) * cost[i, j] for k, (i, j) in enumerate(support))
            best = min(best, val)
    return best


class TestDiscreteMeasure:
    def test_basic_fields(self):
        mu = DiscreteMeasure(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]))
        assert mu.dim == 1
        assert mu.n_points == 2

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.6]))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure(np.array([[np.inf]]), np.ones(1))

    def test_weight_count_mismatch(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure(np.array([[0.0], [1.0]]), np.ones(3) / 3)

    def test_empirical_from_samples_keeps_duplicates(self):
        mu = empirical_from_samples(np.array([1.0, 1.0, 2.0]))
        assert mu.n_points == 3
        assert np.allclose(mu.weights, 1.0 / 3)
        # duplicate atoms are kept as-is, not merged
        assert np.sum(mu.points == 1.0) == 2

    def test_empirical_from_samples_2d(self):
        x = np.arange(12.0).reshape(6, 2)
        mu = empirical_from_samples(x)
        assert mu.dim == 2
        assert mu.n_points == 6


class TestMoment:
    def test_dirac(self):
        assert moment(dirac(3.0), 2) == pytest.approx(3.0)

    def test_uniform_two_atoms(self):
        # ((0 + 2^2)/2)^(1/2) = sqrt(2)
        mu = uniform_on([0.0, 2.0])
        assert moment(mu, 2) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_q4(self):
        mu = uniform_on([0.0, 2.0])
        assert moment(mu, 4) == pytest.approx(8.0 ** 0.25, abs=1e-12)

    def test_q_below_one_rejected(self):
        with pytest.raises(ParameterError):
            moment(dirac(1.0), 0.5)

    def test_2d_uses_euclidean_norm(self):
        mu = dirac([3.0, 4.0])
        assert moment(mu, 2) == pytest.approx(5.0)


class TestRateF:
    def test_low_dim(self):
        assert rate_f(3, 100) == pytest.approx(0.1, abs=1e-15)
        assert rate_f(1, 4) == pytest.approx(0.5, abs=1e-15)

    def test_boundary_dim_four(self):
        assert rate_f(4, 100) == pytest.approx(0.1 * np.log(100.0), abs=1e-12)
        assert rate_f(4, 100) == pytest.approx(0.46051701859880916, abs=1e-12)

    def test_high_dim(self):
        assert rate_f(6, 64) == pytest.approx(64.0 ** (-1.0 / 3.0), abs=1e-15)
        assert rate_f(6, 64) == pytest.approx(0.25, abs=1e-12)

    def test_monotone_in_N(self):
        for n1 in (1, 3, 4, 5, 8):
            vals = [rate_f(n1, N) for N in (8, 16, 32, 64, 128)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_invalid_args(self):
        with pytest.raises(ParameterError):
            rate_f(0, 10)
        with pytest.raises(ParameterError):
            rate_f(3, 1)


class TestW2Exact1d:
    def test_identical_diracs(self):
        assert w2_exact_1d(dirac(1.0), dirac(1.0)) == 0.0

    def test_shifted_diracs(self):
        assert w2_exact_1d(dirac(0.0), dirac(1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_vs_dirac(self):
        # W2^2 = 0.5*(0-1)^2 + 0.5*(2-1)^2 = 1
        assert w2_exact_1d(uniform_on([0.0, 2.0]), dirac(1.0)) == pytest.approx(
            1.0, abs=1e-14)

    def test_same_measure_zero(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            mu = empirical_from_samples(rng.normal(size=9))
            assert w2_exact_1d(mu, mu) <= 1e-12

    def test_translation_exact(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=15)
        mu = empirical_from_samples(x)
        nu = empirical_from_samples(x + 2.5)
        assert w2_exact_1d(mu, nu) == pytest.approx(2.5, abs=1e-12)

    def test_unequal_weights(self):
        # mu = 0.25 at 0, 0.75 at 1; nu = dirac at 0
        mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
        assert w2_exact_1d(mu, dirac(0.0)) == pytest.approx(np.sqrt(0.75), abs=1e-14)

    def test_requires_dim_one(self):
        with pytest.raises(DimensionError):
            w2_exact_1d(dirac([0.0, 0.0]), dirac([1.0, 1.0]))

    def test_order_of_atoms_irrelevant(self):
        mu1 = DiscreteMeasure(np.array([[2.0], [0.0]]), np.array([0.4, 0.6]))
        mu2 = DiscreteMeasure(np.array([[0.0], [2.0]]), np.array([0.6, 0.4]))
        nu = uniform_on([1.0, 3.0, 5.0])
        assert w2_exact_1d(mu1, nu) == pytest.approx(w2_exact_1d(mu2, nu), abs=1e-14)


class TestW2ExactLp:
    def test_shifted_diracs_2d(self):
        d, plan = w2_exact_lp(dirac([0.0, 0.0]), dirac([3.0, 4.0]))
        assert d == pytest.approx(5.0, abs=1e-12)
        assert plan.matrix.shape == (1, 1)
        assert plan.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_parallel_uniform_pairs(self):
        mu = uniform_on(np.array([[0.0, 0.0], [1.0, 0.0]]))
        nu = uniform_on(np.array([[0.0, 1.0], [1.0, 1.0]]))
        d, plan = w2_exact_lp(mu, nu)
        assert d == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_bruteforce_uniform(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            mu = uniform_on(rng.normal(size=(n, 2)))
            nu = uniform_on(rng.normal(size=(n, 2)))
            d, _ = w2_exact_lp(mu, nu)
            assert d ** 2 == pytest.approx(w2sq_bruteforce(mu, nu), abs=1e-9)

    def test_agrees_with_bruteforce_weighted(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            m = int(rng.integers(1, 4))
            wp = rng.dirichlet(np.ones(n))
            wq = rng.dirichlet(np.ones(m))
            mu = DiscreteMeasure(rng.normal(size=(n, 2)), wp)
            nu = DiscreteMeasure(rng.normal(size=(m, 2)), wq)
            d, _ = w2_exact_lp(mu, nu)
            assert d ** 2 == pytest.approx(w2sq_bruteforce(mu, nu), abs=1e-8)

    def test_agrees_with_1d_route(self):
        # the two routes are independent implementations; 200 random
        # instances must agree to 1e-9
        rng = np.random.default_rng(23)
        for k in range(200):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            if k % 3 == 0:
                mu = uniform_on(rng.normal(size=n))
                nu = uniform_on(rng.normal(size=m))
            else:
                mu = DiscreteMeasure(rng.normal(size=(n, 1)),
                                     rng.dirichlet(np.ones(n)))
                nu = DiscreteMeasure(rng.normal(size=(m, 1)),
                                     rng.dirichlet(np.ones(m)))
            d_lp, _ = w2_exact_lp(mu, nu)
            d_1d = w2_exact_1d(mu, nu)
            assert abs(d_lp - d_1d) <= 1e-9, (k, d_lp, d_1d)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            mus = [uniform_on(rng.normal(size=(5, 2))) for _ in range(3)]
            dab, _ = w2_exact_lp(mus[0], mus[1])
            dbc, _ = w2_exact_lp(mus[1], mus[2])
            dac, _ = w2_exact_lp(mus[0], mus[2])
            assert dac <= dab + dbc + 1e-8

    def test_symmetry(self):
        rng = np.random.default_rng(25)
        mu = DiscreteMeasure(rng.normal(size=(4, 3)), rng.dirichlet(np.ones(4)))
        nu = DiscreteMeasure(rng.normal(size=(6, 3)), rng.dirichlet(np.ones(6)))
        assert w2_exact_lp(mu, nu)[0] == pytest.approx(
            w2_exact_lp(nu, mu)[0], abs=1e-10)

    def test_translation_exact_2d(self):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(8, 2))
        shift = np.array([1.0, -2.0])
        d, _ = w2_exact_lp(uniform_on(x), uniform_on(x + shift))
        assert d == pytest.approx(np.sqrt(5.0), abs=1e-10)

    def test_plan_marginals_and_cost(self):
        rng = np.random.default_rng(27)
        mu = DiscreteMeasure(rng.normal(size=(5, 2)), rng.dirichlet(np.ones(5)))
        nu = DiscreteMeasure(rng.normal(size=(3, 2)), rng.dirichlet(np.ones(3)))
        d, plan = w2_exact_lp(mu, nu)
        assert np.abs(plan.matrix.sum(axis=1) - mu.weights).max() <= 1e-10
        assert np.abs(plan.matrix.sum(axis=0) - nu.weights).max() <= 1e-10
        assert plan.cost() == pytest.approx(d ** 2, abs=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            w2_exact_lp(dirac(0.0), dirac([0.0, 0.0]))

    def test_support_cap(self):
        big = uniform_on(np.arange(600.0))
        with pytest.raises(CapacityError):
            w2_exact_lp(big, dirac(0.0))
        # cap can be raised explicitly
        d, _ = w2_exact_lp(uniform_on(np.arange(20.0)), dirac(0.0),
                           support_cap=10_000)
        assert d > 0


class TestTransportPlan:
    def test_rejects_bad_marginals(self):
        mu = uniform_on([0.0, 1.0])
        nu = uniform_on([0.0, 1.0])
        bad = np.array([[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(ValidationError):
            TransportPlan(mu, nu, bad)

    def test_rejects_negative(self):
        mu = uniform_on([0.0, 1.0])
        nu = uniform_on([0.0, 1.0])
        bad = np.array([[0.6, -0.1], [-0.1, 0.6]])
        with pytest.raises(ValidationError):
            TransportPlan(mu, nu, bad)


class TestMixture:
    def test_weights_combine(self):
        mu = mixture([dirac(0.0), dirac(1.0)], [0.3, 0.7])
        assert mu.n_points == 2
        assert np.allclose(mu.weights, [0.3, 0.7])

    def test_moment_identity(self):
        # M_2(mixture)^2 = sum lambda_h M_2(mu_h)^2
        rng = np.random.default_rng(31)
        comps = [empirical_from_samples(rng.normal(loc=k, size=6))
                 for k in range(3)]
        lams = np.array([0.2, 0.5, 0.3])
        mix = mixture(comps, lams)
        lhs = moment(mix, 2) ** 2
        rhs = sum(l * moment(c, 2) ** 2 for l, c in zip(lams, comps))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_lambda_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            mixture([dirac(0.0), dirac(1.0)], [0.3, 0.8])

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            mixture([dirac(0.0), dirac([0.0, 1.0])], [0.5, 0.5])


class TestW2sqUniformSamples:
    def test_matches_lp_route(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(6, 2))
        y = rng.normal(size=(6, 2))
        val = w2sq_uniform_samples(x, y)
        d, _ = w2_exact_lp(uniform_on(x), uniform_on(y))
        assert val == pytest.approx(d ** 2, abs=1e-10)

    def test_matches_quantile_route_1d(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=16)
        y = rng.normal(size=16)
        val = w2sq_uniform_samples(x, y)
        ref = w2_exact_1d(empirical_from_samples(x), empirical_from_samples(y))
        assert val == pytest.approx(ref ** 2, abs=1e-12)


class TestColumnReducedAssignment:
    """The solver runs on column-reduced costs; the permutation, the bytes of
    w2sq_uniform_samples, and the plan and value of w2_exact_lp equal those
    of the plain solve on the cdist matrix."""

    @staticmethod
    def assert_same_as_plain_solve(x, y):
        cost = cdist(x, y, "sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        got_rows, got_cols = measures._assign(cost.copy())
        assert np.array_equal(got_rows, rows)
        assert np.array_equal(got_cols, cols)
        assert (w2sq_uniform_samples(x, y).hex()
                == float(cost[rows, cols].mean()).hex())
        return cost, rows, cols

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 9),
           n=st.integers(2, 300), log_scale=st.floats(-3.0, 3.0))
    def test_same_plans_and_bytes(self, seed, dim, n, log_scale):
        rng = np.random.default_rng(seed)
        x, y = 10.0 ** log_scale * rng.standard_normal((2, n, dim))
        cost, rows, cols = self.assert_same_as_plain_solve(x, y)
        matrix = np.zeros((n, n))
        matrix[rows, cols] = 1.0 / n
        d, plan = w2_exact_lp(uniform_on(x), uniform_on(y))
        assert np.array_equal(plan.matrix, matrix)
        assert d.hex() == float(
            np.sqrt(max(float(np.sum(matrix * cost)), 0.0))).hex()

    def test_same_plan_and_bytes_at_rate_curve_size(self):
        rng = np.random.default_rng(1600)
        self.assert_same_as_plain_solve(rng.standard_normal((1600, 3)),
                                        rng.standard_normal((1600, 3)))

    def test_no_second_cost_matrix(self):
        n = 1000
        x, y = np.random.default_rng(7).standard_normal((2, n, 3))
        tracemalloc.start()
        try:
            w2sq_uniform_samples(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n * n


class TestExactW2Errors:
    """Inputs the solvers cannot take are ValidationErrors, raised before the
    in-place column reduction (where an all-inf column would become nan)."""

    @pytest.mark.parametrize("shape", [(0,), (0, 2)])
    def test_empty_clouds(self, shape):
        with pytest.raises(ValidationError, match="empty"):
            w2sq_uniform_samples(np.empty(shape), np.empty(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_costs_uniform_samples(self, bad, side):
        clouds = [np.zeros((3, 2)), np.ones((3, 2))]
        clouds[side][1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            w2sq_uniform_samples(*clouds)

    @pytest.mark.parametrize("m", [3, 2])   # assignment and LP branches
    @pytest.mark.parametrize("side", [0, 1])
    def test_overflowing_costs_exact_lp(self, m, side):
        far = [uniform_on(np.zeros((3, 2))), uniform_on(np.ones((m, 2)))]
        pts = far[side].points.copy()
        pts[-1, 0] = 1e200
        far[side] = uniform_on(pts)
        with pytest.raises(ValidationError, match="non-finite"):
            w2_exact_lp(*far)

    @pytest.mark.parametrize("n1", [1, 2])   # quantile and LP routes
    def test_overflowing_w2_integral_names_its_step(self, n1):
        # finite points whose squares overflow from forward step 1 on
        a = np.zeros((3, 4, n1))
        a[0, 1:] = 1e200
        b = np.ones((3, 4, n1))
        with pytest.raises(SimulationDivergedError,
                           match="non-finite W2 integral at forward step 1"):
            measures._w2sq_integral(a, b, np.full(3, 1.0 / 3), 0.25, 4)

    @pytest.mark.parametrize("m", [3, 2])   # assignment and LP branches
    def test_one_cost_matrix_per_lp_call(self, m, monkeypatch):
        # the overflow test of the W2 integral's n1 > 1 route reuses the
        # matrix that the solve prices
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return cdist(*args, **kwargs)

        monkeypatch.setattr(measures, "cdist", counted)
        rng = np.random.default_rng(3)
        w2_exact_lp(uniform_on(rng.standard_normal((3, 2))),
                    uniform_on(rng.standard_normal((m, 2))))
        assert len(calls) == 1
        a, b = rng.standard_normal((3, 4, 2)), rng.standard_normal((m, 4, 2))
        calls.clear()
        measures._w2sq_integral(a, b, np.full(m, 1.0 / m), 0.25, 4)
        assert len(calls) == 4          # one per forward step


class TestEmpiricalRateCurve:
    @pytest.mark.parametrize("dim, Ns, reps", [
        (0, [8, 16], 3),
        (-1, [8, 16], 3),
        (2, [], 3),
        (2, [8, 0], 3),
        (1, [0], 3),
        (2, [8, 16], 1),
        (1, [8, 16], 0),
        (3, [8, 16], [3, 1]),
    ])
    def test_rejects_bad_arguments(self, dim, Ns, reps):
        with pytest.raises(ParameterError):
            empirical_rate_curve(dim, Ns, reps, seed=3)

    @pytest.mark.parametrize("dim, Ns, reps, message", [
        (2, [8.5, 16], 3, "every N must be an integer, got 8.5"),
        (2, [8, 16.0], 3, "every N must be an integer, got 16.0"),
        (2, [8, True], 3, "every N must be an integer, got True"),
        (2, [8, 16], 2.5, "every replication count must be an integer, "
                          "got 2.5"),
        (2, [8, 16], "3", "every replication count must be an integer, "
                          "got '3'"),
        (3, [8, 16], [3, 4.0], "every replication count must be an "
                               "integer, got 4.0"),
        (2.0, [8, 16], 3, "dim must be an integer, got 2.0"),
        # the range messages stay as they were
        (0, [8, 16], 3, "dim must be >= 1, got 0"),
        (2, [8, 0], 3, "every N must be >= 1, got 0"),
        (3, [8, 16], [3, 1], "every replication count must be >= 2, got 1"),
    ])
    def test_non_integers_are_parameter_errors(self, dim, Ns, reps, message):
        with pytest.raises(ParameterError) as info:
            empirical_rate_curve(dim, Ns, reps, seed=3)
        assert str(info.value) == message

    def test_numpy_integers_give_the_bytes_of_ints(self):
        want = np.array(empirical_rate_curve(2, [8, 16], [3, 4], seed=9))
        got = np.array(empirical_rate_curve(
            np.int64(2), np.array([8, 16]), np.array([3, 4]), seed=9))
        assert got.tobytes() == want.tobytes()
        got = np.array(empirical_rate_curve(2, (8, 16), np.int64(3), seed=9))
        assert got.tobytes() == np.array(
            empirical_rate_curve(2, [8, 16], 3, seed=9)).tobytes()

    def test_shapes_and_positivity(self):
        means, stderrs = empirical_rate_curve(1, [8, 16], reps=5, seed=3)
        assert means.shape == (2,) and stderrs.shape == (2,)
        assert np.all(means > 0) and np.all(stderrs > 0)

    def test_decreasing_in_N(self):
        means, _ = empirical_rate_curve(3, [8, 64], reps=20, seed=4)
        assert means[0] > means[1]

    def test_deterministic(self):
        a = empirical_rate_curve(2, [8, 16], reps=5, seed=9)[0]
        b = empirical_rate_curve(2, [8, 16], reps=5, seed=9)[0]
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_same_bytes_at_one_and_two_workers(self, dim, monkeypatch):
        # the reference is the serial loop: each N draws from its own
        # stream, x before y, and its replications are solved in order
        Ns, reps, seed = [8, 32, 64], [5, 4, 3], 7
        ref = np.sort(generator(seed, 0).standard_normal(20 * max(Ns)))
        want = []
        for k, (N, R) in enumerate(zip(Ns, reps)):
            gen = generator(seed, 1, k)
            vals = np.empty(R)
            for r in range(R):
                x = gen.standard_normal(N if dim == 1 else (N, dim))
                vals[r] = (measures._w2sq_uniform_1d(np.sort(x), ref)
                           if dim == 1 else
                           w2sq_uniform_samples(x, gen.standard_normal(x.shape)))
            want.append((vals.mean(), vals.std(ddof=1) / np.sqrt(R)))
        want = np.array(want).T

        sizes = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, **kwargs):
                sizes.append(workers)
                super().__init__(workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recording)
        for cpus in (1, 2):
            monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
            got = np.array(empirical_rate_curve(dim, Ns, reps, seed=seed))
            assert got.tobytes() == want.tobytes(), cpus
            assert multiprocessing.active_children() == []
        assert sizes == [2]     # one pool over every solve, on 2 CPUs only


class TestUniformCore:
    """The cached-grid core for uniform 1-D clouds gives the bytes of the
    general quantile route, slice by slice."""

    @staticmethod
    def clouds(rng, T, n, spacing):
        pts = rng.standard_normal((T, n))
        if spacing:
            # rounding makes ties, and -0.0 from small negative values
            pts = np.round(pts / spacing) * spacing
        zeros = rng.random((T, n)) < 0.1
        pts[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        return pts

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 600), m=st.integers(1, 600),
           T=st.integers(1, 20), same=st.booleans(),
           spacing=st.sampled_from([None, 1.0, 0.25]),
           seed=st.integers(0, 2**32 - 1))
    def test_core_matches_general_route(self, n, m, T, same, spacing, seed):
        m = n if same else m
        rng = np.random.default_rng(seed)
        a = self.clouds(rng, T, n, spacing)
        b = self.clouds(rng, T, m, spacing)
        # the core takes clouds sorted along their last axis
        core = measures._w2sq_uniform_1d(np.sort(a, axis=-1),
                                         np.sort(b, axis=-1))
        assert core.shape == (T,)
        wa, wb = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        for t in range(T):
            ref = np.float64(measures._w2sq_weighted(a[t], wa, b[t], wb))
            routed = np.float64(measures._w2sq_quantile(a[t], wa, b[t], wb))
            assert core[t].tobytes() == ref.tobytes() == routed.tobytes()

    def test_uniform_weights_take_the_core(self, monkeypatch):
        def general(*args):
            raise AssertionError("general route taken")
        monkeypatch.setattr(measures, "_w2sq_weighted", general)
        x = np.array([0.3, -1.0, 2.0])
        assert measures._w2sq_quantile(x, np.full(3, 1 / 3), x[:2],
                                       np.full(2, 0.5)) >= 0

    @pytest.mark.parametrize("wx", [
        [0.2, 0.3, 0.5],
        [1 / 3, 1 / 3, 1 - 2 / 3],       # sums to 1 but is not exactly 1/3
    ])
    def test_other_weights_take_the_general_route(self, monkeypatch, wx):
        def core(*args):
            raise AssertionError("uniform core taken")
        monkeypatch.setattr(measures, "_w2sq_uniform_1d", core)
        x = np.array([0.3, -1.0, 2.0])
        assert measures._w2sq_quantile(x, np.array(wx), x,
                                       np.full(3, 1 / 3)) >= 0

    def test_grid_is_cached_and_read_only(self):
        grid = measures._uniform_grid(7, 12)
        assert measures._uniform_grid(7, 12) is grid
        for arr in grid:
            with pytest.raises(ValueError):
                arr[0] = 0
