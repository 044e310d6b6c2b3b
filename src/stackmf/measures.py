"""Finitely supported measures, exact quadratic optimal transport, and the
empirical-measure rate oracle.

Two independent routes compute W2: a hand-built monotone quantile coupling for
dimension 1 and an exact linear-program route (assignment solver for uniform
equal-size instances, HiGHS simplex otherwise).  They cross-check each other in
the test suite.

The assignment solver runs on column-reduced costs (each column less its
minimum, the opening step of Jonker & Volgenant, Computing 38, 1987): that
adds one constant to the cost of every permutation, so the optimal
permutations are the same, and the solver starts nearer its optimum.  Every
W2 value is priced on the original squared distances.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Iterable

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from ._pool import _run_replications
from .dynamics import _SEED_RULES, _check_rules, _is_int
from .errors import (CapacityError, DimensionError, ParameterError,
                     SimulationDivergedError, ValidationError)

WEIGHT_TOL = 1e-12
MARGINAL_TOL = 1e-10
# points of the dimension-1 rate curve's reference sample, per point of max(Ns)
_REF_RATIO = 20


@dataclasses.dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure with finite support: points (N, d), weights (N,)."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float).ravel()
        if pts.ndim != 2:
            raise DimensionError("points must be a (N, d) array")
        if pts.shape[0] != w.shape[0]:
            raise ValidationError(
                f"{pts.shape[0]} points but {w.shape[0]} weights")
        if not np.isfinite(pts).all() or not np.isfinite(w).all():
            raise ValidationError("non-finite entries in measure")
        if (w < 0).any():
            raise ValidationError("negative weight")
        if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"weights sum to {w.sum()!r}, not 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


@dataclasses.dataclass(frozen=True)
class TransportPlan:
    """Coupling matrix between two discrete measures."""

    row_measure: DiscreteMeasure
    col_measure: DiscreteMeasure
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        n_r, n_c = self.row_measure.n_points, self.col_measure.n_points
        if m.shape != (n_r, n_c):
            raise DimensionError(f"plan shape {m.shape}, expected {(n_r, n_c)}")
        if np.any(m < -MARGINAL_TOL):
            raise ValidationError("negative plan entry")
        row_err = np.abs(m.sum(axis=1) - self.row_measure.weights).max()
        col_err = np.abs(m.sum(axis=0) - self.col_measure.weights).max()
        if row_err > MARGINAL_TOL or col_err > MARGINAL_TOL:
            raise ValidationError(
                f"marginal mismatch: row {row_err:.3e}, col {col_err:.3e}")
        object.__setattr__(self, "matrix", m)

    def cost(self) -> float:
        """Transport cost sum gamma_ij |x_i - y_j|^2 of this plan."""
        sq = cdist(self.row_measure.points, self.col_measure.points,
                   "sqeuclidean")
        return float(np.sum(self.matrix * sq))


def empirical_from_samples(samples) -> DiscreteMeasure:
    """Uniform-weight measure on the given points; duplicates are kept."""
    pts = np.asarray(samples, dtype=float)
    if pts.size == 0:
        raise ValidationError("empty sample list")
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    return DiscreteMeasure(pts, np.full(n, 1.0 / n))


def moment(mu: DiscreteMeasure, q: float) -> float:
    """q-th moment functional (sum w_i |x_i|^q)^(1/q)."""
    if q < 1:
        raise ParameterError(f"q must be >= 1, got {q}")
    norms = np.sqrt(np.sum(mu.points ** 2, axis=1))
    return float(np.sum(mu.weights * norms ** q) ** (1.0 / q))


def mixture(components, lambdas) -> DiscreteMeasure:
    """Weighted concatenation sum_k lambda_k mu_k; supports are not merged."""
    lams = np.asarray(lambdas, dtype=float).ravel()
    comps = list(components)
    if len(comps) != lams.shape[0]:
        raise ValidationError("one lambda per component required")
    if np.any(lams < 0):
        raise ValidationError("negative mixture weight")
    if abs(float(lams.sum()) - 1.0) > 1e-10:
        raise ValidationError(f"lambdas sum to {lams.sum()!r}, not 1")
    dims = {c.dim for c in comps}
    if len(dims) != 1:
        raise DimensionError(f"inconsistent component dimensions {sorted(dims)}")
    pts = np.concatenate([c.points for c in comps], axis=0)
    w = np.concatenate([lam * c.weights for lam, c in zip(lams, comps)])
    s = float(w.sum())
    if s != 1.0:
        w = w / s
    return DiscreteMeasure(pts, w)


def rate_f(n1: int, N) -> float:
    """Empirical-measure W2^2 rate factor f(N) by dimension (natural log).

    This is the Fournier & Guillin (PTRF 2015) upper bound on E W2^2 between
    a law and its N-sample empirical measure, used as the paper's f(N).  It
    is not a sharp rate: for Gaussian samples in dimension 1, for instance,
    E W2^2 decays like log log N / N, faster than N^(-1/2).
    """
    if n1 < 1:
        raise ParameterError(f"n1 must be a positive integer, got {n1}")
    if N < 2:
        raise ParameterError(f"N must be >= 2, got {N}")
    N = float(N)
    if n1 < 4:
        return N ** -0.5
    if n1 == 4:
        return N ** -0.5 * np.log(N)
    return N ** (-2.0 / n1)


# ---------------------------------------------------------------------------
# exact W2, dimension-1 quantile route


def _sorted_cdf(points: np.ndarray, weights: np.ndarray):
    order = np.argsort(points, kind="stable")
    cum = np.cumsum(weights[order])
    cum[-1] = 1.0
    return points[order], cum


def w2_exact_1d(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W2 between one-dimensional discrete measures via the monotone coupling.

    The optimal coupling in dimension 1 matches quantile functions; the value
    is the weighted sum of squared quantile differences over the merged
    cumulative-weight grid.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise DimensionError("w2_exact_1d requires one-dimensional measures")
    sq = float(_w2sq_quantile(mu.points[:, 0], mu.weights,
                              nu.points[:, 0], nu.weights))
    return float(np.sqrt(max(sq, 0.0)))


def _w2sq_quantile(x, wx, y, wy) -> np.ndarray:
    """W2^2 per slice between weighted 1-D point sets x (..., n) and
    y (..., m) via the monotone coupling; every slice of x has the weights
    wx (n,), every slice of y the weights wy (m,).

    Weights exactly 1/len in every entry, on both sides, take the uniform
    core and its cached grid; any other weights take the general route,
    one slice at a time.  Squares that overflow give inf.
    """
    x, wx, y, wy = (np.asarray(v, float) for v in (x, wx, y, wy))
    with np.errstate(over="ignore", invalid="ignore"):
        if (wx == 1.0 / wx.size).all() and (wy == 1.0 / wy.size).all():
            return _w2sq_uniform_1d(np.sort(x, axis=-1), np.sort(y, axis=-1))
        rows = zip(x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1]))
        return np.array([_w2sq_weighted(xs, wx, ys, wy)
                         for xs, ys in rows]).reshape(x.shape[:-1])


def _w2sq_weighted(x, wx, y, wy) -> float:
    xs, cx = _sorted_cdf(x, wx)
    ys, cy = _sorted_cdf(y, wy)
    widths, xi, yi = _quantile_grid(cx, cy)
    d = xs[xi] - ys[yi]
    return float(np.sum(widths * d * d))


def _quantile_grid(cx, cy):
    """Cell widths of the merged cumulative-weight grid, and the quantile
    index of each side per cell."""
    levels = np.union1d(cx, cy)
    widths = np.diff(np.concatenate(([0.0], levels)))
    mids = levels - widths / 2
    return (widths, np.searchsorted(cx, mids, side="left"),
            np.searchsorted(cy, mids, side="left"))


@functools.lru_cache(maxsize=16)
def _uniform_grid(n: int, m: int):
    """Read-only _quantile_grid of weights 1/n and 1/m; their cumulative
    sums do not depend on the sort order, so neither does the grid."""
    grid = _quantile_grid(*(_sorted_cdf(np.zeros(k), np.full(k, 1.0 / k))[1]
                            for k in (n, m)))
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _w2sq_uniform_1d(a, b) -> np.ndarray:
    """W2^2 per slice between uniform 1-D float clouds a (..., n), b (..., m),
    each already sorted along its last axis.

    Each slice is summed as its own 1-D array, as in the general route: a
    2-D sum along the last axis can round differently."""
    widths, xi, yi = _uniform_grid(a.shape[-1], b.shape[-1])
    d = a[..., xi] - b[..., yi]
    terms = (widths * d * d).reshape(-1, widths.size)
    return np.array([np.sum(row) for row in terms]).reshape(a.shape[:-1])


# ---------------------------------------------------------------------------
# exact W2, LP route

_NON_FINITE = ("non-finite squared distance: non-finite points, or points "
               "too far apart to square")


def _assign(cost: np.ndarray):
    """Optimal assignment (rows, cols) of a finite square cost matrix, which
    is overwritten with its column reduction (see the module docstring);
    in place, it needs no second n x n array."""
    cost -= cost.min(axis=0)
    return linear_sum_assignment(cost)


def _transport_lp(cost: np.ndarray, wp: np.ndarray, wq: np.ndarray) -> np.ndarray:
    n, m = cost.shape
    nm = n * m
    row_A = sparse.csr_matrix(
        (np.ones(nm), np.arange(nm), np.arange(0, nm + 1, m)), shape=(n, nm))
    col_A = sparse.csr_matrix(
        (np.ones(nm), (np.tile(np.arange(m), n), np.arange(nm))), shape=(m, nm))
    # last column constraint is implied by the others; drop it for full rank
    A = sparse.vstack([row_A, col_A[:-1]], format="csc")
    b = np.concatenate([wp, wq[:-1]])
    res = linprog(cost.ravel(), A_eq=A, b_eq=b, bounds=(0, None),
                  method="highs",
                  options={"presolve": False,
                           "primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise ValidationError(f"transport LP failed: {res.message}")
    return np.clip(res.x.reshape(n, m), 0.0, None)


def w2_exact_lp(mu: DiscreteMeasure, nu: DiscreteMeasure,
                support_cap: int = 512):
    """Exact W2 via the finite transportation problem.

    Returns (W2, TransportPlan).  Equal-size uniform instances are routed to
    the assignment solver, which runs on a column-reduced copy of the costs,
    everything else to the HiGHS simplex, whose basic solutions carry
    machine-precision marginals.  The plan is priced on the original costs.
    Squared distances that overflow are a ValidationError.
    """
    value, plan = _w2_or_inf(mu, nu, support_cap)
    if plan is None:
        raise ValidationError(_NON_FINITE)
    return value, plan


def _w2_or_inf(mu: DiscreteMeasure, nu: DiscreteMeasure,
               support_cap: int = 512):
    """(W2, plan) of ``w2_exact_lp`` from one cost matrix, or (inf, None)
    when the squared distances of the (finite) points overflow, as the sums
    of the quantile route do."""
    if mu.dim != nu.dim:
        raise DimensionError(f"dimension mismatch {mu.dim} vs {nu.dim}")
    n, m = mu.n_points, nu.n_points
    if n > support_cap or m > support_cap:
        raise CapacityError(
            f"support sizes ({n}, {m}) exceed cap {support_cap}")
    cost = cdist(mu.points, nu.points, "sqeuclidean")
    if not np.isfinite(cost.max()):
        return math.inf, None
    uniform = (n == m
               and np.abs(mu.weights - 1.0 / n).max() < 1e-12
               and np.abs(nu.weights - 1.0 / n).max() < 1e-12)
    if uniform:
        rows, cols = _assign(cost.copy())
        matrix = np.zeros((n, m))
        matrix[rows, cols] = mu.weights[rows]
    else:
        matrix = _transport_lp(cost, mu.weights, nu.weights)
    plan = TransportPlan(mu, nu, matrix)
    value = float(np.sum(matrix * cost))
    return float(np.sqrt(max(value, 0.0))), plan


def _w2sq_integral(a, b, wb, h: float, m: int) -> float:
    """Rectangle rule: sum over steps k < m of W2^2 h between the uniform
    empirical measure of a[:, k] and (b[:, k], wb).  With n1 = 1 one
    quantile-route call serves all steps, rounded per step as w2_exact_1d
    rounds; with n1 > 1 one LP per step, up to the first step whose
    squared distances overflow.  Non-finite points are a ValidationError;
    a sum made non-finite raises SimulationDivergedError at its step."""
    wa = np.full(a.shape[0], 1.0 / a.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        if a.shape[2] == 1:
            if not (np.isfinite(a[:, :m]).all() and np.isfinite(b[:, :m]).all()):
                raise ValidationError("non-finite entries in measure")
            vals = [float(np.sqrt(max(sq, 0.0))) for sq in _w2sq_quantile(
                a[:, :m, 0].T, wa, b[:, :m, 0].T, wb).tolist()]
        else:
            vals = (_w2_or_inf(DiscreteMeasure(a[:, k], wa),
                               DiscreteMeasure(b[:, k], wb))[0]
                    for k in range(m))
    total = 0.0
    for k, val in enumerate(vals):
        total += val * val * h
        if not math.isfinite(total):
            raise SimulationDivergedError(
                k, f"non-finite W2 integral at forward step {k}")
    return total


def w2sq_uniform_samples(x: np.ndarray, y: np.ndarray) -> float:
    """W2^2 between uniform empirical measures of two same-size point clouds.

    Assignment shortcut used by the rate experiments; agrees with
    w2_exact_lp(empirical(x), empirical(y))^2.  The solver runs on the
    column-reduced cost matrix, reduced in place; the matched pairs are then
    priced on the original squared distances, by cdist over blocks of pairs,
    which gives the full matrix's entries bit for bit.  Empty clouds and
    non-finite squared distances are a ValidationError.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if x.shape != y.shape:
        raise DimensionError("clouds must have identical shapes")
    if x.shape[0] == 0:
        raise ValidationError("empty point cloud")
    cost = cdist(x, y, "sqeuclidean")
    # the column reduction would turn an all-inf column into nan
    if not np.isfinite(cost.max()):
        raise ValidationError(_NON_FINITE)
    rows, cols = _assign(cost)
    sq = np.concatenate([
        np.diagonal(cdist(x[rows[i:i + 64]], y[cols[i:i + 64]], "sqeuclidean"))
        for i in range(0, rows.size, 64)])
    return float(sq.mean())


# ---------------------------------------------------------------------------
# empirical-measure rate experiment


def empirical_rate_curve(dim: int, Ns, reps, seed: int = 0):
    """Monte-Carlo means of W2^2 between Gaussian empirical measures along Ns.

    dim == 1 compares against one fixed high-resolution reference sample
    (_REF_RATIO * max(Ns) points, exact quantile coupling).  Higher dimensions
    use the equal-size independent-two-sample statistic solved by exact
    assignment, which shares the N-scaling of the one-sample quantity;
    a fixed reference of the mandated ratio is not exactly computable there.

    In dimension 1 the Gaussian decay is E W2^2 ~ log log N / N (Bobkov &
    Ledoux, Mem. AMS 2019), sharper than the upper bound in `rate_f`.

    Every sample is drawn here first, in stream order.  The solves then run
    on one forked worker per CPU this process may use (``_pool``), at most
    one per solve: the affinity mask (``taskset``) limits them, and on one
    CPU they run here, with no pool.  The worker count moves no byte.

    reps may be an int or a per-N sequence.  Returns (means, stderrs).
    A dim, N or replication count that is not an integer, dim < 1, an
    empty Ns, an N < 1, fewer than 2 replications (no standard error) or
    a seed that is not an integer >= 0 is a ParameterError.
    """
    Ns = list(Ns)
    reps = list(reps) if isinstance(reps, Iterable) \
        and not isinstance(reps, str) else [reps] * len(Ns)
    if len(reps) != len(Ns):
        raise ValidationError("need one replication count per N")
    if not Ns:
        raise ParameterError("Ns is empty")
    for label, values, least in (("dim", [dim], 1), ("every N", Ns, 1),
                                 ("every replication count", reps, 2)):
        odd = [v for v in values if not _is_int(v)]
        if odd:
            raise ParameterError(f"{label} must be an integer, got {odd[0]!r}")
        if min(values) < least:
            raise ParameterError(f"{label} must be >= {least}, got "
                                 f"{min(values)}")
    _check_rules(_SEED_RULES, {"seed": seed})
    Ns, reps = [int(N) for N in Ns], [int(r) for r in reps]
    from ._rng import generator

    if dim == 1:
        ref = np.sort(generator(seed, 0).standard_normal(_REF_RATIO * max(Ns)))
    samples = []
    for k, (N, R) in enumerate(zip(Ns, reps)):
        gen = generator(seed, 1, k)
        samples += [gen.standard_normal(N) if dim == 1
                    else (gen.standard_normal((N, dim)),
                          gen.standard_normal((N, dim))) for _ in range(R)]

    def solve(i):
        return float(_w2sq_uniform_1d(np.sort(samples[i]), ref) if dim == 1
                     else w2sq_uniform_samples(*samples[i]))

    # as many workers as solves, capped by the CPUs this process may use
    solved = iter(_run_replications(solve, len(samples), len(samples)))
    means, errs = [], []
    for R in reps:
        vals = np.array([next(solved) for _ in range(R)])
        means.append(vals.mean())
        errs.append(vals.std(ddof=1) / np.sqrt(R))
    return np.array(means), np.array(errs)
