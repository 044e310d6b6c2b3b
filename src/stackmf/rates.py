"""Convergence-rate experiments between the N-player game and its limit.

Each experiment runs seeded replications; one replication fixes a leader
noise realization, solves the conditional law flow for it, simulates the
N-player system and its synchronously coupled limit twin from the same
noise streams, and records squared path gaps, Wasserstein terms, or cost
gaps.  Means over replications feed an ordinary least-squares fit of
log gap against log N, which is then compared to the predicted exponent
for the scenario's regime.

Replications are independent and seeded by (master seed, index); one
driver, ``_replicate``, runs them in blocks, and neither the block size nor
the number of worker processes changes the numbers.  With more than one
worker, forked processes (``_pool``) map the blocks; there are never more
workers than blocks or CPUs this process may use.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
import types
from fractions import Fraction

import numpy as np

from ._pool import _run_replications
from ._rng import REPLICATION, SharedNoise, child_entropy
from .dynamics import (
    DelayLaw,
    Draws,
    ModelSpec,
    PolicySet,
    TimeGrid,
    _SEED_RULES,
    _at_least,
    _check_lag_span,
    _check_rules,
    _is_int,
    _is_real,
    _phi_block,
    evaluate_costs_nplayer,
    path_controls,
    simulate_nplayer,
)
from .errors import (
    ExperimentInvalidError,
    ParameterError,
    SimulationDivergedError,
    ValidationError,
)
from .meanfield import (
    ConditionalLawFlow,
    _SOLVER_RULES,
    _check_particles,
    _partition_for,
    evaluate_costs_limit,
    simulate_limit_pair,
    solve_conditional_law,
)
from .measures import DiscreteMeasure, _w2sq_integral, w2_exact_lp

_SUPPORT_CAP = 512
# replications a gap or epsilon-Nash block steps together, for any workload
# and worker count.  A gap block holds a flow per replication
_BLOCK = 8
_SDE_SLOPE_TOL = 0.25       # path-gap slopes carry more Monte-Carlo noise
_MEASURE_SLOPE_TOL = 0.15
_FAIL_FRACTION = 0.05

_REGIMES = ("general", "sigma0_control_free", "discrete_delta",
            "degenerate_delta", "linear_in_measure")
_QUANTITIES = ("squared_state_gap", "cost_gap")
# sharp two-sided rates vs constants-laden upper bounds
_ONE_SIDED_REGIMES = ("general", "sigma0_control_free", "discrete_delta")


def _sizes(least: int):
    """The rule of a gap experiment's population sizes."""
    return (f"at least 3 strictly increasing sizes from {least}",
            lambda Ns: len(Ns) >= 3 and Ns[0] >= least
            and all(a < b for a, b in zip(Ns, Ns[1:])))


_GAP_RULES = {
    "reps": _at_least(50),
    "slope_tol": ("a positive finite real",
                  lambda v: _is_real(v) and 0 < v < math.inf),
    "partition_level": ("'auto' or an integer >= 1",
                        lambda v: v == "auto" or _is_int(v) and v >= 1),
    **_SEED_RULES,
}
_CAP = ("a positive real (inf: no cap)", lambda v: _is_real(v) and v > 0)
# the rules of each kind of experiment's arguments: name -> (text, test);
# the smallest population size of each kind is stated here only
_RULES = {
    "state_gap": {"Ns": _sizes(4), **_GAP_RULES},
    "wasserstein_gap": {"Ns": _sizes(2), **_GAP_RULES},
    "cost_gap": {"Ns": _sizes(4), **_GAP_RULES},
    "epsilon_nash": {
        "N": ("an integer >= 2, capped at 64 for full-game runs",
              lambda v: _is_int(v) and 2 <= v <= 64),
        "reps": _at_least(1),
        "deviation_library": ("a nonempty list", lambda v: isinstance(
            v, (list, tuple)) and len(v) > 0),
        "kappa": _CAP, "gamma": _CAP, **_SEED_RULES},
    "eta_orthogonality": {
        "family": ("linear_in_measure, the one family the check targets",
                   lambda v: v == "linear_in_measure"),
        "N": _at_least(2), "panels": _at_least(1),
        "leader_paths": _at_least(1), **_SEED_RULES},
}


# ---------------------------------------------------------------------------
# reports

@dataclasses.dataclass(frozen=True)
class GapReport:
    """Aggregated gap curves for one scenario plus the fitted slope.

    curves maps a quantity name to (means, stderrs) tuples over Ns; the
    slope is fitted on curves[quantity].  predicted_slope is the expected
    log-log slope in N for the declared regime, or None when no regime was
    declared.  verdict is pass/fail/undefined/unchecked.
    """

    scenario: str
    quantity: str
    Ns: tuple
    reps: int
    curves: dict
    slope: float | None
    slope_stderr: float | None
    r2: float | None
    predicted_slope: float | None
    predicted_rate: str | None
    verdict: str
    fixed_point_failures: int = 0

    def __post_init__(self):
        if self.quantity not in self.curves:
            raise ValidationError(
                f"fitted quantity {self.quantity!r} missing from curves")
        for name, (means, stderrs) in self.curves.items():
            if len(means) != len(self.Ns) or len(stderrs) != len(self.Ns):
                raise ValidationError(f"curve {name!r} length mismatch")
            if any(v < 0 for v in means):
                raise ValidationError(f"negative gap estimate in {name!r}")


@dataclasses.dataclass(frozen=True)
class EpsilonReport:
    """Deviation-library certification of a strategy profile.

    Gains are profile cost minus deviation cost for the deviating player
    (positive means the deviation improves), estimated with common random
    numbers; epsilon_hat floors the best follower gain at zero, and
    epsilon2_hat does the same for the leader library.
    """

    scenario: str
    N: int
    reps: int
    profile_leader_cost: float
    profile_follower_cost: float
    follower_costs: tuple
    follower_gains: tuple
    follower_gain_stderrs: tuple
    epsilon_hat: float
    leader_costs: tuple
    leader_gains: tuple
    leader_gain_stderrs: tuple
    epsilon2_hat: float
    common_random_numbers: bool = True

    def __post_init__(self):
        if self.epsilon_hat < 0 or self.epsilon2_hat < 0:
            raise ValidationError("epsilon estimates must be nonnegative")


@dataclasses.dataclass(frozen=True)
class EtaReport:
    """Orthogonality diagnostic for linear-in-measure interaction terms."""

    scenario: str
    N: int
    panels: int
    leader_paths: int
    time_index: int
    lhs: float
    rhs: float
    fixed_point_failures: int = 0

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs


# ---------------------------------------------------------------------------
# slope fitting and predicted exponents

def fit_slope(Ns, values):
    """OLS fit of log(value) on log(N); returns (slope, stderr, r2)."""
    Ns = np.asarray(Ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if Ns.ndim != 1 or Ns.shape != values.shape or Ns.size < 3:
        raise ValidationError("need at least 3 (N, value) pairs")
    if np.any(values <= 0) or not np.all(np.isfinite(values)):
        raise ValidationError("slope fit needs positive finite values")
    x = np.log(Ns)
    y = np.log(values)
    xc = x - x.mean()
    sxx = float(np.dot(xc, xc))
    if sxx <= 0:
        raise ValidationError("N values must not be all equal")
    slope = float(np.dot(xc, y - y.mean()) / sxx)
    resid = y - y.mean() - slope * xc
    rss = float(np.dot(resid, resid))
    tss = float(np.dot(y - y.mean(), y - y.mean()))
    stderr = math.sqrt(max(rss, 0.0) / (Ns.size - 2) / sxx)
    r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
    return slope, stderr, r2


def _rational(x) -> Fraction:
    return Fraction(x).limit_denominator(10 ** 6)


def _check_regime(regime, q=None) -> None:
    """ParameterError unless regime is one of _REGIMES; the general regime's
    exponents also need q > 4 (not checked when q is None)."""
    if regime not in _REGIMES:
        raise ParameterError(f"unknown regime {regime!r}; choose from {_REGIMES}")
    if regime == "general" and q is not None and q <= 4:
        raise ParameterError(
            f"the general regime's exponents need q > 4, got q = {q!r}")


def predicted_exponent(n1: int, q: float, regime: str, quantity: str):
    """Predicted gap exponent for a scenario regime.

    Returns (exponent, rate string).  The exponent applies to f(N-1) for
    the f-based regimes and to 1/N for linear_in_measure; the string is the
    combined rate in N, with the log factor spelled out when n1 = 4.
    """
    _check_regime(regime, q)
    if quantity not in _QUANTITIES:
        raise ParameterError(
            f"unknown quantity {quantity!r}; choose from {_QUANTITIES}")
    if not isinstance(n1, int) or n1 < 1:
        raise ParameterError(f"n1 must be a positive integer, got {n1!r}")
    squared = quantity == "squared_state_gap"
    if regime == "general":
        qf = _rational(q)
        expo = (2 * qf - 4) / (3 * qf - 4) if squared else (qf - 2) / (3 * qf - 4)
    elif regime == "sigma0_control_free":
        expo = Fraction(2, 3) if squared else Fraction(1, 3)
    else:
        # discrete_delta, degenerate_delta, linear_in_measure
        expo = Fraction(1) if squared else Fraction(1, 2)
    if regime == "linear_in_measure":
        return float(expo), f"N^({-expo})"
    if n1 < 4:
        rate = f"N^({-expo / 2})"
    elif n1 == 4:
        log_part = "log(N)" if expo == 1 else f"log(N)^({expo})"
        rate = f"N^({-expo / 2})*{log_part}"
    else:
        rate = f"N^({-expo * Fraction(2, n1)})"
    return float(expo), rate


def predicted_n_slope(n1: int, q: float, regime: str, quantity: str) -> float:
    """Predicted log-log slope in N, log factors at n1 = 4 ignored."""
    expo, _ = predicted_exponent(n1, q, regime, quantity)
    if regime == "linear_in_measure":
        return -expo
    if n1 <= 4:
        return -expo / 2.0
    return -expo * 2.0 / n1


def _verdict(slope, predicted, regime, tol):
    if slope is None:
        return "undefined"
    if regime is None or predicted is None:
        return "unchecked"
    if regime in _ONE_SIDED_REGIMES:
        return "pass" if slope <= predicted + tol else "fail"
    return "pass" if abs(slope - predicted) <= tol else "fail"


# ---------------------------------------------------------------------------
# replication plumbing

def _replicate(run_block, seed, reps, threads, block=_BLOCK):
    """run_block(noises) over blocks of `block` replications, replication
    r on the noise of child_entropy(seed, REPLICATION, r).  run_block
    returns arrays with a row per replication; they come back joined over
    all replications.  A block that diverges runs again one replication at
    a time, to raise the error a serial loop meets first."""
    def unit(b):
        noises = [SharedNoise(child_entropy(int(seed), REPLICATION, r))
                  for r in range(b * block, min((b + 1) * block, reps))]
        try:
            return run_block(noises)
        except SimulationDivergedError:
            for noise in noises:
                run_block([noise])
            raise

    results = _run_replications(unit, -(-int(reps) // block), threads)
    return tuple(np.concatenate(rows) for rows in zip(*results))


def _flow_support(flow: ConditionalLawFlow, cap: int, rng):
    """Flattened (points over time, weights) view of the flow, subsampled to
    at most cap support points; uniform clouds subsample without
    replacement."""
    parts = flow.particles
    n_atoms, K = parts.shape[0], parts.shape[1]
    n = n_atoms * K
    flat = parts.reshape(n, parts.shape[2], parts.shape[3])
    w = np.repeat(flow.weights / K, K)
    w = w / w.sum()
    if n <= cap:
        return flat, w
    if np.allclose(w, w[0]):
        idx = np.sort(rng.choice(n, cap, replace=False))
        return flat[idx], np.full(cap, 1.0 / cap)
    idx = np.sort(rng.choice(n, cap, replace=True, p=w))
    return flat[idx], np.full(cap, 1.0 / cap)


def _w2_time_integral(paths, flow: ConditionalLawFlow, rng,
                      cap: int = _SUPPORT_CAP) -> float:
    """Rectangle-rule integral over [0, T] of W2^2 between the empirical
    measure of the given follower paths and the flow.

    Both supports are capped at `cap` points with the supplied generator;
    the subsample is drawn once and reused at every time index, and its
    noise is part of the reported spread.  When n1 = 1 all forward steps
    go through one quantile-route call; n1 > 1 is measured step by step.
    """
    zflat, zw = _flow_support(flow, cap, rng)
    if paths.shape[0] > cap:
        idx = np.sort(rng.choice(paths.shape[0], cap, replace=False))
        paths = paths[idx]
    return _w2sq_integral(paths, zflat, zw, flow.grid.h,
                          flow.grid.forward_steps)


def _sup_sq_gap(a, b):
    """Per-path sup over the grid of the squared euclidean gap; a square
    that overflows is inf, which the caller reads as a divergence."""
    gap = np.asarray(a, float) - np.asarray(b, float)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(gap * gap, axis=-1).max(axis=-1)


def _atom_sup_mean(values, delays):
    """Mean of `values` per realized delay value, then sup over those."""
    worst = 0.0
    for d in np.unique(delays):
        worst = max(worst, float(values[delays == d].mean()))
    return worst


def _aggregate(rows):
    """(reps, nN) array, reps >= 2 -> per-N mean and standard error
    tuples; overflow gives non-finite values, which the report rejects."""
    arr = np.asarray(rows, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        means = arr.mean(axis=0)
        stderrs = arr.std(axis=0, ddof=1) / math.sqrt(arr.shape[0])
    return tuple(float(v) for v in means), tuple(float(v) for v in stderrs)


def _fit_or_undefined(Ns, means):
    # no slope through a zero or a non-finite mean; the latter then fails
    # the run as a non-finite report
    means = np.asarray(means, float)
    if np.any(means <= 0) or not np.isfinite(means).all():
        return None, None, None
    return fit_slope(Ns, means)


def _check_failures(flags, reps):
    fails = int(sum(flags))
    if fails > _FAIL_FRACTION * reps:
        raise ExperimentInvalidError(
            f"fixed point failed to converge in {fails} of {reps} "
            f"replications (threshold {_FAIL_FRACTION:.0%})")
    return fails


# ---------------------------------------------------------------------------
# gap experiments

def _gap_experiment(model: ModelSpec, policies: PolicySet, delay_law: DelayLaw,
                    Ns, reps: int, K: int, seed, scenario, regime, tol,
                    max_iter, partition_level, slope_tol, threads,
                    *, kind: str, curve_names, quantity: str,
                    rate_quantity: str, nplayer: bool, twin_size, measure,
                    twin_costs: bool = False) -> GapReport:
    """Blocks of replications shared by the three gap experiments.

    Per replication: fix a leader noise realization, draw the inputs of
    max(Ns) followers once and solve the conditional law once per delay
    partition key.  Blocks of ``_BLOCK`` replications then share stacked
    calls: per key one limit twin of twin_size(N) followers for the key's
    largest N (priced too with `twin_costs`), per N one N-player run (with
    `nplayer`); measure(noises, flows, N, bundle, twin) slices them into
    one row of curve values per replication.  A key's flows go before the
    next key is solved.  A block of one replication, as ``_replicate``
    reruns a diverging block, steps a twin per N instead, in the order of
    a serial loop; twin followers do not interact, so the bytes are the
    same.  Means over replications become the curves; the slope is fitted
    on `quantity` and compared with the prediction for `rate_quantity`.
    Every argument is checked before the first replication.
    """
    Ns = tuple(int(n) for n in Ns)
    _check_rules(_RULES[kind], dict(Ns=Ns, reps=reps, slope_tol=slope_tol,
                                    partition_level=partition_level,
                                    seed=seed))
    _check_rules(_SOLVER_RULES, dict(K=K, tol=tol, max_iter=max_iter))
    _check_lag_span(delay_law.b, model.grid)
    _check_particles(delay_law, model, Ns, K, partition_level)
    parts = {N: _partition_for(delay_law, model, N, partition_level)
             for N in Ns}
    pred = rate = None
    if regime is not None:
        pred = predicted_n_slope(model.n1, model.q, regime, rate_quantity)
        rate = predicted_exponent(model.n1, model.q, regime, rate_quantity)[1]

    def run_block(noises):
        samples = [Draws.sample(model, delay_law, noise, Ns[-1])
                   for noise in noises]
        draws = Draws.stack(samples)
        out = np.empty((len(noises), len(curve_names), len(Ns)))
        failed = np.zeros(len(noises), dtype=bool)
        for key, group in itertools.groupby(Ns, parts.get):
            group = list(group)
            flows = []
            for r, noise in enumerate(noises):
                flow, rep = solve_conditional_law(
                    model, policies, key, noise.entropy, K, tol=tol,
                    max_iter=max_iter, draws=samples[r])
                # all the twin reads of a flow; the particles can go
                flows.append(types.SimpleNamespace(
                    leader_seed=flow.leader_seed, features=flow.features)
                    if twin_costs else flow)
                failed[r] |= not rep.converged

            def twin(N):
                d = draws.head(twin_size(N))
                x0, x1 = simulate_limit_pair(model, policies, flows, noises,
                                             d.delays, d)
                return evaluate_costs_limit(model, policies, flows, x0, x1,
                                            d.delays) if twin_costs else (x0, x1)

            shared = twin(group[-1]) if len(noises) > 1 else None
            for N in group:
                bundle = simulate_nplayer(
                    model, policies, N, delay_law, noises,
                    draws.head(N)) if nplayer else None
                out[:, :, Ns.index(N)] = measure(
                    noises, flows, N, bundle,
                    twin(N) if shared is None else shared)
        return out, failed

    stack, failed = _replicate(run_block, seed, reps, threads)
    fails = _check_failures(failed, reps)           # stack (reps, curves, nN)
    curves = {name: _aggregate(stack[:, i, :])
              for i, name in enumerate(curve_names)}
    slope, stderr, r2 = _fit_or_undefined(Ns, curves[quantity][0])
    return GapReport(
        scenario=scenario, quantity=quantity, Ns=Ns, reps=int(reps),
        curves=curves, slope=slope, slope_stderr=stderr, r2=r2,
        predicted_slope=pred, predicted_rate=rate,
        verdict=_verdict(slope, pred, regime, slope_tol),
        fixed_point_failures=fails)


def state_gap_experiment(model: ModelSpec, policies: PolicySet,
                         delay_law: DelayLaw, Ns, reps: int, K: int, seed,
                         *, scenario: str = "state-gap", regime=None,
                         tol: float = 1e-3, max_iter: int = 25,
                         partition_level="auto",
                         slope_tol: float = _SDE_SLOPE_TOL,
                         threads: int = 1) -> GapReport:
    """Squared S2-norm gaps between the N-player game and its limit twin.

    Per replication: fix a leader noise realization, solve the conditional
    law for it, then for each N simulate the bundle and the synchronously
    coupled limit pair from shared streams.  Records the leader sup-squared
    gap, the follower gap as sup over realized delay atoms of the per-atom
    mean, and their sum (the fitted quantity).
    """
    def measure(noises, flows, N, bundle, twin):
        rows = []
        for r in range(len(noises)):
            lead = float(_sup_sq_gap(bundle.leader_path[r], twin[0][r]))
            fol = _atom_sup_mean(
                _sup_sq_gap(bundle.follower_paths[r], twin[1][r, :N]),
                bundle.delays[r])
            rows.append((lead, fol, lead + fol))
        return rows

    return _gap_experiment(
        model, policies, delay_law, Ns, reps, K, seed, scenario, regime, tol,
        max_iter, partition_level, slope_tol, threads,
        kind="state_gap",
        curve_names=("leader_sq_gap", "follower_sq_gap", "squared_state_gap"),
        quantity="squared_state_gap", rate_quantity="squared_state_gap",
        nplayer=True, twin_size=lambda N: N, measure=measure)


def wasserstein_gap_curve(model: ModelSpec, policies: PolicySet,
                          delay_law: DelayLaw, Ns, reps: int, K: int, seed,
                          *, scenario: str = "w2-curve", regime=None,
                          tol: float = 1e-3, max_iter: int = 25,
                          partition_level="auto",
                          slope_tol: float = _MEASURE_SLOPE_TOL,
                          threads: int = 1) -> GapReport:
    """E integral of W2^2 between the empirical measure of N-1 i.i.d. limit
    followers and the conditional law, as a curve in N.

    The followers share one leader realization per replication and draw
    i.i.d. delays; smaller N reuse the leading follower rows of larger N,
    which correlates curve points without biasing any of them.
    """
    def measure(noises, flows, N, bundle, twin):
        x1s = twin[1]
        return [(_w2_time_integral(x1s[r, :N - 1], flow,
                                  noise.subsample(1, N)),)
                for r, (noise, flow) in enumerate(zip(noises, flows))]

    # the W2^2 term carries one power of f(N-1)
    return _gap_experiment(
        model, policies, delay_law, Ns, reps, K, seed, scenario, regime, tol,
        max_iter, partition_level, slope_tol, threads,
        kind="wasserstein_gap", curve_names=("w2_time_integral",),
        quantity="w2_time_integral",
        rate_quantity="squared_state_gap", nplayer=False,
        twin_size=lambda N: N - 1, measure=measure)


def cost_gap_experiment(model: ModelSpec, policies: PolicySet,
                        delay_law: DelayLaw, Ns, reps: int, K: int, seed,
                        *, scenario: str = "cost-gap", regime=None,
                        tol: float = 1e-3, max_iter: int = 25,
                        partition_level="auto",
                        slope_tol: float = _SDE_SLOPE_TOL,
                        threads: int = 1) -> GapReport:
    """|J^{i,N} - J^i| and |J^{0,N} - J^0| on synchronously coupled runs.

    Both cost stacks are evaluated on the same common-random-number
    trajectories, so the differences measure the finite-population effect
    and not Monte-Carlo noise.  The fitted quantity is the mean absolute
    follower cost gap.
    """
    # a twin follower's cost reads the flow, not the other followers
    def measure(noises, flows, N, bundle, twin):
        j0n, jin = evaluate_costs_nplayer(bundle, model, policies)
        j0l, jil = twin
        return [(float(np.mean(np.abs(jin[r] - jil[r, :N]))),
                 abs(float(j0n[r]) - float(j0l[r])))
                for r in range(len(noises))]

    return _gap_experiment(
        model, policies, delay_law, Ns, reps, K, seed, scenario, regime, tol,
        max_iter, partition_level, slope_tol, threads,
        kind="cost_gap", curve_names=("cost_gap", "leader_cost_gap"),
        quantity="cost_gap",
        rate_quantity="cost_gap", nplayer=True, twin_size=lambda N: N,
        measure=measure, twin_costs=True)


# ---------------------------------------------------------------------------
# per-replication coupling properties

def synchronous_dominance_check(grid: TimeGrid, y_paths, x_paths):
    """(lhs, rhs) of the coupling bound: rectangle-rule integral of
    W2^2(empirical y, empirical x) against T times the mean sup-squared gap.

    The identity pairing is one admissible coupling of the two empiricals,
    so lhs <= rhs up to LP tolerance on every replication.
    """
    y = np.asarray(y_paths, float)
    x = np.asarray(x_paths, float)
    if y.shape != x.shape or y.ndim != 3:
        raise ValidationError("paths must be matching (P, m+1, d) arrays")
    lhs = _w2sq_integral(y, x, np.full(y.shape[0], 1.0 / y.shape[0]),
                         grid.h, grid.forward_steps)
    rhs = grid.T * float(np.mean(_sup_sq_gap(y, x)))
    return lhs, rhs


def leave_one_out_check(points, i: int = 0):
    """(lhs, rhs) of the leave-one-out bound at one time slice:
    W2^2(full empirical, empirical without point i) against (1/N) times
    W2^2(Dirac at point i, empirical without point i), both via the LP
    oracle."""
    pts = np.asarray(points, float)
    if pts.ndim == 1:
        pts = pts[:, None]
    N = pts.shape[0]
    if N < 2:
        raise ValidationError("need at least 2 points")
    loo_pts = np.delete(pts, i, axis=0)
    full = DiscreteMeasure(pts, np.full(N, 1.0 / N))
    loo = DiscreteMeasure(loo_pts, np.full(N - 1, 1.0 / (N - 1)))
    dirac = DiscreteMeasure(pts[i:i + 1], np.array([1.0]))
    lhs = w2_exact_lp(full, loo)[0] ** 2
    rhs = w2_exact_lp(dirac, loo)[0] ** 2 / N
    return lhs, rhs


# ---------------------------------------------------------------------------
# epsilon-Nash certification

def deviated_role(k: int, dev: PolicySet, profile: PolicySet) -> str:
    """The role, "leader" or "follower", that deviation k changes relative
    to the profile (equal family and params); the profile itself counts as
    a follower deviation.  ValidationError when it changes both."""
    if dev.leader != profile.leader and dev.follower != profile.follower:
        raise ValidationError(
            f"deviation {k} changes both the leader and the follower role")
    return "leader" if dev.leader != profile.leader else "follower"


def epsilon_nash_certify(model: ModelSpec, profile: PolicySet,
                         deviation_library, N: int, reps: int, seed,
                         *, delay_law: DelayLaw, kappa: float = math.inf,
                         gamma: float = math.inf,
                         scenario: str = "epsilon-nash",
                         threads: int = 1) -> EpsilonReport:
    """Finite-library certification of the profile at population size N.

    Every library entry must change exactly one role relative to the
    profile (or be the profile itself, counted as a follower deviation).
    Follower deviations are played by follower 0 with everyone else on the
    profile; leader deviations swap the leader law.  All arms of one
    replication share noise streams and delays.  Control norms are
    estimated along the runs and checked against kappa (followers, per
    realized delay) and gamma (leader).
    """
    library = list(deviation_library)
    _check_rules(_RULES["epsilon_nash"], dict(
        N=N, reps=reps, deviation_library=library, kappa=kappa, gamma=gamma,
        seed=seed))
    kappa, gamma = float(kappa), float(gamma)
    _check_lag_span(delay_law.b, model.grid)
    follower_devs, leader_devs = [], []
    for k, dev in enumerate(library):
        if deviated_role(k, dev, profile) == "leader":
            leader_devs.append((k, dev.leader))
        else:
            follower_devs.append((k, dev.follower))

    arms = [profile, *(PolicySet(profile.leader, profile.follower, deviant=pol)
                       for _, pol in follower_devs),
            *(PolicySet(pol, profile.follower) for _, pol in leader_devs)]

    def run_block(noises):
        # each arm steps the block's replications in one stacked call
        draws = Draws.stack([Draws.sample(model, delay_law, noise, N)
                             for noise in noises])
        out = np.empty((4, len(noises), len(arms)))
        for a, pols in enumerate(arms):
            bundle = simulate_nplayer(model, pols, N, delay_law, noises, draws)
            out[0, :, a], jin = evaluate_costs_nplayer(bundle, model, pols)
            out[1, :, a] = jin[:, 0]
            # rectangle-rule integrals of |v_t|^2, one replication at a time
            u, v = path_controls(pols, model.grid, bundle.leader_path,
                                 bundle.follower_paths, bundle.delays)
            out[2:, :, a] = [[np.sum(c ** 2, axis=-1).sum() * model.grid.h
                              for c in role] for role in (v[:, :, 0], u)]
        return (*out, bundle.delays[:, 0])

    # (reps, arms) costs and control energies; delta0 (reps,)
    j0, j1, denergy, lenergy, delta0 = _replicate(run_block, seed, int(reps),
                                                  threads)

    # numeric norm-cap checks; follower cap per realized delay of follower 0
    for a, (k, _) in enumerate(follower_devs, start=1):
        worst = _atom_sup_mean(denergy[:, a], delta0)
        if worst > kappa + 1e-9:
            raise ExperimentInvalidError(
                f"deviation {k} violates the follower norm cap: "
                f"sup_delta E|v1|^2 = {worst!r} > kappa = {kappa!r}")
    off = 1 + len(follower_devs)
    for a, (k, _) in enumerate(leader_devs):
        mean_energy = float(lenergy[:, off + a].mean())
        if mean_energy > gamma + 1e-9:
            raise ExperimentInvalidError(
                f"deviation {k} violates the leader norm cap: "
                f"E|v0|^2 = {mean_energy!r} > gamma = {gamma!r}")

    # mean cost, and mean gain over the profile with its standard error
    def role_stats(j, cols):
        costs, gains, ses = [], [], []
        for a in cols:
            diff = j[:, 0] - j[:, a]
            costs.append(float(j[:, a].mean()))
            gains.append(float(diff.mean()))
            ses.append(float(diff.std(ddof=1) / math.sqrt(diff.size))
                       if diff.size > 1 else 0.0)
        return tuple(costs), tuple(gains), tuple(ses)

    f_costs, f_gains, f_ses = role_stats(j1, range(1, off))
    l_costs, l_gains, l_ses = role_stats(j0, range(off, len(arms)))

    return EpsilonReport(
        scenario=scenario, N=int(N), reps=int(reps),
        profile_leader_cost=float(j0[:, 0].mean()),
        profile_follower_cost=float(j1[:, 0].mean()),
        follower_costs=f_costs, follower_gains=f_gains,
        follower_gain_stderrs=f_ses,
        epsilon_hat=max(0.0, max(f_gains, default=0.0)),
        leader_costs=l_costs, leader_gains=l_gains,
        leader_gain_stderrs=l_ses,
        epsilon2_hat=max(0.0, max(l_gains, default=0.0)))


# ---------------------------------------------------------------------------
# orthogonality diagnostic

def eta_orthogonality_check(model: ModelSpec, policies: PolicySet,
                            delay_law: DelayLaw, N: int, panels: int,
                            leader_paths: int, K: int, seed,
                            *, scenario: str = "eta",
                            tol: float = 1e-3, max_iter: int = 25,
                            threads: int = 1) -> EtaReport:
    """Monte-Carlo check that centered interaction kernels of i.i.d. limit
    followers are conditionally uncorrelated given the leader path.

    Estimates lhs = E[(mean over N-1 followers of eta)^2] and
    rhs = E[|eta|^2]/(N-1), where eta is the interaction kernel evaluated
    at the middle forward step m // 2 and centered per leader path; their
    ratio is near 1 exactly when the cross terms vanish.
    """
    _check_rules(_RULES["eta_orthogonality"], dict(
        family=model.coefficients.family, N=N, panels=panels,
        leader_paths=leader_paths, seed=seed))
    _check_rules(_SOLVER_RULES, dict(K=K, tol=tol, max_iter=max_iter))
    _check_lag_span(delay_law.b, model.grid)
    _check_particles(delay_law, model, [N], K)
    s = model.grid.forward_steps // 2
    kernel = model.coefficients.params["kernel"]
    part = _partition_for(delay_law, model, N)

    # one leader path a unit: it already steps panels * (N - 1) followers
    def run_path(noises):
        (noise,) = noises
        draws = Draws.sample(model, delay_law, noise, panels * (N - 1))
        flow, rep = solve_conditional_law(
            model, policies, part, noise.entropy, K,
            tol=tol, max_iter=max_iter, draws=draws)
        _, x1 = simulate_limit_pair(
            model, policies, flow, noise, draws.delays, draws)
        vals = _phi_block(kernel, x1[:, s, :])
        eta = (vals - vals.mean(axis=0)).reshape(panels, N - 1, -1)
        lhs_rows = np.sum(eta.mean(axis=1) ** 2, axis=1)
        rhs_rows = np.sum(eta ** 2, axis=2).mean(axis=1)
        return [lhs_rows.sum()], [rhs_rows.sum()], [not rep.converged]

    lhs_paths, rhs_paths, failed = _replicate(
        run_path, seed, int(leader_paths), threads, block=1)
    fails = _check_failures(failed, leader_paths)
    total = leader_paths * panels
    lhs = float(sum(lhs_paths)) / total
    rhs = float(sum(rhs_paths)) / total / (N - 1)
    if not rhs > 0:
        raise ExperimentInvalidError(
            f"the centered kernel vanishes on every panel (rhs = {rhs!r}), "
            f"so the ratio lhs / rhs is undefined")
    return EtaReport(scenario=scenario, N=int(N), panels=int(panels),
                     leader_paths=int(leader_paths), time_index=s,
                     lhs=lhs, rhs=rhs, fixed_point_failures=fails)
