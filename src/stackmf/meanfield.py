"""Particle solver for the limiting system.

The conditional law flow z is represented by per-delay-atom particle clouds
conditioned on one leader noise realization, found by Picard iteration on
the fixed-point property: simulate the leader and K follower particles per
atom under the current flow's features, read off the new empirical
features, repeat until the sup-in-time W2 discrepancy between successive
iterates is below tolerance.  The particle noise ensemble is frozen across
iterations, so the iteration is a deterministic map and the discrepancy can
reach machine scale instead of a Monte-Carlo floor.  A discrepancy that
overflows is a divergence.  Experiments cap a solve at ``_MAX_PARTICLES``.

Both the Picard solver and the limit twin step through the one Euler
stepper of ``dynamics`` (``_euler``), fed with the flow's feature
trajectories in place of empirical features; the Picard solver steps all
n_atoms * K particles in one call, each with its atom's delay.  The stopping
rule gathers an iterate's subsampled clouds once, then takes W2 at the
sub-times where it can be the maximum (``_picard_discrepancy``).
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._rng import SharedNoise
from .dynamics import (
    DelayLaw,
    Draws,
    ModelSpec,
    PolicySet,
    TimeGrid,
    _at_least,
    _check_lag_span,
    _check_rules,
    _euler,
    _follower_draws,
    _is_real,
    _leader_draws,
    _path_costs,
    _phi_block,
    _seed,
    draw_follower_initial,
    snap_delays_to_grid,
)
from .errors import (CapacityError, ParameterError, SimulationDivergedError,
                     ValidationError)
from .measures import DiscreteMeasure, _w2_or_inf, rate_f, w2_exact_1d

_WEIGHT_TOL = 1e-12
_DISCREPANCY_SUBGRID = 16
_DISCREPANCY_SUPPORT = 256
# below this squared bounding-box extent no squared distance overflows
_FINITE_SQUARES = 1e300
# relative slack for the rounding of both the coupling bound and W2
_BOUND_MARGIN = 1e-9
# the rules of the solver's arguments: name -> (text, test)
_SOLVER_RULES = {
    "K": _at_least(100),
    "tol": ("a positive finite real", lambda v: _is_real(v) and 0 < v < math.inf),
    "max_iter": _at_least(1),
}
# the most particles (delay atoms x K) one solve steps: 32 times the
# largest preset's two atoms x K = 4,096
_MAX_PARTICLES = 2 ** 18


@dataclasses.dataclass(frozen=True)
class ConditionalLawFlow:
    """Conditional population law along the grid, as per-atom particle
    clouds plus mixture feature trajectories."""

    grid: TimeGrid
    atoms: np.ndarray      # delay atoms, snapped to the grid
    weights: np.ndarray
    particles: np.ndarray  # (n_atoms, K, forward_steps + 1, n1)
    leader_path: np.ndarray
    leader_seed: int
    features: dict         # name -> (forward_steps + 1, dim) mixture averages

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        parts = np.asarray(self.particles, dtype=float)
        if atoms.ndim != 1 or weights.shape != atoms.shape:
            raise ValidationError("atoms and weights must be matching vectors")
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > _WEIGHT_TOL:
            raise ValidationError("atom weights must be a probability vector")
        if parts.ndim != 4 or parts.shape[0] != atoms.size:
            raise ValidationError(f"particle array shape {parts.shape}")
        if parts.shape[2] != self.grid.forward_steps + 1:
            raise ValidationError("particle paths must cover [0, T]")
        if not np.all(np.isfinite(parts)):
            raise ValidationError("non-finite particle state")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "particles", parts)

    @property
    def K(self) -> int:
        return self.particles.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.size


@dataclasses.dataclass(frozen=True)
class FixedPointReport:
    iterations: int
    discrepancies: tuple
    converged: bool
    tol: float

    def __post_init__(self):
        if self.converged and self.discrepancies and \
                self.discrepancies[-1] > self.tol:
            raise ValidationError("converged flag inconsistent with discrepancies")


def partition_delay_law(law: DelayLaw, n: int):
    """Uniform level-n partition of [a, b] with left endpoints as atoms and
    CDF-increment weights; zero-mass cells are dropped."""
    if n < 1:
        raise ParameterError("partition level must be >= 1")
    if law.a == law.b:
        return [(law.a, 1.0)]
    edges = law.a + (law.b - law.a) * np.arange(n + 1) / n
    out = []
    for k in range(n):
        lo, hi = edges[k], edges[k + 1]
        if law.kind == "discrete":
            last = (k == n - 1)
            w = sum(p for x, p in zip(law.atoms, law.probs)
                    if lo - 1e-15 <= x < hi or (last and abs(x - hi) <= 1e-15))
        else:
            w = float(law.cdf(hi) - law.cdf(lo))
        if w > 0.0:
            out.append((float(lo), float(w)))
    total = sum(w for _, w in out)
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"partition weights sum to {total!r}")
    return [(a, w / total) for a, w in out]


def balanced_partition_level(n1: int, q: float, N: int) -> int:
    """Partition level that balances delay-discretization error against the
    empirical-measure rate: ceil(f(N-1)^(-2q/(3q-4))), clamped to [1, 1e4]."""
    if q <= 4:
        raise ParameterError(
            f"the balanced partition level needs q > 4, got q = {q!r}")
    if N < 2:
        raise ParameterError("N must be >= 2")
    if N - 1 >= 2:
        f_val = rate_f(n1, N - 1)
    else:
        # f(1) degenerates: 1 for the power laws, 0 for the log-corrected case
        f_val = 0.0 if n1 == 4 else 1.0
    if f_val == 0.0:
        return 10_000
    level = math.ceil(f_val ** (-2.0 * q / (3.0 * q - 4.0)))
    return int(min(max(level, 1), 10_000))


def _partition_level(law: DelayLaw, model: ModelSpec, N: int, level="auto"):
    """Level at which the limit solve for population size N splits a uniform
    delay law: `level`, or at "auto" the balanced level, which needs q > 4.
    None for a law of atoms, which the solve takes atom by atom."""
    if law.kind != "uniform":
        return None
    return balanced_partition_level(model.n1, model.q, N) \
        if level == "auto" else int(level)


def _partition_for(law: DelayLaw, model: ModelSpec, N: int, *level):
    """Delay partition of the limit solve for population size N: the atoms
    of a discrete law, or a uniform law cut at ``_partition_level``."""
    if law.kind == "discrete":
        return tuple((float(a), float(p)) for a, p in zip(law.atoms, law.probs))
    return tuple(partition_delay_law(law, _partition_level(law, model, N,
                                                           *level)))


def _check_particles(law: DelayLaw, model: ModelSpec, Ns, K, *level) -> None:
    """CapacityError when a limit solve for a size in Ns steps more than
    ``_MAX_PARTICLES`` particles: K for each atom of a discrete law, or for
    each cell of a uniform law at ``_partition_level``, before any is cut."""
    atoms = max(_partition_level(law, model, N, *level) or len(law.atoms)
                for N in Ns)
    if atoms * K > _MAX_PARTICLES:
        raise CapacityError(
            f"{atoms} delay atoms x K = {K} make {atoms * K} particles per "
            f"solve, above the cap of {_MAX_PARTICLES}")


# ---------------------------------------------------------------------------
# forward simulation under a prescribed feature flow

def _features_of_clouds(particles, weights, names):
    """Mixture feature trajectories of per-atom clouds.

    particles: (n_atoms, K, m+1, n1).  Returns name -> (m+1, dim).
    """
    out = {}
    for name in names:
        phi = _phi_block(name, particles)          # (n_atoms, K, m+1, dim)
        per_atom = phi.mean(axis=1)                # (n_atoms, m+1, dim)
        out[name] = np.tensordot(weights, per_atom, axes=(0, 0))
    return out


def _picard_discrepancy(clouds_new, clouds_old, sub_times) -> float:
    """Max over sub-times of the exact W2 between two iterates' uniform
    clouds (sub-times, n, n1).  Particle i of both steps the same draws, so
    their root mean square displacement bounds W2; W2 is taken in
    descending order of that bound while it can reach the maximum, or, when
    squares may overflow, at every sub-time in time order, where the first
    non-finite one raises SimulationDivergedError."""
    n = clouds_new.shape[1]
    uniform = np.full(n, 1.0 / n)
    with np.errstate(over="ignore", invalid="ignore"):
        both = np.concatenate((clouds_new, clouds_old), axis=1)
        span = both.max(axis=1) - both.min(axis=1)     # (sub-times, n1)
        diff = clouds_new - clouds_old
        bound = np.sqrt(np.mean(np.sum(diff * diff, axis=2), axis=1))
        if not np.all(np.sum(span * span, axis=1) < _FINITE_SQUARES):
            bound = np.full(len(sub_times), math.inf)
    disc = 0.0
    for j in np.argsort(-bound, kind="stable"):
        if bound[j] < disc * (1.0 - _BOUND_MARGIN):
            break
        mu = DiscreteMeasure(clouds_new[j], uniform)
        nu = DiscreteMeasure(clouds_old[j], uniform)
        # squared distances that overflow read as an infinite distance
        w2 = w2_exact_1d(mu, nu) if clouds_new.shape[2] == 1 \
            else _w2_or_inf(mu, nu)[0]
        if not math.isfinite(w2):
            k = int(sub_times[j])
            raise SimulationDivergedError(
                k, f"non-finite Picard discrepancy at forward step {k}")
        disc = max(disc, w2)
    return disc


def solve_conditional_law(model: ModelSpec, policies: PolicySet,
                          delay_partition, leader_noise_seed: int, K: int,
                          tol: float = 1e-3, max_iter: int = 25,
                          draws: Draws | None = None):
    """Picard iteration for the conditional law flow: each iterate steps
    the particles under the features of the one before.

    It stops once the discrepancy, the largest exact W2 between successive
    iterates over the sub-times of a fixed subsample, is at most tol.  W2
    is evaluated only where the coupling bound can set that maximum, or at
    every sub-time in time order when squared distances may overflow
    (``_picard_discrepancy``).

    Returns (ConditionalLawFlow, FixedPointReport); non-convergence is
    reported, not raised.  A discrepancy that is not finite raises
    SimulationDivergedError at the forward step of its first such
    sub-time.  One leader noise realization is fixed by leader_noise_seed,
    an integer >= 0, or by the leader part of `draws` when given (drawn
    from SharedNoise(leader_noise_seed) by the caller); particle initials
    and noises are drawn once and reused across iterations.
    """
    _check_rules(_SOLVER_RULES, dict(K=K, tol=tol, max_iter=max_iter))
    noise = SharedNoise(_seed(leader_noise_seed))
    atoms = np.array([a for a, _ in delay_partition], dtype=float)
    weights = np.array([w for _, w in delay_partition], dtype=float)
    if atoms.size == 0 or np.any(weights < 0) \
            or abs(weights.sum() - 1.0) > _WEIGHT_TOL:
        raise ValidationError("delay partition weights must sum to 1")
    atoms = snap_delays_to_grid(atoms, model.grid)
    _check_lag_span(atoms.max(), model.grid)

    grid = model.grid
    m = grid.forward_steps
    n_atoms = atoms.size
    # the iterates carry only the features the stepper reads
    names = model.coefficients.reads["steps"]

    if draws is None:
        xi0, zeta0 = _leader_draws(model, noise)
    else:
        xi0, zeta0 = draws.leader_init_path, draws.leader_noise
    # a constant initial law draws nothing, so derives no FLOW_INIT stream
    init = noise.flow_init if model.follower_init["family"] != "constant" \
        else (lambda j: None)
    X0 = np.stack([
        draw_follower_initial(model.follower_init, init(j), model.n1, size=K)
        for j in range(n_atoms)])                      # (n_atoms, K, n1)
    zeta = np.concatenate([
        noise.flow_noise(j).standard_normal((K, m, model.n1))
        for j in range(n_atoms)])                      # (n_atoms * K, m, n1)
    delays = np.repeat(atoms, K)

    # fixed subsampling and comparison times for the stopping rule
    sub_times = np.unique(np.linspace(0, m, _DISCREPANCY_SUBGRID).round().astype(int))
    rng_sub = noise.subsample(0)
    cloud_size = n_atoms * K
    sub_idx = np.arange(cloud_size)
    if cloud_size > _DISCREPANCY_SUPPORT:
        sub_idx = np.sort(rng_sub.choice(cloud_size, _DISCREPANCY_SUPPORT,
                                         replace=False))
    sub_grid = np.ix_(sub_times, sub_idx)

    def sub_clouds(parts):      # (sub-times, sub_idx, n1)
        return parts.reshape(cloud_size, m + 1, model.n1).swapaxes(0, 1)[sub_grid]

    def simulate(feats_seq):
        leader_path, parts = _euler(
            model, policies, xi0[None], X0.reshape(1, cloud_size, model.n1),
            zeta0[None], zeta[None], delays[None],
            {name: arr[None] for name, arr in feats_seq.items()})
        return leader_path[0], parts.reshape(n_atoms, K, m + 1, model.n1)

    # iteration 0: features of the initial clouds, frozen in time
    feats0 = _features_of_clouds(X0[:, :, None, :], weights, names)
    applied = {name: np.repeat(arr, m + 1, axis=0) for name, arr in feats0.items()}
    leader_path, parts_old = simulate(applied)
    clouds_old = sub_clouds(parts_old)

    discrepancies = []
    for _ in range(max_iter):
        leader_path, parts_new = simulate(
            _features_of_clouds(parts_old, weights, names))
        clouds_new = sub_clouds(parts_new)
        disc = _picard_discrepancy(clouds_new, clouds_old, sub_times)
        discrepancies.append(float(disc))
        parts_old, clouds_old = parts_new, clouds_new
        if disc <= tol:
            break

    features = _features_of_clouds(parts_old, weights,
                                   model.coefficients.measure_features)
    flow = ConditionalLawFlow(
        grid=grid, atoms=atoms, weights=weights, particles=parts_old,
        leader_path=leader_path, leader_seed=int(leader_noise_seed),
        features=features)
    report = FixedPointReport(
        iterations=len(discrepancies), discrepancies=tuple(discrepancies),
        converged=discrepancies[-1] <= tol, tol=float(tol))
    return flow, report


def _stacked_features(flows, names):
    """name -> (R, m+1, dim) trajectories of the named features of R
    flows."""
    return {name: np.stack([f.features[name] for f in flows])
            for name in names}


def simulate_limit_pair(model: ModelSpec, policies: PolicySet,
                        zflow: ConditionalLawFlow, shared_noise: SharedNoise,
                        delays, draws: Draws | None = None):
    """Limit leader and follower paths driven by the SAME noise streams as
    an N-player bundle built from shared_noise (synchronous coupling).

    Returns (x0 path on [-b, T], x1 paths (N, m+1, n1)).  Coefficient
    z-arguments are read from zflow.  draws: the leader and follower noise
    of these N followers, already drawn from shared_noise's streams (its
    delays are not read); when None they are drawn here.  Stacked draws
    (``Draws.stack``) run R replications in one call: zflow and
    shared_noise are then the R flows and SharedNoises in order, delays
    (R, N), and both paths gain a leading axis R.
    """
    stacked = draws is not None and draws.stacked
    flows, noises = (zflow, shared_noise) if stacked \
        else ([zflow], [shared_noise])
    for flow, noise in zip(flows, noises, strict=True):
        if not isinstance(noise, SharedNoise):
            raise ValidationError("shared_noise must be a SharedNoise instance")
        if flow.leader_seed != noise.entropy:
            raise ValidationError(
                f"flow conditions on leader seed {flow.leader_seed}, "
                f"shared noise has entropy {noise.entropy}")
    delays = snap_delays_to_grid(np.asarray(delays, dtype=float), model.grid)
    _check_lag_span(delays.max(initial=0.0), model.grid)
    if draws is None:
        draws = Draws(*_leader_draws(model, shared_noise),
                      *_follower_draws(model, shared_noise, delays.size),
                      delays)
    elif draws.N != delays.shape[-1]:
        raise ValidationError(
            f"draws hold {draws.N} followers, delays {delays.shape[-1]}")
    batch = draws if stacked else Draws.stack([draws])
    x0_path, x1_paths = _euler(
        model, policies, batch.leader_init_path, batch.follower_init,
        batch.leader_noise, batch.follower_noise,
        delays.reshape(len(flows), -1),
        _stacked_features(flows, model.coefficients.reads["steps"]))
    return (x0_path, x1_paths) if stacked else (x0_path[0], x1_paths[0])


def evaluate_costs_limit(model: ModelSpec, policies: PolicySet,
                         zflow: ConditionalLawFlow, x0_path, x1_paths, delays):
    """Limit-system costs (J0, [Ji]) of paths from simulate_limit_pair, by
    ``dynamics._path_costs`` with the flow's features as measure argument.
    For stacked paths of R replications, zflow is their R flows and the
    costs are arrays J0 (R,) and Ji (R, N)."""
    feats = _stacked_features(zflow, model.coefficients.reads["costs"]) \
        if np.ndim(x0_path) == 3 else zflow.features
    return _path_costs(model, policies, x0_path, x1_paths, delays, feats)


@dataclasses.dataclass(frozen=True)
class HolderReport:
    """Fitted delay-Holder behavior of the limit follower path."""

    exponent: float | None
    log_constant: float | None
    distances: tuple
    gaps: tuple
    skipped: bool
    reps: int


def holder_exponent_estimate(model: ModelSpec, policies: PolicySet,
                             zflow: ConditionalLawFlow, delta_grid, reps: int
                             ) -> HolderReport:
    """Regress log sup-time mean-square follower gap on log |delta - gamma|.

    All delta values share the same follower noise (common-noise coupling),
    so the gap isolates the delayed-argument channel.  Near-zero gaps are
    reported as skipped instead of fitting noise.
    """
    deltas = np.unique(snap_delays_to_grid(np.asarray(delta_grid, float), model.grid))
    if deltas.size < 4:
        raise ParameterError("need at least 4 distinct delta values")
    if reps < 100:
        raise ParameterError("need reps >= 100")
    noise = SharedNoise(zflow.leader_seed)
    # delays are set per delta below; a point mass derives no stream
    draws = Draws.sample(model, DelayLaw.degenerate(0.0), noise, reps)
    paths = {}
    for d in deltas:
        _, x1 = simulate_limit_pair(
            model, policies, zflow, noise, np.full(reps, d), draws)
        paths[d] = x1
    dists, gaps = [], []
    for i in range(deltas.size):
        for j in range(i + 1, deltas.size):
            gap = paths[deltas[i]] - paths[deltas[j]]
            sq = np.sum(gap * gap, axis=2)       # (reps, m+1)
            gaps.append(float(np.max(sq.mean(axis=0))))
            dists.append(float(abs(deltas[i] - deltas[j])))
    dists = np.array(dists)
    gaps = np.array(gaps)
    if gaps.max() <= 1e-14:
        return HolderReport(None, None, tuple(dists), tuple(gaps), True, reps)
    coef = np.polyfit(np.log(dists), np.log(gaps), 1)
    return HolderReport(float(coef[0]), float(coef[1]),
                        tuple(dists), tuple(gaps), False, reps)
