"""Time-grid SDE engine for a leader and N followers with random response
delays.

The leader state lives on [-b, T] (its segment on [-b, 0] is a sampled
initial path), followers live on [0, T].  Follower i observes the leader
state lagged by its own delay delta_i.  Time stepping is explicit Euler with
left-endpoint coefficient evaluation; delays are snapped to the grid so the
delayed lookup is an exact array index.

One stepper, ``_euler``, advances the leader and its followers for every
simulation in the package, for a block of independent replications at
once.  Only the measure argument differs: the N-player game reads the
empirical features of the current states, leave-one-out for followers and
over the full population for the leader; the limit twin and the Picard
particle solver in ``meanfield`` read a prescribed feature flow.  The
stepper returns states only: every control is a feedback law of them, so
``path_controls`` reads the controls off the paths, and one cost body,
``_path_costs``, prices the paths of both games.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from collections.abc import Iterable, Mapping
from types import MappingProxyType

import numpy as np

from ._rng import (
    DELAY,
    FOLLOWER_INIT,
    FOLLOWER_NOISE,
    LEADER_INIT,
    SharedNoise,
    exact_sum,
    generator,
)
from .errors import (
    DimensionError,
    ParameterError,
    SimulationDivergedError,
    ValidationError,
)

_GRID_TOL = 1e-12
_MAX_STEPS = 100_000      # on [-b, T]; the presets take at most 52

FEATURE_NAMES = ("mean", "second_moment", "tanh_mean")


def _real(name: str, value) -> float:
    """value as a finite float; bools, strings, None and containers raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite real, got {value!r}")
    return float(value)


def _reals(name: str, values) -> tuple:
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ParameterError(f"{name} must be a list of finite reals, got {values!r}")
    return tuple(_real(name, v) for v in values)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _at_least(least: int):
    """The rule of an integer count: (text, test) for ``_check_rules``."""
    return f"an integer >= {least}", lambda v: _is_int(v) and v >= least


# the rule of a master seed, for every function that reads one
_SEED_RULES = {"seed": _at_least(0)}


def _check_rules(rules: Mapping, args: Mapping) -> None:
    """ParameterError naming the first argument of args (name -> value) that
    breaks its rule in rules (name -> (text, test))."""
    for name, value in args.items():
        text, test = rules[name]
        if not test(value):
            raise ParameterError(f"{name} must be {text}, got {value!r}")


def _seed(seed) -> int:
    """An integer seed as an int; ParameterError unless ``_SEED_RULES``
    holds, so that no float or bool is cast."""
    _check_rules(_SEED_RULES, {"seed": seed})
    return int(seed)


def _family_params(label: str, table, family, params, text=()) -> dict:
    """The params of a {family, params} spec as a new dict, every value a
    finite float but those named in text.  A family not in table, params
    that are not a mapping, or a name table[family] does not allow is a
    ParameterError."""
    if not isinstance(family, str) or family not in table:
        raise ParameterError(f"unknown {label} family {family!r}; "
                             f"choose from {sorted(table)}")
    if not isinstance(params, Mapping):
        raise ParameterError(f"{label} params must be an object, got {params!r}")
    unknown = set(params) - table[family]
    if unknown:
        raise ParameterError(f"unknown parameters for {label} family "
                             f"{family!r}: {sorted(unknown)}")
    return {key: val if key in text else _real(f"{label} parameter {key!r}", val)
            for key, val in params.items()}


def family_spec(label: str, spec):
    """(family, params) of a {"family", "params"} object; any other key is a
    ParameterError."""
    if not isinstance(spec, Mapping):
        raise ParameterError(f"{label} must be an object "
                             f"{{'family', 'params'}}, got {spec!r}")
    unknown = sorted(set(spec) - {"family", "params"})
    if unknown:
        raise ParameterError(f"unknown keys {unknown} in {label}; expected "
                             f"'family' and 'params'")
    return spec.get("family"), spec.get("params", {})


@dataclasses.dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [-b, T] with step h; hits 0 and T exactly."""

    t0: float
    t1: float
    h: float

    def __post_init__(self):
        t0 = _real("t0", self.t0)
        t1 = _real("t1", self.t1)
        h = _real("h", self.h)
        if h <= 0:
            raise ValidationError(f"step h must be positive, got {h!r}")
        if t0 > 0:
            raise ValidationError(f"t0 must be <= 0, got {t0!r}")
        if t1 <= 0:
            raise ValidationError(f"t1 must be positive, got {t1!r}")
        if not (t1 - t0) / h <= _MAX_STEPS:
            raise ValidationError(f"step h = {h!r} cuts [{t0!r}, {t1!r}] "
                                  f"into more than {_MAX_STEPS} steps")
        for name, span in (("the lag span b", -t0), ("the horizon T", t1)):
            k = round(span / h)
            if abs(k * h - span) > _GRID_TOL:
                raise ValidationError(
                    f"step h = {h!r} does not divide {name} = {span!r} "
                    f"within {_GRID_TOL}")
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "h", h)

    @classmethod
    def over(cls, b, T, h) -> "TimeGrid":
        """Grid on [-b, T] with step h."""
        return cls(-_real("b", b), _real("T", T), h)

    @property
    def b(self) -> float:
        return -self.t0

    @property
    def T(self) -> float:
        return self.t1

    @property
    def n_steps(self) -> int:
        return round((self.t1 - self.t0) / self.h)

    @property
    def zero_index(self) -> int:
        return round(self.b / self.h)

    @property
    def forward_steps(self) -> int:
        """Number of steps on [0, T]."""
        return self.n_steps - self.zero_index

    @functools.cached_property
    def times(self) -> np.ndarray:
        t = self.t0 + self.h * np.arange(self.n_steps + 1)
        t.setflags(write=False)
        return t

    @functools.cached_property
    def forward_times(self) -> np.ndarray:
        t = self.times[self.zero_index:]
        t.setflags(write=False)
        return t


def _check_lag_span(top, grid: TimeGrid) -> None:
    """ValidationError unless delays up to `top` lag the leader by no more
    than the lag span b of the grid."""
    if top > grid.b + _GRID_TOL:
        raise ValidationError(f"delay support reaches {float(top)!r}, beyond "
                              f"the lag span b = {grid.b!r}")


@dataclasses.dataclass(frozen=True)
class DelayLaw:
    """Response-delay distribution on [a, b], 0 <= a <= b.

    Kinds: discrete (finite atoms; a point mass is one atom) and uniform
    (with exact CDF).
    """

    kind: str
    a: float
    b: float
    atoms: tuple = ()
    probs: tuple = ()

    def __post_init__(self):
        a = _real("a", self.a)
        b = _real("b", self.b)
        if a < 0 or b < a:
            raise ValidationError(f"delay bounds must satisfy 0 <= a <= b, got ({a!r}, {b!r})")
        if self.kind == "discrete":
            atoms = _reals("atoms", self.atoms)
            probs = _reals("weights", self.probs)
            if len(atoms) == 0 or len(atoms) != len(probs):
                raise ValidationError("discrete law needs nonempty atoms and weights "
                                      "of equal length")
            if any(x2 <= x1 for x1, x2 in zip(atoms, atoms[1:])):
                raise ValidationError("atoms must be strictly increasing")
            if atoms[0] < a - _GRID_TOL or atoms[-1] > b + _GRID_TOL:
                raise ValidationError("atoms must lie within [a, b]")
            if any(p <= 0 for p in probs):
                raise ValidationError(f"weights must be positive, got {probs!r}")
            if abs(sum(probs) - 1.0) > 1e-12:
                raise ValidationError(f"weights sum to {sum(probs)!r}, not 1")
            object.__setattr__(self, "atoms", atoms)
            object.__setattr__(self, "probs", probs)
        elif self.kind == "uniform":
            if b <= a:
                raise ValidationError("uniform law needs a < b")
        else:
            raise ValidationError(f"unknown delay law kind {self.kind!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def degenerate(cls, a: float) -> "DelayLaw":
        return cls.discrete([_real("a", a)], [1.0])

    @classmethod
    def discrete(cls, atoms, probs, bounds=None) -> "DelayLaw":
        atoms = _reals("atoms", atoms)
        if bounds is None:
            bounds = (min(atoms, default=0.0), max(atoms, default=0.0))
        return cls("discrete", bounds[0], bounds[1], atoms=atoms, probs=probs)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "DelayLaw":
        return cls("uniform", _real("lo", lo), _real("hi", hi))

    def cdf(self, x):
        """Exact CDF evaluated at x (vectorized)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "discrete":
            atoms = np.asarray(self.atoms)
            cum = np.cumsum(self.probs)
            idx = np.searchsorted(atoms, x, side="right")
            out = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
            return out if out.shape else float(out)
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def quantile(self, u):
        """Inverse CDF for u in [0, 1) (vectorized)."""
        u = np.asarray(u, dtype=float)
        if self.kind == "discrete":
            cum = np.cumsum(self.probs)
            idx = np.minimum(np.searchsorted(cum, u, side="right"), len(self.atoms) - 1)
            out = np.asarray(self.atoms)[idx]
            return out if out.shape else float(out)
        out = self.a + (self.b - self.a) * u
        return out if out.shape else float(out)


# ---------------------------------------------------------------------------
# coefficients

_COST_KEYS = {
    "cost0_const", "cost0_state", "cost0_control", "cost0_track", "cost0_terminal",
    "cost1_const", "cost1_state", "cost1_control", "cost1_track", "cost1_terminal",
}

_FAMILY_KEYS = {
    "linear_quadratic": {
        "a0", "b0", "k0", "s0", "s0_x", "s0_v",
        "a1", "b1", "k1", "s1", "s1_x", "s1_v",
    } | _COST_KEYS,
    "linear_in_measure": {
        "kernel", "k0", "ks0", "a0", "b0", "s0", "s0_x", "s0_v",
        "k1", "ks1", "a1", "b1", "s1", "s1_x", "s1_v",
    } | _COST_KEYS,
    "smooth_nonlinear": {
        "a0", "t0", "b0", "k0", "s0", "s0_x", "s0_v",
        "a1", "t1", "b1", "k1", "s1", "s1_x", "s1_v",
    } | _COST_KEYS,
}


def _sqnorm(x):
    return np.sum(np.asarray(x, float) ** 2, axis=-1)


def _live_sum(terms, shape):
    """Left-to-right sum of gain * value over the (gain, value) terms whose
    gain is not exactly 0.0, as a new array of `shape`; a callable value is
    called only then.  A skipped term adds 0.0 * value, +-0.0 for a finite
    value, so skipping it can change only the sign of a zero.  With shape
    None the sum comes back as it is, 0.0 when no term is live: a sum of
    constants stays a scalar, which broadcasts as the filled array would."""
    out = None
    for gain, value in terms:
        if gain != 0.0:
            term = gain * (value() if callable(value) else value)
            out = term if out is None else out + term
    if shape is None:
        return 0.0 if out is None else out
    if getattr(out, "shape", None) == shape:
        return out
    full = np.empty(shape)
    full[...] = 0.0 if out is None else out
    return full


@dataclasses.dataclass(frozen=True)
class CoefficientSet:
    """Drift/diffusion/cost coefficients of one of three named families.

    All numeric parameters are scalars applied componentwise; the measure
    argument enters only through the declared features (mean, second_moment,
    tanh_mean), which keeps every family W2-Lipschitz on bounded sets by
    construction.
    """

    family: str
    params: dict
    measure_features: tuple = ()

    def __post_init__(self):
        params = _family_params("coefficient", _FAMILY_KEYS, self.family,
                                self.params, text=("kernel",))
        feats = self.measure_features
        if not isinstance(feats, (list, tuple)):
            raise ParameterError(f"measure_features must be a list of feature names, "
                                 f"got {feats!r}")
        feats = tuple(feats)
        for name in feats:
            if name not in FEATURE_NAMES:
                raise ParameterError(f"unknown measure feature {name!r}")
        if self.family == "linear_in_measure":
            kernel = params.get("kernel", "mean")
            if kernel not in ("mean", "tanh_mean"):
                raise ParameterError(f"kernel must be mean or tanh_mean, got {kernel!r}")
            params["kernel"] = kernel
        object.__setattr__(self, "params", MappingProxyType(params))
        object.__setattr__(self, "measure_features", feats)
        for name in self.reads["steps"] + self.reads["costs"]:
            if name not in feats:
                raise ParameterError(f"measure feature {name!r} must be declared "
                                     f"in measure_features: a nonzero gain reads it")

    def _p(self, key):
        return self.params.get(key, 0.0)

    def _kernel(self, feats):
        """The measure feature that the k and ks gains multiply."""
        if self.family == "linear_in_measure":
            return feats[self.params["kernel"]]
        if self.family == "smooth_nonlinear":
            return np.tanh(feats["mean"])
        return feats["mean"]

    @functools.cached_property
    def _gains(self):
        """Term gains, 0.0 where unset, of g (x, v, kernel, tanh x) and sigma
        (1, state, v, kernel); t* and ks* exist in one family each."""
        keys = {"g0": "a0 b0 k0 t0", "g1": "a1 b1 k1 t1",
                "sigma0": "s0 s0_x s0_v ks0", "sigma1": "s1 s1_x s1_v ks1"}
        return {name: tuple(map(self._p, row.split())) for name, row in keys.items()}

    @functools.cached_property
    def reads(self):
        """What the terms of nonzero gain read: "u0" and "v1", whether the
        drift or diffusion reads the leader's or the followers' control;
        "steps", the features the drift or diffusion reads; "costs", those
        the costs read.  Costs read both controls at any gain: 0.0 * |u|^2
        is nan for an overflowed control."""
        def live(*keys):
            return any(self._p(key) != 0.0 for key in keys)

        return MappingProxyType({
            "u0": live("b0", "s0_v"), "v1": live("b1", "s1_v"),
            "steps": (self.params.get("kernel", "mean"),)
            if live("k0", "k1", "ks0", "ks1") else (),
            "costs": ("mean",) if live("cost0_track", "cost1_track") else ()})

    def _drift(self, name, x, feats, v):
        a, b, k, t = self._gains[name]
        return _live_sum(((a, x), (b, v), (k, lambda: self._kernel(feats)),
                          (t, lambda: np.tanh(x))), np.shape(x))

    def _diffusion(self, name, x, feats, v):
        s, sx, sv, ks = self._gains[name]
        smooth = self.family == "smooth_nonlinear"
        constant = sx == 0.0 and sv == 0.0 and ks == 0.0
        return _live_sum(((s, 1.0), (sx, lambda: np.tanh(x) if smooth else x),
                          (sv, v), (ks, lambda: self._kernel(feats))),
                         None if constant else np.shape(x))

    def g0(self, x0, feats, v0):
        return self._drift("g0", x0, feats, v0)

    def sigma0(self, x0, feats, v0):
        """Shaped as x0, or a float that broadcasts to it when constant."""
        return self._diffusion("sigma0", x0, feats, v0)

    def g1(self, x1, feats, v1):
        return self._drift("g1", x1, feats, v1)

    def sigma1(self, x1, feats, v1):
        """Shaped as x1, or a float that broadcasts to it when constant."""
        return self._diffusion("sigma1", x1, feats, v1)

    def f0(self, x0, feats, v0):
        out = self._p("cost0_const") + self._p("cost0_state") * _sqnorm(x0) \
            + self._p("cost0_control") * _sqnorm(v0)
        if self._p("cost0_track") != 0.0:
            out = out + self._p("cost0_track") * _sqnorm(x0 - feats["mean"])
        return out

    def h0(self, x0, feats):
        return self._p("cost0_terminal") * _sqnorm(x0)

    def f1(self, x1, feats, v1):
        out = self._p("cost1_const") + self._p("cost1_state") * _sqnorm(x1) \
            + self._p("cost1_control") * _sqnorm(v1)
        if self._p("cost1_track") != 0.0:
            out = out + self._p("cost1_track") * _sqnorm(x1 - feats["mean"])
        return out

    def h1(self, x1, feats):
        return self._p("cost1_terminal") * _sqnorm(x1)


def _phi_block(name, X):
    """Kernel values of one feature block at follower states X (..., n1)."""
    if name == "mean":
        return X
    if name == "second_moment":
        return np.sum(X * X, axis=-1, keepdims=True)
    if name == "tanh_mean":
        return np.tanh(X)
    raise ParameterError(f"unknown measure feature {name!r}")


def follower_feature_arrays(X, names):
    """Full and leave-one-out empirical feature averages.

    X: (..., N, n1) current follower states, N per leading index.  Returns
    (full, loo) dicts, full[name]: (..., k), loo[name]: (..., N, k).  Totals
    are accumulated through a sorted sum along the follower axis, so they
    are bit-identical under follower relabeling.
    """
    N = X.shape[-2]
    full, loo = {}, {}
    for name in names:
        phi = _phi_block(name, X)
        total = exact_sum(phi, axis=-2)
        full[name] = total / N
        loo[name] = (total[..., None, :] - phi) / (N - 1)
    return full, loo


# ---------------------------------------------------------------------------
# policies

# allowed parameter names of each policy family, per role; only a follower
# reads the delayed leader state (gain_lead)
_POLICY_KEYS = {
    "leader": {"zero": set(), "constant": {"value"},
               "affine": {"gain", "offset"}},
    "follower": {"zero": set(), "constant": {"value"},
                 "affine": {"gain", "gain_lead", "offset"}},
}


@dataclasses.dataclass(frozen=True)
class Policy:
    """One control law from a named family: zero, constant or affine.

    constant: v = value.
    affine leader: v0 = gain * x0 + offset.
    affine follower: v1 = gain * x1 + gain_lead * x0(t - delta) + offset.
    A Policy accepts the keys of either role; ``check_policy`` holds it to
    one role.
    """

    family: str
    params: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        params = _family_params("policy", _POLICY_KEYS["follower"],
                                self.family, self.params)
        object.__setattr__(self, "params", MappingProxyType(params))


def check_policy(role: str, pol: Policy) -> None:
    """Raise ParameterError unless pol sets only keys that the role reads:
    "leader" or "follower"."""
    unknown = set(pol.params) - _POLICY_KEYS[role][pol.family]
    if unknown:
        raise ParameterError(f"{role} policy family {pol.family!r} does not "
                             f"read {sorted(unknown)}")


def _control(pol: Policy, x, x0_delayed=None):
    """Controls under pol, shaped as the states x: zeros, the constant's
    value, or the live terms of gain * x + gain_lead * x0_delayed + offset."""
    params = pol.params
    if pol.family != "affine":
        return _live_sum(((1.0, params.get("value", 0.0)),), np.shape(x))
    return _live_sum(((params.get("gain", 0.0), x),
                      (params.get("gain_lead", 0.0), x0_delayed),
                      (params.get("offset", 0.0), 1.0)), np.shape(x))


@dataclasses.dataclass(frozen=True)
class PolicySet:
    """Leader and follower control laws.

    With a deviant, follower 0 plays it and every other follower plays
    `follower`: the unilateral deviation of the epsilon-Nash certificate.
    """

    leader: Policy
    follower: Policy
    deviant: Policy | None = None

    def __post_init__(self):
        check_policy("leader", self.leader)

    def leader_value(self, x0):
        """Controls of the leaders with states x0 (..., n1), same shape."""
        return _control(self.leader, x0)

    def follower_value(self, x1, x0_delayed):
        """Controls of the followers with states x1 (..., P, n1), same
        shape, that read the leader states x0_delayed (..., P, n1)."""
        v = _control(self.follower, x1, x0_delayed)
        if self.deviant is not None:
            v[..., 0, :] = _control(self.deviant, x1[..., 0, :],
                                    x0_delayed[..., 0, :])
        return v


# ---------------------------------------------------------------------------
# model

# allowed parameter names of each initial-condition family, per role
_INIT_KEYS = {
    "leader": {
        "constant": {"value"},
        "ou_path": {"theta", "mean", "vol", "start"},
        "scaled_brownian": {"sigma", "start"},
    },
    "follower": {
        "constant": {"value"},
        "normal": {"loc", "scale"},
        "student_t": {"loc", "scale", "df"},
    },
}


def check_initial(role: str, spec) -> None:
    """Raise ParameterError unless spec = {"family", "params"} is an initial
    condition of the role: "leader" (a path on [-b, 0]) or "follower"."""
    family, params = family_spec(f"{role} initial condition", spec)
    params = _family_params(f"{role} initial", _INIT_KEYS[role], family, params)
    if family == "student_t" and not params.get("df", 5.0) > 2:
        raise ParameterError("student_t needs df > 2")
    if family == "ou_path" and not params.get("theta", 1.0) > 0:
        raise ParameterError("theta must be positive")
    for key in ("sigma", "vol"):
        if params.get(key, 0.0) < 0:
            raise ParameterError(f"{key} must be nonnegative")


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """Coefficients, grid, initial conditions, the declared moment order q
    of the initial data, and n1: the dimension of the leader state, each
    follower state, both noises and both controls.  Every gain of the
    coefficients and policies is a scalar applied componentwise."""

    coefficients: CoefficientSet
    grid: TimeGrid
    n1: int = 1
    q: float = 6.0
    leader_init: dict = None
    follower_init: dict = None

    def __post_init__(self):
        if not isinstance(self.n1, int) or isinstance(self.n1, bool) or self.n1 < 1:
            raise ParameterError(f"n1 must be a positive integer, got {self.n1!r}")
        q = _real("q", self.q)
        if q < 2:
            raise ParameterError(f"q must be >= 2, got {q!r}")
        leader_init = self.leader_init or {"family": "constant", "params": {"value": 0.0}}
        follower_init = self.follower_init or {"family": "constant", "params": {"value": 0.0}}
        check_initial("leader", leader_init)
        check_initial("follower", follower_init)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "leader_init", MappingProxyType(dict(leader_init)))
        object.__setattr__(self, "follower_init", MappingProxyType(dict(follower_init)))


@dataclasses.dataclass(frozen=True)
class TrajectoryBundle:
    """One N-player replication: leader path on [-b, T], follower paths on
    [0, T] and applied delays; a bundle of R replications has a leading
    axis R on every array.  ``path_controls`` gives its controls."""

    grid: TimeGrid
    leader_path: np.ndarray
    follower_paths: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        lead = np.asarray(self.leader_path, dtype=float)
        fol = np.asarray(self.follower_paths, dtype=float)
        if lead.ndim not in (2, 3) or lead.shape[-2] != self.grid.n_steps + 1:
            raise DimensionError(f"leader path shape {lead.shape}")
        if fol.shape[:-3] != lead.shape[:-2] or fol.ndim != lead.ndim + 1 \
                or fol.shape[-2] != self.grid.forward_steps + 1:
            raise DimensionError(f"follower paths shape {fol.shape}")
        if not np.all(np.isfinite(lead)) or not np.all(np.isfinite(fol)):
            raise ValidationError("non-finite state in trajectory bundle")
        delays = np.asarray(self.delays, dtype=float)
        if delays.shape != fol.shape[:-2]:
            raise DimensionError("one delay per follower required")
        object.__setattr__(self, "leader_path", lead)
        object.__setattr__(self, "follower_paths", fol)
        object.__setattr__(self, "delays", delays)

    @property
    def N(self) -> int:
        return self.follower_paths.shape[-3]


# ---------------------------------------------------------------------------
# sampling

def _as_generator(seed, *key):
    if isinstance(seed, np.random.Generator):
        return seed
    return generator(_seed(seed), *key)


def sample_initial_leader_path(grid: TimeGrid, family: str, params: dict, seed,
                               dim: int = 1):
    """Initial leader segment on [-b, 0], shape (zero_index + 1, dim).

    Families: constant (flat), ou_path (exact OU transitions, so zero
    volatility gives the exact exponential decay), scaled_brownian
    (increment variance sigma^2 h per step by construction).
    """
    check_initial("leader", {"family": family, "params": params})
    # checked before the constant family returns without drawing
    if not isinstance(seed, np.random.Generator):
        seed = _seed(seed)
    m = grid.zero_index
    out = np.empty((m + 1, dim))
    if family == "constant":
        out[:] = np.broadcast_to(np.asarray(params.get("value", 0.0), float), (dim,))
        return out
    rng = _as_generator(seed, LEADER_INIT)
    start = np.broadcast_to(np.asarray(params.get("start", 0.0), float), (dim,))
    out[0] = start
    if family == "scaled_brownian":
        sigma = float(params.get("sigma", 1.0))
        incr = sigma * math.sqrt(grid.h) * rng.standard_normal((m, dim))
        out[1:] = start + np.cumsum(incr, axis=0)
        return out
    # ou_path
    theta = float(params.get("theta", 1.0))
    mean = np.broadcast_to(np.asarray(params.get("mean", 0.0), float), (dim,))
    vol = float(params.get("vol", 1.0))
    decay = math.exp(-theta * grid.h)
    stat_sd = vol * math.sqrt((1.0 - decay * decay) / (2.0 * theta))
    x = np.array(start, dtype=float)
    for k in range(m):
        x = mean + (x - mean) * decay + stat_sd * rng.standard_normal(dim)
        out[k + 1] = x
    return out


def draw_follower_initial(spec: dict, rng, n1: int, size=None):
    """Draw follower initial states; shape (n1,) or (size, n1)."""
    check_initial("follower", spec)
    params = spec.get("params", {})
    shape = (n1,) if size is None else (size, n1)
    if spec["family"] == "constant":
        return np.broadcast_to(
            np.asarray(params.get("value", 0.0), float), shape).copy()
    if spec["family"] == "normal":
        z = rng.standard_normal(shape)
    else:
        z = rng.standard_t(float(params.get("df", 5.0)), size=shape)
    return params.get("loc", 0.0) + params.get("scale", 1.0) * z


def sample_delays(law: DelayLaw, N: int, seed) -> np.ndarray:
    """N i.i.d. draws from the delay law.

    Follower i takes row i of the DELAY block (see ``SharedNoise.rows``),
    which makes the draws permutation-equivariant under relabeling; seed
    is a SharedNoise or an integer >= 0, read as ``SharedNoise(seed)``.  A
    point mass needs no randomness and derives no stream.
    """
    if N < 1:
        raise ValidationError("N must be at least 1")
    noise = seed if isinstance(seed, SharedNoise) else SharedNoise(_seed(seed))
    if law.a == law.b:
        return np.full(N, law.a)
    u = noise.rows(DELAY, N, lambda rng, n: rng.random(n))
    return np.asarray(law.quantile(u), dtype=float)


def snap_delays_to_grid(delays, grid: TimeGrid) -> np.ndarray:
    """Round each delay to the nearest grid multiple; idempotent."""
    delays = np.asarray(delays, dtype=float)
    return np.round(delays / grid.h) * grid.h


# ---------------------------------------------------------------------------
# simulation

def _leader_draws(model: ModelSpec, noise: SharedNoise):
    """Initial leader segment (zero_index + 1, n1) and forward Euler noise
    (m, n1), each drawn from its stream."""
    # an integer seed keys the LEADER_INIT stream, derived only if needed
    xi0 = sample_initial_leader_path(
        model.grid, model.leader_init["family"],
        model.leader_init.get("params", {}), noise.entropy, model.n1)
    zeta0 = noise.leader_noise().standard_normal(
        (model.grid.forward_steps, model.n1))
    return xi0, zeta0


def _follower_draws(model: ModelSpec, noise: SharedNoise, N: int):
    """Initial states (N, n1) and Euler noise (N, m, n1) of followers
    0..N-1, one block per role with a row per follower."""
    spec = model.follower_init

    def initial(rng, n):
        return draw_follower_initial(spec, rng, model.n1, size=n)

    X0 = initial(None, N) if spec["family"] == "constant" \
        else noise.rows(FOLLOWER_INIT, N, initial)
    zeta = noise.rows(FOLLOWER_NOISE, N, lambda rng, n: rng.standard_normal(
        (n, model.grid.forward_steps, model.n1)))
    return X0, zeta


@dataclasses.dataclass(frozen=True)
class Draws:
    """Every random input of one replication's simulations.

    leader_init_path (zero_index + 1, n1) and leader_noise (m, n1) drive the
    leader; follower_init (N, n1), follower_noise (N, m, n1) and delays (N,)
    drive followers 0..N-1.  ``sample`` draws one block per follower role,
    and ``head(n)`` gives the draws of the first n followers: the first n
    rows of a block equal a block of n rows, so ``sample(N).head(n)`` equals
    ``sample(n)`` byte for byte.  Pass one object to ``simulate_nplayer``,
    ``simulate_limit_pair`` and ``solve_conditional_law`` to drive them from
    the same noise without deriving any stream again.  ``stack`` puts the
    draws of R replications along a leading axis R of every array.
    """

    leader_init_path: np.ndarray
    leader_noise: np.ndarray
    follower_init: np.ndarray
    follower_noise: np.ndarray
    delays: np.ndarray

    def __post_init__(self):
        n = np.shape(self.delays)
        if len(n) not in (1, 2) or np.shape(self.follower_init)[:len(n)] != n \
                or np.shape(self.follower_noise)[:len(n)] != n:
            raise DimensionError(
                "follower_init, follower_noise and delays need one row per "
                "follower")

    @property
    def N(self) -> int:
        return np.shape(self.delays)[-1]

    @property
    def stacked(self) -> bool:
        """True for the draws of several replications (``stack``)."""
        return np.ndim(self.delays) == 2

    @classmethod
    def stack(cls, draws) -> "Draws":
        """The draws of R replications of N followers each, in order along
        a leading axis R of every array (delays (R, N) and so on); one
        replication gives views.  ``head(n)`` of stacked draws keeps the
        first n followers of every replication."""
        draws = list(draws)
        join = (lambda a: np.asarray(a[0])[None]) if len(draws) == 1 \
            else np.stack
        return cls(*(join([getattr(d, f.name) for d in draws])
                     for f in dataclasses.fields(cls)))

    @classmethod
    def sample(cls, model: ModelSpec, delay_law: DelayLaw, noise: SharedNoise,
               N: int) -> "Draws":
        """Draws of followers 0..N-1 from the streams of `noise`."""
        xi0, zeta0 = _leader_draws(model, noise)
        X0, zeta = _follower_draws(model, noise, N)
        return cls(xi0, zeta0, X0, zeta, sample_delays(delay_law, N, noise))

    def head(self, n: int) -> "Draws":
        """Draws of followers 0..n-1 (views, no copy)."""
        if not 1 <= n <= self.N:
            raise ValidationError(f"need 1 <= n <= {self.N}, got {n}")
        return dataclasses.replace(
            self, follower_init=self.follower_init[..., :n, :],
            follower_noise=self.follower_noise[..., :n, :, :],
            delays=self.delays[..., :n])


def _euler(model: ModelSpec, policies: PolicySet, xi0, X0, zeta0, zeta1,
           delays, flow_features=None):
    """Explicit Euler for R replications of a leader and P followers.

    Every input leads with the replication axis R (R = 1 for one run):
    xi0 (R, zero_index + 1, n1), X0 (R, P, n1), zeta0 (R, m, n1), zeta1
    (R, P, m, n1), delays (R, P) in grid multiples.  Follower p of
    replication r reads its leader lagged by delays[r, p].  With
    flow_features None the measure argument is the empirical one of the
    replication's current follower states (full for the leader,
    leave-one-out for followers); otherwise replication r reads
    flow_features[name][r, k], (R, m+1, dim), at forward step k.  Row r
    equals the run of replication r alone, byte for byte.  A non-finite
    row keeps stepping; at the end SimulationDivergedError names the first
    non-finite forward step of the earliest such row.  Returns leader paths
    (R, n_steps + 1, n1) and follower paths (R, P, m+1, n1), whose controls
    are ``path_controls``.  Only terms of nonzero gain are evaluated, and
    only the controls and features they read (``CoefficientSet.reads``); a
    constant diffusion multiplies the noise as a scalar.
    """
    grid = model.grid
    h = grid.h
    sqrt_h = math.sqrt(h)
    m = grid.forward_steps
    z0 = grid.zero_index
    coeffs = model.coefficients
    reads = coeffs.reads
    names = reads["steps"]
    X = np.array(X0, dtype=float)
    R, P = X.shape[:2]
    leader_path = np.empty((R, grid.n_steps + 1, model.n1))
    leader_path[:, :z0 + 1] = xi0
    # at forward step k follower p of replication r reads row delayed[r, p] + k
    lead_rows = leader_path.reshape(-1, model.n1)
    delayed = (np.arange(R)[:, None] * (grid.n_steps + 1) + z0
               - np.round(delays / h).astype(int))
    follower_paths = np.empty((R, P, m + 1, model.n1))
    follower_paths[:, :, 0, :] = X
    x0 = leader_path[:, z0].copy()

    # a diverging replication overflows; the check after the loop finds it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(m):
            g = z0 + k
            if flow_features is None:
                full, loo = follower_feature_arrays(X, names)
            else:
                full = {name: flow_features[name][:, k] for name in names}
                loo = {name: arr[:, None] for name, arr in full.items()}
            u0 = policies.leader_value(x0) if reads["u0"] else None
            v1 = policies.follower_value(
                X, lead_rows.take(delayed + k, axis=0)) if reads["v1"] else None
            x0 = x0 + coeffs.g0(x0, full, u0) * h \
                + coeffs.sigma0(x0, full, u0) * sqrt_h * zeta0[:, k]
            X = X + coeffs.g1(X, loo, v1) * h \
                + coeffs.sigma1(X, loo, v1) * sqrt_h * zeta1[:, :, k, :]
            leader_path[:, g + 1] = x0
            follower_paths[:, :, k + 1, :] = X
    # a non-finite state stays non-finite (x + increment), so the last
    # states show every divergence
    finite = np.isfinite(x0).all(-1) & np.isfinite(X).all((-2, -1))
    if not finite.all():
        r = int(np.argmin(finite))
        bad = ~(np.isfinite(leader_path[r, z0 + 1:]).all(-1)
                & np.isfinite(follower_paths[r, :, 1:]).all((0, 2)))
        k = int(np.argmax(bad))
        raise SimulationDivergedError(
            k, f"non-finite state at forward step {k} (t={grid.times[z0 + k]!r})")
    return leader_path, follower_paths


def simulate_nplayer(model: ModelSpec, policies: PolicySet, N: int,
                     delay_law: DelayLaw, seed,
                     draws: Draws | None = None) -> TrajectoryBundle:
    """Explicit Euler simulation of the leader and N delayed followers.

    seed: integer master seed >= 0 or a SharedNoise.  draws: the random inputs
    of exactly these N followers (see ``Draws``); when None they are drawn
    from the streams of seed.  Stacked draws (``Draws.stack``) run R
    replications in one call and give a bundle with a leading axis R; seed
    is not read then.  Increments are
    drift * h + diffusion * sqrt(h) * zeta with left-endpoint coefficients;
    interaction features are recomputed each step, leave-one-out for
    followers and full-population for the leader.
    """
    if N < 2:
        raise ValidationError(f"need at least 2 followers, got {N}")
    _check_lag_span(delay_law.b, model.grid)
    if draws is None:
        noise = seed if isinstance(seed, SharedNoise) \
            else SharedNoise(_seed(seed))
        draws = Draws.sample(model, delay_law, noise, N)
    elif draws.N != N:
        raise ValidationError(f"draws hold {draws.N} followers, not N={N}")
    batch = draws if draws.stacked else Draws.stack([draws])
    delays = snap_delays_to_grid(batch.delays, model.grid)
    out = _euler(model, policies, batch.leader_init_path, batch.follower_init,
                 batch.leader_noise, batch.follower_noise, delays)
    if not draws.stacked:
        out, delays = [a[0] for a in out], delays[0]
    return TrajectoryBundle(model.grid, *out, delays)


def path_controls(policies: PolicySet, grid: TimeGrid, leader_path,
                  follower_paths, delays):
    """Controls along paths, time-major: the leader's u (..., m, n1) and
    the followers' v (..., m, N, n1) at forward steps 0..m-1, for
    leader_path (..., n_steps + 1, n1) on [-b, T], follower_paths
    (..., N, m+1, n1) and delays (..., N).  Each follower reads its leader
    lagged by its delay, as in ``_euler``: on its paths these are the
    controls it applied, byte for byte.  A control that overflows is inf or
    nan, without a warning; ``_path_costs`` raises at its step."""
    m, z0 = grid.forward_steps, grid.zero_index
    lags = np.round(np.asarray(delays, dtype=float) / grid.h).astype(int)
    idx = z0 + np.arange(m)[:, None] - lags[..., None, :]      # (..., m, N)
    x0_delayed = np.take_along_axis(leader_path[..., None, :, :],
                                    idx[..., None], axis=-2)
    with np.errstate(over="ignore", invalid="ignore"):
        u = policies.leader_value(leader_path[..., z0:z0 + m, :])
        v = policies.follower_value(
            np.swapaxes(follower_paths, -3, -2)[..., :m, :, :], x0_delayed)
    return u, v


def _path_costs(model: ModelSpec, policies: PolicySet, leader_path,
                follower_paths, delays, flow_features=None):
    """Costs (J0, [Ji]) of the paths under their ``path_controls``: a
    left-endpoint rectangle rule, added in step order as a ``+=`` loop
    adds, plus terminal cost.  The measure argument is read as in
    ``_euler``: flow_features[name] (..., m+1, k) for both roles, or when
    None the empirical one (full for the leader, leave-one-out for
    followers).  Only the features a cost term reads are built
    (``CoefficientSet.reads``).  Floats, or arrays J0 (R,) and Ji (R, N)
    for R replications; a non-finite cumulative cost raises
    SimulationDivergedError at its first step (m: terminal)."""
    grid, coeffs, m = model.grid, model.coefficients, model.grid.forward_steps
    names = coeffs.reads["costs"]
    u, v = path_controls(policies, grid, leader_path, follower_paths, delays)
    # contiguous: the sorted follower sums then round as on one time slice
    fol = np.ascontiguousarray(np.swapaxes(follower_paths, -3, -2))
    full, loo = ({name: flow_features[name] for name in names}, None) \
        if flow_features is not None else follower_feature_arrays(fol, names)
    # the leader as a population of one, so both roles slice alike
    lead_feats = {name: a[..., None, :] for name, a in full.items()}
    roles = ((coeffs.f0, coeffs.h0, leader_path[..., grid.zero_index:, None, :],
              u[..., None, :], lead_feats),
             (coeffs.f1, coeffs.h1, fol, v, lead_feats if loo is None else loo))
    cums = []
    with np.errstate(over="ignore", invalid="ignore"):
        for running, terminal, x, c, feats in roles:
            head, tail = ({name: a[..., t, :, :] for name, a in feats.items()}
                          for t in (slice(m), slice(m, None)))
            steps = running(x[..., :m, :, :], head, c) * grid.h
            end = terminal(x[..., m:, :, :], tail)
            cums.append(np.cumsum(np.concatenate([steps, end], axis=-2), -2))
    finite = np.logical_and(*(np.isfinite(np.moveaxis(c, -2, 0))
                              .reshape(m + 1, -1).all(1) for c in cums))
    if not finite.all():
        k = int(np.argmin(finite))
        raise SimulationDivergedError(k, f"non-finite cost at forward step {k}")
    J0, Ji = cums[0][..., -1, 0], cums[1][..., -1, :]
    return (J0, Ji) if J0.ndim else (float(J0), Ji.tolist())


def evaluate_costs_nplayer(bundle: TrajectoryBundle, model: ModelSpec,
                           policies: PolicySet):
    """Costs (J0N, [JiN for each follower]) of one replication under
    policies, or arrays J0N (R,) and JiN (R, N) of a bundle of R: the
    ``_path_costs`` of its paths."""
    return _path_costs(model, policies, bundle.leader_path,
                       bundle.follower_paths, bundle.delays)
