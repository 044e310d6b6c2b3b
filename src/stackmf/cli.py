"""Batch entry point: scenario configs, presets, orchestration, emission.

A scenario is a JSON document with the following top-level keys (see
``ScenarioConfig`` for defaults):

  name           scenario identifier, used in file names and CSV rows
  kind           one of state_gap | wasserstein_gap | cost_gap |
                 epsilon_nash | eta_orthogonality
  model          {"family", "params", "features", "n1", "T", "h", "b"}:
                 coefficient family and params, measure features, the
                 dimension n1 of every state, noise and control (leader
                 and followers alike), horizon T, step h and lag span b;
                 no other key is accepted
  delay_law      {"family": "degenerate", "a": ...} |
                 {"family": "discrete", "atoms": [...], "weights": [...]} |
                 {"family": "uniform", "lo": ..., "hi": ...}, nothing else
  leader_init    initial-condition family for the leader, or null
  follower_init  initial-condition family for the followers, or null
  q              moment order of the initial data
  policies       {"leader": {"family", "params"}, "follower": {...}}
  Ns             population sizes (one entry for epsilon_nash and
                 eta_orthogonality)
  seed           master seed; every emitted number is a function of
                 (config, seed)
  reps, K, tol,  replications, particle count, fixed-point tolerance and
  regime         prediction regime; null where the kind does not read it
  rate_assertions  true or false for a gap kind: when true, the run exits
                 nonzero unless its verdict is "pass"; null for
                 epsilon_nash and eta_orthogonality, which have no verdict
  extras         kind-specific knobs, see _EXTRA_KEYS
  out_dir        default output directory, overridable with --out

``run_experiment`` writes three files: ``results.csv`` with the fixed
columns scenario, N, reps, gap_mean, gap_stderr, quantity, slope,
slope_stderr, predicted_exponent, verdict (slope fields only on rows of
the fitted quantity); ``report.json`` with the full report object; and
``manifest.json`` with the config hash, the master seed, the stream
layout of the draws (``_rng.STREAM_LAYOUT``), and library versions.
Nothing in the output depends on the worker count.
"""
import argparse
import csv
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._pool import _workers
from ._rng import STREAM_LAYOUT
from .dynamics import (
    CoefficientSet,
    DelayLaw,
    ModelSpec,
    Policy,
    PolicySet,
    TimeGrid,
    _check_lag_span,
    _check_rules,
    _is_int,
    _is_real,
    check_initial,
    check_policy,
    family_spec,
)
from .errors import (
    ConfigError,
    ExperimentInvalidError,
    ParameterError,
    StackmfError,
)
from .meanfield import _SOLVER_RULES
from .rates import (
    _BLOCK,
    EpsilonReport,
    EtaReport,
    GapReport,
    cost_gap_experiment,
    deviated_role,
    epsilon_nash_certify,
    eta_orthogonality_check,
    state_gap_experiment,
    wasserstein_gap_curve,
    _RULES,
    _check_regime,
    _partition_level,
    _time_index,
)

_KINDS = ("state_gap", "wasserstein_gap", "cost_gap", "epsilon_nash",
          "eta_orthogonality")
_GAP_KINDS = _KINDS[:3]
_EXTRA_KEYS = {
    **dict.fromkeys(_GAP_KINDS, ("slope_tol", "partition_level", "max_iter",
                                 "damping")),
    "epsilon_nash": ("kappa", "gamma", "deviations"),
    "eta_orthogonality": ("panels", "leader_paths", "time_index",
                          "max_iter", "damping"),
}
CSV_COLUMNS = ("scenario", "N", "reps", "gap_mean", "gap_stderr", "quantity",
               "slope", "slope_stderr", "predicted_exponent", "verdict")


def _freeze(value):
    """Lists become tuples recursively so load(save(cfg)) == cfg."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return {k: _freeze(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: model, laws, policies, sizes, seed, output paths."""

    name: str
    kind: str
    model: dict
    delay_law: dict
    leader_init: dict | None
    follower_init: dict | None
    q: float
    policies: dict
    Ns: tuple
    seed: int
    reps: int | None = None
    K: int | None = None
    tol: float | None = None
    regime: str | None = None
    rate_assertions: bool | None = None
    extras: dict = field(default_factory=dict)
    out_dir: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "model", _freeze(dict(self.model)))
        object.__setattr__(self, "delay_law", _freeze(dict(self.delay_law)))
        for key in ("leader_init", "follower_init"):
            val = getattr(self, key)
            object.__setattr__(self, key,
                               None if val is None else _freeze(dict(val)))
        object.__setattr__(self, "policies", _freeze(dict(self.policies)))
        object.__setattr__(self, "Ns", _freeze(tuple(self.Ns)))
        object.__setattr__(self, "extras", _freeze(dict(self.extras)))


# JSON types of the values ScenarioConfig copies into containers
_SHAPES = {"model": dict, "delay_law": dict, "policies": dict, "extras": dict,
           "leader_init": (dict, type(None)),
           "follower_init": (dict, type(None)), "Ns": (list, tuple)}


def config_to_dict(config: ScenarioConfig) -> dict:
    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> ScenarioConfig:
    names = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ConfigError([f"unknown top-level key {k!r}" for k in unknown])
    missing = sorted(f.name for f in dataclasses.fields(ScenarioConfig)
                     if f.name not in data and f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
    if missing:
        raise ConfigError([f"missing required key {k!r}" for k in missing])
    wrong = [f"{k}: must be a JSON {'array' if k == 'Ns' else 'object'}, "
             f"got {v!r}" for k, v in data.items()
             if k in _SHAPES and not isinstance(v, _SHAPES[k])]
    if wrong:
        raise ConfigError(wrong)
    return ScenarioConfig(**data)


def save_config(config: ScenarioConfig, path) -> None:
    text = json.dumps(config_to_dict(config), indent=2, sort_keys=True)
    Path(path).write_text(text + "\n")


def load_config(path) -> ScenarioConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read {path}: {exc}"]) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"parse error at line {exc.lineno} column {exc.colno}: "
             f"{exc.msg}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["top level must be a JSON object"])
    config = config_from_dict(data)
    violations = validate_config(config)
    if violations:
        raise ConfigError(violations)
    return config


# ---------------------------------------------------------------------------
# validation: the object constructors and the experiments hold every rule
# about a value the library reads (see ``_build``); the rules below are
# about the config's shape and values that no library function reads

def _is_num(x) -> bool:
    return _is_real(x) and math.isfinite(x)


def _shape_rules(config: ScenarioConfig, out) -> None:
    if not isinstance(config.name, str) or not config.name:
        out.append("name: must be a nonempty string")
    if config.kind not in _KINDS:
        out.append(f"kind: must be one of {_KINDS}, got {config.kind!r}")
    for key in sorted(set(config.model) - set(_MODEL_KEYS)):
        out.append(f"model.{key}: unknown key; expected one of {_MODEL_KEYS}")
    family = config.delay_law.get("family")
    law_keys = _DELAY_LAWS.get(family) if isinstance(family, str) else None
    if law_keys is not None:
        for key in sorted(set(config.delay_law) - {"family", *law_keys}):
            out.append(f"delay_law.{key}: unknown key for the "
                       f"{config.delay_law['family']} family; expected "
                       f"{law_keys}")
    if set(config.policies) != {"leader", "follower"}:
        out.append("policies: must have exactly the keys leader and follower")

    takes = _parameters(config.kind) if config.kind in _KINDS else {}
    Ns = config.Ns
    if not Ns or not all(_is_int(n) for n in Ns):
        out.append("Ns: must be a nonempty list of integers")
    elif "N" in takes and len(Ns) != 1:
        out.append(f"Ns: {config.kind} takes a single population size, "
                   f"got {len(Ns)}")
    for name in _ARGUMENT_FIELDS if takes else ():
        if name not in takes and getattr(config, name) is not None:
            out.append(f"{name}: {config.kind} does not read {name}; leave "
                       f"it out or set it to null")
    if not _is_int(config.seed) or config.seed < 0:
        out.append("seed: must be an integer >= 0")
    if config.kind in _GAP_KINDS:
        if not isinstance(config.rate_assertions, bool):
            out.append("rate_assertions: must be true or false")
    elif config.kind in _KINDS and config.rate_assertions is not None:
        out.append(f"rate_assertions: {config.kind} has no verdict to "
                   f"assert; leave it out or set it to null")
    if config.out_dir is not None and not isinstance(config.out_dir, str):
        out.append("out_dir: must be null or a string")

    allowed = _EXTRA_KEYS[config.kind] if config.kind in _KINDS else ()
    for key in sorted(set(config.extras) - set(allowed)):
        out.append(f"extras.{key}: not recognized for kind {config.kind!r}")
    devs = config.extras.get("deviations")
    if config.kind == "epsilon_nash" and isinstance(devs, tuple):
        for k, dev in enumerate(devs):
            if not isinstance(dev, dict) or set(dev) - {"leader", "follower"}:
                out.append(f"extras.deviations[{k}]: expected keys leader "
                           f"and/or follower")

    # one q line at most: a q rule of the experiment comes first
    low_q = _is_num(config.q) and config.q <= 4
    if low_q and config.kind in _GAP_KINDS and config.rate_assertions \
            and not any(v.startswith("q: ") for v in out):
        out.append(f"q: rate predictions need more than 4 finite moments of "
                   f"the initial data, got q = {config.q!r} (set "
                   f"rate_assertions to false to run anyway)")
    if config.follower_init is not None \
            and config.follower_init.get("family") == "student_t":
        params = config.follower_init.get("params", {})
        df = params.get("df", 0) if isinstance(params, dict) else 0
        if _is_num(config.q) and _is_num(df) and config.q >= df:
            out.append(f"q: student_t initial data has moments only below "
                       f"df = {df!r}, got q = {config.q!r}")


def validate_config(config: ScenarioConfig) -> list:
    """All violations as strings; empty list means the config is valid."""
    return _checked(config)[1]


def _checked(config: ScenarioConfig):
    """(objects of ``_build``, every violation of ``validate_config``)."""
    objects, out = _build(config)
    _shape_rules(config, out)
    return objects, out


# ---------------------------------------------------------------------------
# building runtime objects

_MODEL_KEYS = ("family", "params", "features", "n1", "T", "h", "b")
# config family -> arguments of the DelayLaw constructor of that name
_DELAY_LAWS = {"degenerate": ("a",), "discrete": ("atoms", "weights"),
               "uniform": ("lo", "hi")}


def _policy(role: str, spec) -> Policy:
    pol = Policy(*family_spec("policy", spec))
    check_policy(role, pol)
    return pol


def _delay_law(spec: dict) -> DelayLaw:
    family = spec.get("family")
    if not isinstance(family, str) or family not in _DELAY_LAWS:
        raise ParameterError(f"unknown delay law family {family!r}; choose "
                             f"from {tuple(_DELAY_LAWS)}")
    return getattr(DelayLaw, family)(*(spec.get(k) for k in _DELAY_LAWS[family]))


def _build(config: ScenarioConfig):
    """Build every runtime object whose inputs are present, and check the
    experiment's arguments with the library checks the run calls.

    Returns (objects, errors): objects maps "grid", "model", "delay_law",
    "policies" and "deviations" (the epsilon_nash library) to what could be
    built; errors holds one line per constructor or experiment-rule error,
    under the field path of its input."""
    errors = []

    def attempt(path, make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except StackmfError as exc:
            errors.append(f"{path}: {type(exc).__name__}: {exc}")
            return None

    def check(path, fn, *args, **kwargs) -> bool:
        count = len(errors)
        attempt(path, fn, *args, **kwargs)
        return len(errors) == count

    m = config.model
    grid = attempt("model", TimeGrid.over, m.get("b"), m.get("T"), m.get("h"))
    coeffs = attempt("model", CoefficientSet, m.get("family"),
                     m.get("params", {}), m.get("features", ()))
    objects = {"grid": grid,
               "delay_law": attempt("delay_law", _delay_law, config.delay_law)}
    inits = [check(f"{role}_init", check_initial, role, spec)
             for role, spec in (("leader", config.leader_init),
                                ("follower", config.follower_init))
             if spec is not None]
    if grid is not None and coeffs is not None and all(inits):
        objects["model"] = attempt(
            "model", ModelSpec, coefficients=coeffs, grid=grid,
            n1=m.get("n1", 1), q=config.q, leader_init=config.leader_init,
            follower_init=config.follower_init)
    leader, follower = (
        attempt(f"policies.{role}", _policy, role, config.policies.get(role))
        for role in ("leader", "follower"))
    if leader is not None and follower is not None:
        objects["policies"] = PolicySet(leader, follower)
    devs = config.extras.get("deviations") \
        if config.kind == "epsilon_nash" else None
    profile = objects.get("policies")
    library = []
    for k, dev in enumerate(devs if isinstance(devs, tuple) else ()):
        roles = [attempt(f"extras.deviations[{k}].{role}", _policy, role,
                         dev[role])
                 if isinstance(dev, dict) and dev.get(role) is not None
                 else getattr(profile, role, None)
                 for role in ("leader", "follower")]
        if profile is not None and None not in roles:
            library.append(PolicySet(*roles))
            attempt(f"extras.deviations[{k}]", deviated_role, k, library[-1],
                    profile)
    if isinstance(devs, tuple) and len(library) == len(devs):
        objects["deviations"] = library
    _experiment_rules(config, objects, check)
    return objects, errors


# top-level fields that are experiment arguments of the same name; the
# experiments of some kinds do not take them
_ARGUMENT_FIELDS = ("reps", "K", "tol", "regime")
# the field of an experiment argument that does not come from extras.<name>
_FIELDS = {"N": "Ns", "Ns": "Ns", "reps": "reps", "K": "K", "tol": "tol",
           "deviation_library": "extras.deviations", "family": "model.family"}


# cached per function object, so a rebound experiment is read afresh
_signature = functools.cache(inspect.signature)


def _parameters(kind: str):
    """Name -> inspect.Parameter of the experiment that runs kind."""
    return _signature(_experiment(kind)).parameters


def _arguments(config: ScenarioConfig, objects: dict) -> dict:
    """Name -> value of each argument but seed and threads that the
    experiment of config.kind takes: the objects of ``_build``, the sizes,
    the scenario name, the ``_ARGUMENT_FIELDS`` and the extras.  A null
    value of an argument with a default is left out, so the experiment's
    default holds (for kappa and gamma: no cap).  Until objects hold the
    whole deviation library, the config's deviations stand in for it."""
    params = _parameters(config.kind)
    supplied = {
        **config.extras, "scenario": config.name,
        "Ns": config.Ns, "N": config.Ns[0] if config.Ns else None,
        **{name: getattr(config, name) for name in _ARGUMENT_FIELDS},
        "model": objects.get("model"), "delay_law": objects.get("delay_law"),
        "policies": objects.get("policies"),
        "profile": objects.get("policies"),
        "deviation_library": objects.get("deviations",
                                         config.extras.get("deviations"))}
    return {name: value for name, value in supplied.items() if name in params
            and (value is not None or params[name].default is params[name].empty)}


def _experiment_rules(config: ScenarioConfig, objects: dict, check) -> None:
    """The argument checks of the experiment of config.kind, on the
    arguments of ``_arguments``, each through check(path, fn, *args), which
    reports an error under the field path and returns whether fn passed.
    Checks whose inputs failed are left out; an unknown kind gets the lag
    span check only."""
    model, law, grid = map(objects.get, ("model", "delay_law", "grid"))
    if grid is not None and law is not None:
        check("delay_law", _check_lag_span, law.b, grid)
    if config.kind not in _KINDS:
        return
    params, args = _parameters(config.kind), _arguments(config, objects)
    # the value the run passes for each argument
    run = {name: p.default for name, p in params.items()} | args
    regime = args.get("regime")
    regime_ok = regime is None or check("regime", _check_regime, regime)
    if grid is not None and "time_index" in params:
        check("extras.time_index", _time_index, run["time_index"],
              grid.forward_steps)
    Ns = config.Ns
    sized = Ns and all(_is_int(n) for n in Ns) \
        and ("N" not in params or len(Ns) == 1)        # else a shape rule
    rules = {**_SOLVER_RULES, **_RULES[config.kind]}
    passed = {name: check(_FIELDS.get(name, f"extras.{name}"), _check_rules,
                          rules, {name: value})
              for name, value in {"family": config.model.get("family"),
                                  **args}.items()
              if name in rules and (sized or name not in ("N", "Ns"))}
    # the q rules of an experiment that solves the conditional law, one
    # line at most: the balanced partition level first
    if "K" not in params or model is None or law is None or not sized \
            or not all(passed.get(name, True)
                       for name in ("N", "Ns", "partition_level")):
        return
    level = [run["partition_level"]] if "partition_level" in params else []
    if check("q", _partition_level, law, model, Ns[0], *level) \
            and regime is not None and regime_ok:
        check("q", _check_regime, regime, model.q)


def build_objects(config: ScenarioConfig):
    """(model, policies, delay_law) from a config; raises ConfigError with
    every error of ``_build``, each under its field path."""
    objects, errors = _build(config)
    if errors:
        raise ConfigError(errors)
    return objects["model"], objects["policies"], objects["delay_law"]


def resolve_threads(threads=None) -> int:
    """--threads flag, then STACKMF_THREADS, then 1; a count below 1 from
    either source is a ConfigError.

    The count is of worker processes.  A run forks at most as many as it
    has work units and CPUs it may use, and with one it forks none; the
    serial path is the default."""
    source, env = "--threads", os.environ.get("STACKMF_THREADS")
    if threads is None:
        if not env:
            return 1
        source, threads = "STACKMF_THREADS", env
    try:
        count = int(threads)
    except ValueError:
        raise ConfigError([f"{source} must be an integer, got {threads!r}"])
    if count < 1:
        raise ConfigError([f"{source} must be at least 1, got {threads!r}"])
    return count


# ---------------------------------------------------------------------------
# emission

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_rows(report) -> list:
    """The rows of results.csv; a column that a row leaves out is empty."""
    if isinstance(report, GapReport):
        fit = {"slope": _fmt(report.slope),
               "slope_stderr": _fmt(report.slope_stderr),
               "predicted_exponent": _fmt(report.predicted_rate),
               "verdict": report.verdict}
        return [{"scenario": report.scenario, "N": N, "reps": report.reps,
                 "gap_mean": _fmt(mean), "gap_stderr": _fmt(stderr),
                 "quantity": name, **(fit if name == report.quantity else {})}
                for name in sorted(report.curves)
                for N, mean, stderr in zip(report.Ns, *report.curves[name])]
    if isinstance(report, EpsilonReport):
        base = {"scenario": report.scenario, "N": report.N, "reps": report.reps}
        gains = [dict(base, quantity=f"{role}_gain_{k}", gap_mean=_fmt(gain),
                      gap_stderr=_fmt(stderr))
                 for role in ("follower", "leader")
                 for k, (gain, stderr) in enumerate(zip(
                     getattr(report, f"{role}_gains"),
                     getattr(report, f"{role}_gain_stderrs")))]
        return gains + [dict(base, quantity=name,
                             gap_mean=_fmt(getattr(report, name)))
                        for name in ("epsilon_hat", "epsilon2_hat")]
    if isinstance(report, EtaReport):
        base = {"scenario": report.scenario, "N": report.N,
                "reps": report.panels * report.leader_paths}
        return [dict(base, quantity=f"eta_{name}",
                     gap_mean=_fmt(getattr(report, name)))
                for name in ("lhs", "rhs", "ratio")]
    raise TypeError(f"no CSV mapping for {type(report).__name__}")


def config_hash(config: ScenarioConfig) -> str:
    canon = json.dumps(config_to_dict(config), sort_keys=True,
                       separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_outputs(out_dir: Path, config: ScenarioConfig, seed: int,
                   report, status: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"name": config.name, "kind": config.kind, "status": status}
    if isinstance(report, dict):
        payload.update(report)
    else:
        payload["report"] = dataclasses.asdict(report)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, default=_fmt,
                          allow_nan=False)
    except ValueError as exc:
        raise ExperimentInvalidError(f"non-finite value in the report: {exc}")
    (out_dir / "report.json").write_text(text + "\n")
    manifest = {
        "config_sha256": config_hash(config),
        "master_seed": int(seed),
        "stream_layout": STREAM_LAYOUT,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "stackmf": __version__},
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if isinstance(report, dict):
        # an invalid run has no results; an earlier run's must not remain
        (out_dir / "results.csv").unlink(missing_ok=True)
    else:
        with open(out_dir / "results.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS,
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(_csv_rows(report))


# ---------------------------------------------------------------------------
# orchestration

def _experiment(kind: str):
    """The experiment that runs a kind, read from this module's bindings when
    called, so that a rebinding (perfbench/tracer.py) is the one run."""
    return {"state_gap": state_gap_experiment,
            "wasserstein_gap": wasserstein_gap_curve,
            "cost_gap": cost_gap_experiment,
            "epsilon_nash": epsilon_nash_certify,
            "eta_orthogonality": eta_orthogonality_check}[kind]


def _dispatch(config: ScenarioConfig, objects: dict, seed: int, threads: int):
    return _experiment(config.kind)(**_arguments(config, objects), seed=seed,
                                    threads=threads)


def _assertions_pass(config: ScenarioConfig, report) -> bool:
    if isinstance(report, GapReport) and config.rate_assertions \
            and config.regime is not None:
        return report.verdict == "pass"
    return True


def _plan_lines(config: ScenarioConfig, seed: int, threads: int,
                out_dir: Path) -> list:
    args, params = _arguments(config, {}), _parameters(config.kind)
    # worker processes the run uses, over leader paths or replication blocks
    units = args["leader_paths"] if "leader_paths" in args \
        else -(-args["reps"] // _BLOCK)
    read = "".join(f" {name}={_fmt(getattr(config, name)) or '-'}"
                   for name in _ARGUMENT_FIELDS if name in params)
    return [f"scenario {config.name} ({config.kind})",
            f"  Ns={list(config.Ns)}{read} seed={seed} "
            f"threads={_workers(threads, units)}",
            *([f"  rate_assertions={config.rate_assertions}"]
              if config.kind in _GAP_KINDS else []),
            f"  outputs: {out_dir}/results.csv, report.json, manifest.json"]


def run_experiment(config: ScenarioConfig, *, threads=None, seed=None,
                   out_dir=None, dry_run: bool = False, stream=None) -> int:
    """Run one scenario and write its artifacts; returns the exit status.

    0: experiment valid and every enabled assertion passed.  1: ran to
    completion but an enabled assertion failed.  2: invalid config or
    invalid experiment (reported machine-readably in report.json).
    """
    stream = stream or sys.stdout
    try:
        objects, violations = _checked(config)
        if violations:
            raise ConfigError(violations)
        threads = resolve_threads(threads)
        seed = config.seed if seed is None else int(seed)
        if seed < 0:
            raise ConfigError([f"--seed must be at least 0, got {seed}"])
    except ConfigError as exc:
        for v in exc.violations:
            print(f"invalid-config: {v}", file=stream)
        return 2
    out = Path(out_dir or config.out_dir or f"stackmf-out-{config.name}")
    if dry_run:
        for line in _plan_lines(config, seed, threads, out):
            print(line, file=stream)
        return 0
    try:
        report = _dispatch(config, objects, seed, threads)
        ok = _assertions_pass(config, report)
        _write_outputs(out, config, seed, report, "ok" if ok else
                       "assertions_failed")
    except StackmfError as exc:
        _write_outputs(out, config, seed,
                       {"error_type": type(exc).__name__,
                        "reason": str(exc)}, "invalid")
        print(f"invalid: [{type(exc).__name__}] {exc}", file=stream)
        return 2
    if isinstance(report, GapReport):
        print(f"{config.name}: quantity={report.quantity} "
              f"slope={_fmt(report.slope)} "
              f"predicted={_fmt(report.predicted_rate)} "
              f"verdict={report.verdict}", file=stream)
    elif isinstance(report, EpsilonReport):
        print(f"{config.name}: epsilon_hat={_fmt(report.epsilon_hat)} "
              f"epsilon2_hat={_fmt(report.epsilon2_hat)}", file=stream)
    else:
        print(f"{config.name}: eta_ratio={_fmt(report.ratio)}", file=stream)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# preset library

def _model(family, params, features, T, h, b):
    return {"family": family, "params": params, "features": features,
            "n1": 1, "T": T, "h": h, "b": b}


def _affine(gain=0.0, gain_lead=0.0):
    return {"family": "affine", "params": {
        key: v for key, v in (("gain", gain), ("gain_lead", gain_lead)) if v}}


def _preset(name, kind, model, delay_law, leader, follower,
            **fields) -> ScenarioConfig:
    """A preset; unless fields say otherwise: no leader initial path,
    normal(0, 0.6) followers, q = 6, tol = 1e-3, seed 5, and rate
    assertions on for a gap kind."""
    return ScenarioConfig(**{
        "name": name, "kind": kind, "model": model, "delay_law": delay_law,
        "leader_init": None, "q": 6.0, "tol": 1e-3, "seed": 5,
        "rate_assertions": True if kind in _GAP_KINDS else None,
        "follower_init": {"family": "normal", "params": {"scale": 0.6}},
        "policies": {"leader": leader, "follower": follower}, **fields})


def presets() -> dict:
    """Name -> ScenarioConfig; at least one scenario per prediction regime."""
    zero = {"family": "zero", "params": {}}
    ou = {"family": "ou_path", "params": {"theta": 1.0, "vol": 0.4}}
    two_atoms = {"family": "discrete", "atoms": [0.0625, 0.125],
                 "weights": [0.5, 0.5]}
    uniform = {"family": "uniform", "lo": 0.0625, "hi": 0.125}
    smooth = {"a1": -0.8, "b1": 0.5, "k1": 0.5, "s1": 0.25, "t1": 0.2,
              "a0": -0.5, "b0": 0.4, "k0": 0.4, "s0": 0.3}
    linear = {"a1": -0.8, "k1": 0.5, "s1": 0.3, "a0": -0.5, "k0": 0.4,
              "s0": 0.3, "kernel": "tanh_mean", "cost1_state": 1.0,
              "cost1_track": 0.5, "cost0_state": 0.5, "cost1_control": 0.2}
    Ns = [8, 16, 32, 64, 128, 256]
    entries = [
        # heavy-tailed initial data with barely more than four moments
        # keeps the empirical-measure term visible over the whole N range
        _preset("degenerate-delay-n1-1", "wasserstein_gap", _model(
            "smooth_nonlinear",
            {"a1": -0.3, "b1": 0.5, "k1": 0.4, "s1": 0.05, "s1_x": 0.15,
             "t1": 0.1, "a0": -0.5, "b0": 0.4, "s0": 0.35},
            ["mean"], 0.25, 1.0 / 64, 0.125),
            {"family": "degenerate", "a": 0.125},
            _affine(gain=-0.3), _affine(gain=-0.1, gain_lead=0.6),
            leader_init=ou, q=4.1, follower_init={
                "family": "student_t", "params": {"df": 4.2, "scale": 0.5}},
            Ns=Ns, reps=200, K=4096, regime="degenerate_delta",
            extras={"slope_tol": 0.25}),
        _preset("two-atom-delay-n1-1", "state_gap",
                _model("smooth_nonlinear", smooth, ["mean"], 1.0, 1.0 / 40, 0.3),
                {"family": "discrete", "atoms": [0.1, 0.3],
                 "weights": [0.5, 0.5]},
                _affine(gain=-0.3), _affine(gain=-0.2, gain_lead=0.5),
                Ns=Ns, reps=50, K=2048, regime="discrete_delta"),
        _preset("uniform-delay-n1-1", "state_gap", _model(
            "smooth_nonlinear", smooth, ["mean"], 1.0, 1.0 / 32, 0.125),
            uniform, _affine(gain=-0.3), _affine(gain=-0.2, gain_lead=0.5),
            Ns=Ns[:4], reps=50, K=1024, regime="general"),
        # leader control enters neither drift nor diffusion of the leader
        _preset("sigma0-control-free-n1-1", "state_gap", _model(
            "smooth_nonlinear", {key: v for key, v in smooth.items()
                                 if key not in ("b0", "k0")},
            ["mean"], 0.5, 1.0 / 32, 0.125),
            uniform, zero, _affine(gain=-0.2, gain_lead=0.5),
            Ns=Ns[:4], reps=50, K=1024, regime="sigma0_control_free"),
        *(_preset(name, kind, _model("linear_in_measure", linear,
                                     ["tanh_mean", "mean"], 1.0, 1.0 / 32,
                                     0.125),
                  two_atoms, _affine(gain=-0.2),
                  _affine(gain=-0.2, gain_lead=0.4), leader_init=ou, Ns=Ns,
                  reps=60, K=4096, regime="linear_in_measure")
          for name, kind in (("linear-in-measure-n1-1", "state_gap"),
                             ("linear-in-measure-cost-n1-1", "cost_gap"))),
        # control enters the costs only, so deviation losses are exact
        _preset("epsilon-nash-n16", "epsilon_nash", _model(
            "linear_quadratic",
            {"a1": -0.8, "s1": 0.3, "a0": -0.5, "s0": 0.25,
             "cost1_control": 1.0, "cost0_control": 1.0},
            [], 0.5, 1.0 / 16, 0.125),
            {"family": "degenerate", "a": 0.125}, zero, zero,
            follower_init={"family": "normal", "params": {"scale": 0.5}},
            Ns=[16], reps=100, tol=None, extras={
                "kappa": 5.0, "gamma": 5.0, "deviations": [
                    {"follower": {"family": "constant",
                                  "params": {"value": 0.7}}},
                    {"leader": {"family": "constant",
                                "params": {"value": 0.5}}}]}),
        _preset("eta-orthogonality-n64", "eta_orthogonality", _model(
            "linear_in_measure",
            {"a1": -0.8, "k1": 0.5, "s1": 0.3, "a0": -0.5, "s0": 0.3,
             "kernel": "tanh_mean"}, ["tanh_mean"], 0.5, 1.0 / 32, 0.125),
            two_atoms, _affine(gain=-0.2), _affine(gain=-0.2, gain_lead=0.4),
            Ns=[64], K=2048, extras={"panels": 500, "leader_paths": 20}),
    ]
    return {cfg.name: cfg for cfg in entries}


# ---------------------------------------------------------------------------
# command line

def _load_arg(arg: str) -> ScenarioConfig:
    """A run/validate target is a config path or a preset name."""
    library = presets()
    if arg in library and not Path(arg).exists():
        return library[arg]
    return load_config(arg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stackmf",
        description="Delayed leader-follower games against their "
                    "mean-field limit: rate experiments and certifications.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config or preset")
    run_p.add_argument("config", help="path to a JSON config, or a preset name")
    run_p.add_argument("--threads", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--dry-run", action="store_true")

    val_p = sub.add_parser("validate", help="validate a config and exit")
    val_p.add_argument("config")

    pre_p = sub.add_parser("presets", help="inspect the preset library")
    pre_p.add_argument("action", choices=["list", "show"])
    pre_p.add_argument("name", nargs="?", default=None)

    args = parser.parse_args(argv)
    if args.command == "presets":
        library = presets()
        if args.action == "list":
            for name, cfg in library.items():
                print(f"{name:32} {cfg.kind:18} {cfg.regime or '-'}")
            return 0
        if args.name not in library:
            print(f"unknown preset {args.name!r}", file=sys.stderr)
            return 2
        print(json.dumps(config_to_dict(library[args.name]), indent=2,
                         sort_keys=True))
        return 0
    try:
        config = _load_arg(args.config)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"invalid-config: {v}", file=sys.stderr)
        return 2
    if args.command == "validate":
        print(f"{config.name}: ok")
        return 0
    return run_experiment(config, threads=args.threads, seed=args.seed,
                          out_dir=args.out, dry_run=args.dry_run)


if __name__ == "__main__":
    sys.exit(main())
