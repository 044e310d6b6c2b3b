"""Batch entry point: scenario configs, presets, orchestration, emission.

A scenario is a JSON document with the following top-level keys (see
``ScenarioConfig`` for defaults):

  name           scenario identifier, used in file names and CSV rows
  kind           one of state_gap | wasserstein_gap | cost_gap |
                 epsilon_nash | eta_orthogonality
  model          {"family", "params", "features", "n0", "n1",
                  "d0", "d1", "p0", "p1", "T", "h", "b"}: coefficient
                 family and params, measure features,
                 state/noise/control dimensions (d0 = n0, d1 = n1), horizon
                 T, step h and lag span b; no other key is accepted
  delay_law      {"family": "degenerate", "a": ...} |
                 {"family": "discrete", "atoms": [...], "weights": [...]} |
                 {"family": "uniform", "lo": ..., "hi": ...}, nothing else
  leader_init    initial-condition family for the leader, or null
  follower_init  initial-condition family for the followers, or null
  q              moment order of the initial data
  policies       {"leader": {"family", "params"}, "follower": {...}}
  Ns             population sizes (one entry for epsilon_nash and
                 eta_orthogonality)
  reps, K, tol   replications, particle count, fixed-point tolerance
  seed           master seed; every emitted number is a function of
                 (config, seed)
  regime         prediction regime for rate experiments, or null
  rate_assertions  when true, a rate experiment exits nonzero unless its
                 verdict is "pass"
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
import hashlib
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
from ._rng import STREAM_LAYOUT
from .dynamics import (
    CoefficientSet,
    DelayLaw,
    ModelSpec,
    Policy,
    PolicySet,
    TimeGrid,
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
from .rates import (
    _REGIMES,
    EpsilonReport,
    EtaReport,
    GapReport,
    cost_gap_experiment,
    epsilon_nash_certify,
    eta_orthogonality_check,
    state_gap_experiment,
    wasserstein_gap_curve,
)

_KINDS = ("state_gap", "wasserstein_gap", "cost_gap", "epsilon_nash",
          "eta_orthogonality")
_GAP_KINDS = ("state_gap", "wasserstein_gap", "cost_gap")
_EXTRA_KEYS = {
    "state_gap": ("slope_tol", "partition_level", "max_iter", "damping"),
    "wasserstein_gap": ("slope_tol", "partition_level", "max_iter", "damping"),
    "cost_gap": ("slope_tol", "partition_level", "max_iter", "damping"),
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
    reps: int
    K: int
    tol: float
    seed: int
    regime: str | None = None
    rate_assertions: bool = True
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
    missing = sorted(n for n in names
                     if n not in data
                     and ScenarioConfig.__dataclass_fields__[n].default
                     is dataclasses.MISSING
                     and ScenarioConfig.__dataclass_fields__[n].default_factory
                     is dataclasses.MISSING)
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
# validation: the object constructors hold every rule about one object; the
# rules below are about the config's shape, across objects, or per kind

def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _cross_object_rules(config: ScenarioConfig, objects: dict, out) -> None:
    m = config.model
    grid, law = objects.get("grid"), objects.get("delay_law")
    low_q = _is_num(config.q) and config.q <= 4
    # eta, and gap kinds at partition_level "auto", split a uniform law at
    # the balanced level, which needs q > 4 whatever rate_assertions says
    balanced = law is not None and law.kind == "continuous" and (
        config.kind == "eta_orthogonality" or config.kind in _GAP_KINDS
        and config.extras.get("partition_level", "auto") == "auto")
    if low_q and balanced:
        out.append(f"q: the balanced partition level of a uniform delay law "
                   f"needs q > 4, got q = {config.q!r}")
    elif low_q and config.kind in _GAP_KINDS and config.regime == "general":
        out.append(f"q: the general regime's predicted exponent needs q > 4, "
                   f"got q = {config.q!r}")
    elif low_q and config.kind in _GAP_KINDS and config.rate_assertions:
        out.append(f"q: rate predictions need more than 4 finite moments of "
                   f"the initial data, got q = {config.q!r} (set "
                   f"rate_assertions to false to run anyway)")
    if config.follower_init is not None \
            and config.follower_init.get("family") == "student_t":
        df = config.follower_init.get("params", {}).get("df", 0)
        if _is_num(config.q) and _is_num(df) and config.q >= df:
            out.append(f"q: student_t initial data has moments only below "
                       f"df = {df!r}, got q = {config.q!r}")
    if grid is not None and law is not None and law.b > grid.b + 1e-12:
        out.append(f"delay_law: delay support reaches {law.b!r}, beyond the "
                   f"lag span b = {grid.b!r}")
    ti = config.extras.get("time_index")
    if config.kind == "eta_orthogonality" and grid is not None \
            and _is_int(ti) and ti > grid.forward_steps:
        out.append(f"extras.time_index: {ti} is beyond the last forward "
                   f"step {grid.forward_steps} of the grid")
    # diffusions are square in this implementation
    for d, n in (("d0", "n0"), ("d1", "n1")):
        if _is_int(m.get(d)) and m[d] != m.get(n, 1):
            out.append(f"model.{d}: must equal {n} (square diffusion)")


def _kind_rules(config: ScenarioConfig, out) -> None:
    Ns = config.Ns
    if not Ns or any(not _is_int(n) for n in Ns):
        out.append("Ns: must be a nonempty list of integers")
    elif config.kind in ("epsilon_nash", "eta_orthogonality"):
        if len(Ns) != 1:
            out.append(f"Ns: {config.kind} takes a single population "
                       f"size, got {len(Ns)}")
        elif Ns[0] < 2:
            out.append("Ns: need at least 2 players")
        elif config.kind == "epsilon_nash" and Ns[0] > 64:
            out.append("Ns: epsilon_nash is capped at N = 64")
    else:
        floor = 2 if config.kind == "wasserstein_gap" else 4
        if any(b1 <= a1 for a1, b1 in zip(Ns, Ns[1:])):
            out.append("Ns: must be strictly increasing")
        if Ns[0] < floor:
            out.append(f"Ns: minimum population for {config.kind} "
                       f"is {floor}")
        if len(Ns) < 3:
            out.append("Ns: need at least 3 sizes to fit a slope")

    if not _is_int(config.reps) or config.reps < 1:
        out.append("reps: must be an integer >= 1")
    elif config.kind in _GAP_KINDS and config.reps < 50:
        out.append("reps: gap experiments need at least 50 replications")
    if not _is_int(config.K) or config.K < 100:
        out.append("K: need at least 100 particles per delay atom")
    if not _is_num(config.tol) or config.tol <= 0:
        out.append("tol: must be a positive finite number")
    if not _is_int(config.seed):
        out.append("seed: must be an integer")

    if config.regime is not None and config.regime not in _REGIMES:
        out.append(f"regime: must be null or one of {_REGIMES}")

    allowed = _EXTRA_KEYS.get(config.kind, ())
    for key in sorted(set(config.extras) - set(allowed)):
        out.append(f"extras.{key}: not recognized for kind {config.kind!r}")
    ex = config.extras
    if "slope_tol" in ex and (not _is_num(ex["slope_tol"])
                              or ex["slope_tol"] <= 0):
        out.append("extras.slope_tol: must be a positive number")
    if "max_iter" in ex and (not _is_int(ex["max_iter"]) or ex["max_iter"] < 1):
        out.append("extras.max_iter: must be an integer >= 1")
    if "damping" in ex and (not _is_num(ex["damping"])
                            or not 0 < ex["damping"] <= 1):
        out.append("extras.damping: must lie in (0, 1]")
    if "partition_level" in ex and ex["partition_level"] != "auto" \
            and (not _is_int(ex["partition_level"])
                 or ex["partition_level"] < 1):
        out.append("extras.partition_level: must be 'auto' or an integer >= 1")
    if config.kind == "epsilon_nash":
        devs = ex.get("deviations")
        if not isinstance(devs, tuple) or not devs:
            out.append("extras.deviations: epsilon_nash needs a nonempty "
                       "list of deviations")
        else:
            for k, dev in enumerate(devs):
                if not isinstance(dev, dict) or \
                        set(dev) - {"leader", "follower"}:
                    out.append(f"extras.deviations[{k}]: expected keys "
                               f"leader and/or follower")
        for cap in ("kappa", "gamma"):
            if ex.get(cap) is not None and (not _is_num(ex[cap])
                                            or ex[cap] <= 0):
                out.append(f"extras.{cap}: must be null or a positive number")
    if config.kind == "eta_orthogonality":
        for key in ("panels", "leader_paths"):
            if not _is_int(ex.get(key)) or ex.get(key, 0) < 1:
                out.append(f"extras.{key}: must be an integer >= 1")
        ti = ex.get("time_index")
        if ti is not None and (not _is_int(ti) or ti < 0):
            out.append("extras.time_index: must be null or an integer >= 0")

    if config.out_dir is not None and not isinstance(config.out_dir, str):
        out.append("out_dir: must be null or a string")


def validate_config(config: ScenarioConfig) -> list:
    """All violations as strings; empty list means the config is valid."""
    out = []
    if not isinstance(config.name, str) or not config.name:
        out.append("name: must be a nonempty string")
    if config.kind not in _KINDS:
        out.append(f"kind: must be one of {_KINDS}, got {config.kind!r}")
    for key in sorted(set(config.model) - set(_MODEL_KEYS)):
        out.append(f"model.{key}: unknown key; expected one of {_MODEL_KEYS}")
    law_keys = _DELAY_LAWS.get(config.delay_law.get("family"))
    if law_keys is not None:
        for key in sorted(set(config.delay_law) - {"family", *law_keys}):
            out.append(f"delay_law.{key}: unknown key for the "
                       f"{config.delay_law['family']} family; expected "
                       f"{law_keys}")
    if set(config.policies) != {"leader", "follower"}:
        out.append("policies: must have exactly the keys leader and follower")
    objects, errors = _build(config)
    out.extend(errors)
    _cross_object_rules(config, objects, out)
    _kind_rules(config, out)
    return out


# ---------------------------------------------------------------------------
# building runtime objects

_MODEL_KEYS = ("family", "params", "features", "n0", "n1", "d0", "d1", "p0",
               "p1", "T", "h", "b")
# config family -> arguments of the DelayLaw constructor of that name
_DELAY_LAWS = {"degenerate": ("a",), "discrete": ("atoms", "weights"),
               "uniform": ("lo", "hi")}


def _policy(role: str, spec) -> Policy:
    pol = Policy(*family_spec("policy", spec))
    check_policy(role, pol)
    return pol


def _delay_law(spec: dict) -> DelayLaw:
    family = spec.get("family")
    if family not in _DELAY_LAWS:
        raise ParameterError(f"unknown delay law family {family!r}; choose "
                             f"from {tuple(_DELAY_LAWS)}")
    return getattr(DelayLaw, family)(*(spec.get(k) for k in _DELAY_LAWS[family]))


def _build(config: ScenarioConfig):
    """Build every runtime object whose inputs are present.

    Returns (objects, errors): objects maps "grid", "model", "delay_law" and
    "policies" to what could be built; errors holds one line per
    constructor error, under the field path of its input."""
    errors = []

    def attempt(path, make, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except StackmfError as exc:
            errors.append(f"{path}: {type(exc).__name__}: {exc}")
            return None

    m = config.model
    grid = attempt("model", TimeGrid.over, m.get("b"), m.get("T"), m.get("h"))
    coeffs = attempt("model", CoefficientSet, m.get("family"),
                     m.get("params", {}), m.get("features", ()))
    objects = {"grid": grid,
               "delay_law": attempt("delay_law", _delay_law, config.delay_law)}
    before = len(errors)
    for role in ("leader", "follower"):
        spec = getattr(config, f"{role}_init")
        if spec is not None:
            attempt(f"{role}_init", check_initial, role, spec)
    if grid is not None and coeffs is not None and len(errors) == before:
        objects["model"] = attempt(
            "model", ModelSpec, coefficients=coeffs, grid=grid,
            n0=m.get("n0", 1), n1=m.get("n1", 1), p0=m.get("p0", 1),
            p1=m.get("p1", 1), q=config.q, leader_init=config.leader_init,
            follower_init=config.follower_init)
    leader, follower = (
        attempt(f"policies.{role}", _policy, role, config.policies.get(role))
        for role in ("leader", "follower"))
    if leader is not None and follower is not None:
        objects["policies"] = PolicySet(leader, follower)
    devs = config.extras.get("deviations") \
        if config.kind == "epsilon_nash" else None
    for k, dev in enumerate(devs if isinstance(devs, tuple) else ()):
        for role in ("leader", "follower"):
            if isinstance(dev, dict) and dev.get(role) is not None:
                attempt(f"extras.deviations[{k}].{role}", _policy, role,
                        dev[role])
    return objects, errors


def build_objects(config: ScenarioConfig):
    """(model, policies, delay_law) from a config; raises ConfigError with
    every constructor error, each under its field path."""
    objects, errors = _build(config)
    if errors:
        raise ConfigError(errors)
    return objects["model"], objects["policies"], objects["delay_law"]


def _deviation_library(config: ScenarioConfig, policies: PolicySet) -> list:
    """epsilon_nash deviations as PolicySets; a missing role keeps the
    profile's policy."""
    library = []
    for dev in config.extras["deviations"]:
        library.append(PolicySet(*(
            getattr(policies, role) if dev.get(role) is None
            else _policy(role, dev[role]) for role in ("leader", "follower"))))
    return library


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


def _csv_rows(config: ScenarioConfig, report) -> list:
    rows = []
    if isinstance(report, GapReport):
        fitted = report.quantity
        for name in sorted(report.curves):
            means, stderrs = report.curves[name]
            main = name == fitted
            for i, N in enumerate(report.Ns):
                rows.append({
                    "scenario": report.scenario, "N": N, "reps": report.reps,
                    "gap_mean": _fmt(means[i]), "gap_stderr": _fmt(stderrs[i]),
                    "quantity": name,
                    "slope": _fmt(report.slope) if main else "",
                    "slope_stderr": _fmt(report.slope_stderr) if main else "",
                    "predicted_exponent":
                        _fmt(report.predicted_rate) if main else "",
                    "verdict": report.verdict if main else ""})
    elif isinstance(report, EpsilonReport):
        base = {"scenario": report.scenario, "N": report.N,
                "reps": report.reps, "slope": "", "slope_stderr": "",
                "predicted_exponent": "", "verdict": ""}
        for k, gain in enumerate(report.follower_gains):
            rows.append(dict(base, quantity=f"follower_gain_{k}",
                             gap_mean=_fmt(gain),
                             gap_stderr=_fmt(report.follower_gain_stderrs[k])))
        for k, gain in enumerate(report.leader_gains):
            rows.append(dict(base, quantity=f"leader_gain_{k}",
                             gap_mean=_fmt(gain),
                             gap_stderr=_fmt(report.leader_gain_stderrs[k])))
        rows.append(dict(base, quantity="epsilon_hat",
                         gap_mean=_fmt(report.epsilon_hat), gap_stderr=""))
        rows.append(dict(base, quantity="epsilon2_hat",
                         gap_mean=_fmt(report.epsilon2_hat), gap_stderr=""))
    elif isinstance(report, EtaReport):
        base = {"scenario": report.scenario, "N": report.N,
                "reps": report.panels * report.leader_paths, "slope": "",
                "slope_stderr": "", "predicted_exponent": "", "verdict": "",
                "gap_stderr": ""}
        rows.append(dict(base, quantity="eta_lhs", gap_mean=_fmt(report.lhs)))
        rows.append(dict(base, quantity="eta_rhs", gap_mean=_fmt(report.rhs)))
        rows.append(dict(base, quantity="eta_ratio",
                         gap_mean=_fmt(report.ratio)))
    else:
        raise TypeError(f"no CSV mapping for {type(report).__name__}")
    return rows


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
    (out_dir / "report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_fmt) + "\n")
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
    if not isinstance(report, dict):
        with open(out_dir / "results.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS,
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(_csv_rows(config, report))


# ---------------------------------------------------------------------------
# orchestration

def _dispatch(config: ScenarioConfig, seed: int, threads: int):
    model, policies, delay_law = build_objects(config)
    ex = config.extras
    if config.kind in _GAP_KINDS:
        kwargs = dict(scenario=config.name, regime=config.regime,
                      tol=config.tol, max_iter=ex.get("max_iter", 25),
                      damping=ex.get("damping", 1.0),
                      partition_level=ex.get("partition_level", "auto"),
                      threads=threads)
        if "slope_tol" in ex:
            kwargs["slope_tol"] = float(ex["slope_tol"])
        fn = {"state_gap": state_gap_experiment,
              "wasserstein_gap": wasserstein_gap_curve,
              "cost_gap": cost_gap_experiment}[config.kind]
        return fn(model, policies, delay_law, config.Ns, config.reps,
                  config.K, seed, **kwargs)
    if config.kind == "epsilon_nash":
        return epsilon_nash_certify(
            model, policies, _deviation_library(config, policies),
            config.Ns[0], config.reps, seed,
            delay_law=delay_law,
            kappa=math.inf if ex.get("kappa") is None else float(ex["kappa"]),
            gamma=math.inf if ex.get("gamma") is None else float(ex["gamma"]),
            scenario=config.name, threads=threads)
    return eta_orthogonality_check(
        model, policies, delay_law, config.Ns[0], ex["panels"],
        ex["leader_paths"], config.K, seed,
        time_index=ex.get("time_index"), scenario=config.name,
        tol=config.tol, max_iter=ex.get("max_iter", 25),
        damping=ex.get("damping", 1.0), threads=threads)


def _assertions_pass(config: ScenarioConfig, report) -> bool:
    if isinstance(report, GapReport) and config.rate_assertions \
            and config.regime is not None:
        return report.verdict == "pass"
    return True


def _plan_lines(config: ScenarioConfig, seed: int, threads: int,
                out_dir: Path) -> list:
    lines = [f"scenario {config.name} ({config.kind})",
             f"  Ns={list(config.Ns)} reps={config.reps} K={config.K} "
             f"seed={seed} threads={threads}",
             f"  regime={config.regime or '-'} "
             f"rate_assertions={config.rate_assertions}",
             f"  outputs: {out_dir}/results.csv, report.json, manifest.json"]
    return lines


def run_experiment(config: ScenarioConfig, *, threads=None, seed=None,
                   out_dir=None, dry_run: bool = False, stream=None) -> int:
    """Run one scenario and write its artifacts; returns the exit status.

    0: experiment valid and every enabled assertion passed.  1: ran to
    completion but an enabled assertion failed.  2: invalid config or
    invalid experiment (reported machine-readably in report.json).
    """
    stream = stream or sys.stdout
    violations = validate_config(config)
    if violations:
        for v in violations:
            print(f"invalid-config: {v}", file=stream)
        return 2
    try:
        threads = resolve_threads(threads)
    except ConfigError as exc:
        for v in exc.violations:
            print(f"invalid-config: {v}", file=stream)
        return 2
    seed = config.seed if seed is None else int(seed)
    out = Path(out_dir or config.out_dir or f"stackmf-out-{config.name}")
    if dry_run:
        for line in _plan_lines(config, seed, threads, out):
            print(line, file=stream)
        return 0
    try:
        report = _dispatch(config, seed, threads)
    except (ExperimentInvalidError, StackmfError) as exc:
        _write_outputs(out, config, seed,
                       {"error_type": type(exc).__name__,
                        "reason": str(exc)}, "invalid")
        print(f"invalid: [{type(exc).__name__}] {exc}", file=stream)
        return 2
    ok = _assertions_pass(config, report)
    _write_outputs(out, config, seed, report, "ok" if ok else
                   "assertions_failed")
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

def _gap_model(family, params, features, T, h, b):
    return {"family": family, "params": params, "features": features,
            "n0": 1, "n1": 1, "p0": 1, "p1": 1, "T": T, "h": h, "b": b}


def _affine(gain=0.0, gain_lead=0.0):
    params = {}
    if gain:
        params["gain"] = gain
    if gain_lead:
        params["gain_lead"] = gain_lead
    return {"family": "affine", "params": params}


def _preset_degenerate() -> ScenarioConfig:
    # heavy-tailed initial data with barely more than four moments keeps
    # the empirical-measure term visible over the whole N range
    return ScenarioConfig(
        name="degenerate-delay-n1-1", kind="wasserstein_gap",
        model=_gap_model(
            "smooth_nonlinear",
            {"a1": -0.3, "b1": 0.5, "k1": 0.4, "s1": 0.05, "s1_x": 0.15,
             "t1": 0.1, "a0": -0.5, "b0": 0.4, "s0": 0.35},
            ["mean"], 0.25, 1.0 / 64, 0.125),
        delay_law={"family": "degenerate", "a": 0.125},
        leader_init={"family": "ou_path",
                     "params": {"theta": 1.0, "vol": 0.4}},
        follower_init={"family": "student_t",
                       "params": {"df": 4.2, "scale": 0.5}},
        q=4.1,
        policies={"leader": _affine(gain=-0.3),
                  "follower": _affine(gain=-0.1, gain_lead=0.6)},
        Ns=[8, 16, 32, 64, 128, 256], reps=200, K=4096, tol=1e-3, seed=5,
        regime="degenerate_delta", extras={"slope_tol": 0.25})


def _preset_two_atom() -> ScenarioConfig:
    return ScenarioConfig(
        name="two-atom-delay-n1-1", kind="state_gap",
        model=_gap_model(
            "smooth_nonlinear",
            {"a1": -0.8, "b1": 0.5, "k1": 0.5, "s1": 0.25, "t1": 0.2,
             "a0": -0.5, "b0": 0.4, "k0": 0.4, "s0": 0.3},
            ["mean"], 1.0, 1.0 / 40, 0.3),
        delay_law={"family": "discrete", "atoms": [0.1, 0.3],
                   "weights": [0.5, 0.5]},
        leader_init=None,
        follower_init={"family": "normal", "params": {"scale": 0.6}},
        q=6.0,
        policies={"leader": _affine(gain=-0.3),
                  "follower": _affine(gain=-0.2, gain_lead=0.5)},
        Ns=[8, 16, 32, 64, 128, 256], reps=50, K=2048, tol=1e-3, seed=5,
        regime="discrete_delta")


def _preset_uniform() -> ScenarioConfig:
    return ScenarioConfig(
        name="uniform-delay-n1-1", kind="state_gap",
        model=_gap_model(
            "smooth_nonlinear",
            {"a1": -0.8, "b1": 0.5, "k1": 0.5, "s1": 0.25, "t1": 0.2,
             "a0": -0.5, "b0": 0.4, "k0": 0.4, "s0": 0.3},
            ["mean"], 1.0, 1.0 / 32, 0.125),
        delay_law={"family": "uniform", "lo": 0.0625, "hi": 0.125},
        leader_init=None,
        follower_init={"family": "normal", "params": {"scale": 0.6}},
        q=6.0,
        policies={"leader": _affine(gain=-0.3),
                  "follower": _affine(gain=-0.2, gain_lead=0.5)},
        Ns=[8, 16, 32, 64], reps=50, K=1024, tol=1e-3, seed=5,
        regime="general")


def _preset_sigma0_control_free() -> ScenarioConfig:
    # leader control enters neither drift nor diffusion of the leader
    return ScenarioConfig(
        name="sigma0-control-free-n1-1", kind="state_gap",
        model=_gap_model(
            "smooth_nonlinear",
            {"a1": -0.8, "b1": 0.5, "k1": 0.5, "s1": 0.25, "t1": 0.2,
             "a0": -0.5, "s0": 0.3},
            ["mean"], 0.5, 1.0 / 32, 0.125),
        delay_law={"family": "uniform", "lo": 0.0625, "hi": 0.125},
        leader_init=None,
        follower_init={"family": "normal", "params": {"scale": 0.6}},
        q=6.0,
        policies={"leader": {"family": "zero", "params": {}},
                  "follower": _affine(gain=-0.2, gain_lead=0.5)},
        Ns=[8, 16, 32, 64], reps=50, K=1024, tol=1e-3, seed=5,
        regime="sigma0_control_free")


def _linear_measure_config(name, kind, reps) -> ScenarioConfig:
    return ScenarioConfig(
        name=name, kind=kind,
        model=_gap_model(
            "linear_in_measure",
            {"a1": -0.8, "k1": 0.5, "s1": 0.3, "a0": -0.5, "k0": 0.4,
             "s0": 0.3, "kernel": "tanh_mean", "cost1_state": 1.0,
             "cost1_track": 0.5, "cost0_state": 0.5, "cost1_control": 0.2},
            ["tanh_mean", "mean"], 1.0, 1.0 / 32, 0.125),
        delay_law={"family": "discrete", "atoms": [0.0625, 0.125],
                   "weights": [0.5, 0.5]},
        leader_init={"family": "ou_path",
                     "params": {"theta": 1.0, "vol": 0.4}},
        follower_init={"family": "normal", "params": {"scale": 0.6}},
        q=6.0,
        policies={"leader": _affine(gain=-0.2),
                  "follower": _affine(gain=-0.2, gain_lead=0.4)},
        Ns=[8, 16, 32, 64, 128, 256], reps=reps, K=4096, tol=1e-3, seed=5,
        regime="linear_in_measure")


def _preset_epsilon_nash() -> ScenarioConfig:
    # control enters the costs only, so deviation losses are exact
    return ScenarioConfig(
        name="epsilon-nash-n16", kind="epsilon_nash",
        model=_gap_model(
            "linear_quadratic",
            {"a1": -0.8, "s1": 0.3, "a0": -0.5, "s0": 0.25,
             "cost1_control": 1.0, "cost0_control": 1.0},
            [], 0.5, 1.0 / 16, 0.125),
        delay_law={"family": "degenerate", "a": 0.125},
        leader_init=None,
        follower_init={"family": "normal", "params": {"scale": 0.5}},
        q=6.0,
        policies={"leader": {"family": "zero", "params": {}},
                  "follower": {"family": "zero", "params": {}}},
        Ns=[16], reps=100, K=256, tol=1e-3, seed=5,
        extras={"kappa": 5.0, "gamma": 5.0, "deviations": [
            {"follower": {"family": "constant", "params": {"value": 0.7}}},
            {"leader": {"family": "constant", "params": {"value": 0.5}}},
        ]})


def _preset_eta() -> ScenarioConfig:
    return ScenarioConfig(
        name="eta-orthogonality-n64", kind="eta_orthogonality",
        model=_gap_model(
            "linear_in_measure",
            {"a1": -0.8, "k1": 0.5, "s1": 0.3, "a0": -0.5, "s0": 0.3,
             "kernel": "tanh_mean"},
            ["tanh_mean"], 0.5, 1.0 / 32, 0.125),
        delay_law={"family": "discrete", "atoms": [0.0625, 0.125],
                   "weights": [0.5, 0.5]},
        leader_init=None,
        follower_init={"family": "normal", "params": {"scale": 0.6}},
        q=6.0,
        policies={"leader": _affine(gain=-0.2),
                  "follower": _affine(gain=-0.2, gain_lead=0.4)},
        Ns=[64], reps=1, K=2048, tol=1e-3, seed=5,
        extras={"panels": 500, "leader_paths": 20})


def presets() -> dict:
    """Name -> ScenarioConfig; at least one scenario per prediction regime."""
    entries = [
        _preset_degenerate(),
        _preset_two_atom(),
        _preset_uniform(),
        _preset_sigma0_control_free(),
        _linear_measure_config("linear-in-measure-n1-1", "state_gap", 60),
        _linear_measure_config("linear-in-measure-cost-n1-1", "cost_gap", 60),
        _preset_epsilon_nash(),
        _preset_eta(),
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
