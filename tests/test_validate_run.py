"""validate against run: one-field mutations of the golden-shrunk presets.

Two properties.  The fuzz: when ``validate_config`` accepts a mutated
config, ``run_experiment`` ends as exit 0 or 1 with finite, strict-JSON
outputs, or as exit 2 with a run result (a divergence or an invalid
experiment, such as an epsilon-Nash norm-cap miss), never with another
error.
The per-kind rules: ``validate_config`` returns [] exactly when the
experiment gets past its own argument checks, that is, reaches its first
replication.

``one_field_mutations`` is the fuzz's table; it leaves out ``model.n1`` and
any size above the shrunk config's own, for run time only.
"""
import csv
import io
import json
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from stackmf import cli, rates
from stackmf.cli import config_from_dict, config_to_dict, validate_config
from stackmf.errors import ConfigError, StackmfError
from test_golden import CASES, case_config

# wrong types, 0, a negative, values at the rules' bounds, and scale 1e160
VALUES = ("x", True, None, [1], 0, -1, 0.5, 1, 2, 4, 100, 1e160)
# fields whose larger values only make a run longer
_SIZES = ("Ns", "reps", "K", "T", "b", "panels", "leader_paths")
_RUN_RESULTS = ("SimulationDivergedError", "ExperimentInvalidError")


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _leaves(node, path=()):
    """Paths of the scalars and lists of scalars in a config dict; a list
    of objects (the deviations) is entered."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list) and any(isinstance(v, dict) for v in node):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


def _own_size(data, path):
    """The config's own size at path; a null field is one the kind does not
    read, so no value there makes a run longer."""
    own = data
    for key in path:
        own = own[key]
    if own is None:
        return math.inf
    return max(own) if isinstance(own, list) else own


def one_field_mutations(data):
    """(path, value) of every one-field mutation of a config dict."""
    out = []
    for path in _leaves(data):
        if path == ("model", "n1"):
            continue
        for value in VALUES:
            if path[-1] in _SIZES and _is_num(value) \
                    and value > _own_size(data, path):
                continue
            out.append((path, value))
    # extras left at their defaults; a partition level above 4, the
    # balanced level of the shrunk sizes, only makes a run longer
    for key in cli._EXTRA_KEYS[data["kind"]]:
        if key not in data["extras"]:
            out += [(("extras", key), v) for v in VALUES
                    if key != "partition_level" or not _is_num(v) or v <= 4]
    return out


def mutated(data, path, value):
    data = json.loads(json.dumps(data))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return data


def violations(data) -> list:
    """What loading the config dict and validating it report."""
    try:
        return validate_config(config_from_dict(data))
    except ConfigError as exc:
        return exc.violations


BASES = {name: json.loads(json.dumps(config_to_dict(case_config(name))))
         for name in CASES}
CORPUS = [(name, path, value) for name, data in BASES.items()
          for path, value in one_field_mutations(data)]
ACCEPTED = [case for case in CORPUS
            if violations(mutated(BASES[case[0]], *case[1:])) == []]


def _reject_constant(token):
    raise AssertionError(f"{token} is not strict JSON")


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=st.sampled_from(ACCEPTED))
def test_validated_configs_run_to_a_result(case, tmp_path_factory):
    run_to_a_result(case, tmp_path_factory.mktemp("fuzz"))


def run_to_a_result(case, out):
    """Run one accepted mutation into out and check how it ended."""
    name, path, value = case
    cfg = config_from_dict(mutated(BASES[name], path, value))
    rc = cli.run_experiment(cfg, out_dir=out, stream=io.StringIO())
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_reject_constant)
    if rc == 2:
        assert report["error_type"] in _RUN_RESULTS, (path, value, report)
        return
    assert rc in (0, 1), (path, value, rc)
    with open(out / "results.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            for key in ("gap_mean", "gap_stderr", "slope", "slope_stderr"):
                assert row[key] == "" or math.isfinite(float(row[key])), \
                    (path, value, row)


class _Reached(Exception):
    """The experiment got past its checks to its first replication."""


def _stop(*args, **kwargs):
    raise _Reached


# per-kind fields and values that cover their rules; rate_assertions is
# off where a kind reads it and q stays below the student_t df, so no shape
# rule of the cli fires
_COUNTS = (0, 1, 2, 3, 4, 49, 50, 63, 64, 65, 99, 100, 2.0, True, "x", None)
_REALS = (0, -1.0, 1e-9, 0.5, 1, 1.5, float("inf"), float("nan"), "x", None)
_FIELDS = {
    "gap": {("reps",): _COUNTS, ("K",): _COUNTS, ("tol",): _REALS,
            ("q",): (2, 3, 4, 4.1), ("regime",): ("general", "x", None),
            ("extras", "max_iter"): _COUNTS, ("extras", "damping"): _REALS,
            ("extras", "slope_tol"): _REALS,
            ("extras", "partition_level"): ("auto", "x", 0, 1, 3, 2.0, None),
            ("Ns",): ([2, 3, 4], [3, 8, 16], [4, 8], [4, 16, 8], [4, 8, 16])},
    "epsilon_nash": {("reps",): _COUNTS, ("Ns",): ([1], [2], [64], [65]),
                     ("extras", "kappa"): _REALS, ("extras", "gamma"): _REALS,
                     ("extras", "deviations"): ([],)},
    "eta_orthogonality": {
        ("K",): _COUNTS, ("tol",): _REALS, ("q",): (2, 3, 4, 4.5),
        ("Ns",): ([1], [2], [16]), ("extras", "panels"): _COUNTS,
        ("extras", "leader_paths"): _COUNTS,
        ("extras", "max_iter"): _COUNTS, ("extras", "damping"): _REALS,
        ("extras", "time_index"): (None, 0, 16, 17, -1, 2.0, "x")},
}
_LAWS = ({"family": "uniform", "lo": 0.0625, "hi": 0.125},
         {"family": "uniform", "lo": 0.0625, "hi": 0.25},
         {"family": "discrete", "atoms": [0.0625, 0.125],
          "weights": [0.5, 0.5]})


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_validate_passes_exactly_when_the_experiment_checks_pass(data):
    name = data.draw(st.sampled_from(sorted(CASES)))
    base = BASES[name]
    if base["rate_assertions"] is not None:
        base = dict(base, rate_assertions=False)
    group = base["kind"] if base["kind"] in _FIELDS else "gap"
    fields = dict(_FIELDS[group])
    if base["kind"] != "epsilon_nash":
        fields[("delay_law",)] = _LAWS
    path = data.draw(st.sampled_from(sorted(fields)))
    value = data.draw(st.sampled_from(fields[path]))
    cfg = config_from_dict(mutated(base, path, value))
    errs = validate_config(cfg)
    objects, _ = cli._build(cfg)
    assert all(objects.get(key) is not None
               for key in ("model", "policies", "delay_law")), (path, value)
    with mock.patch.object(rates, "_replicate", _stop):
        try:
            cli._dispatch(cfg, objects, cfg.seed, 1)
        except _Reached:
            reached = True
        except StackmfError:
            reached = False
    assert (errs == []) == reached, (name, path, value, errs)
