"""The four benchmark workloads, how to run each one, and its output checks.

A workload is either a CLI preset with a few fields overridden (run with
``stackmf.cli.run_experiment``), or the exact-assignment rate curve of
``stackmf.measures``.  Every check below is computed in this file from the
written outputs, or is a property the method must have; none compares
against stored output.
"""
import csv
import json
import math
from pathlib import Path

import numpy as np

RATE_CURVE_NS = (50, 100, 200, 400, 800, 1600)
# exact assignment is O(N^3), so replications taper with N as in
# acceptance 04; W2^2 concentrates at large N
RATE_CURVE_REPS = (40, 40, 40, 20, 6, 2)

WORKLOADS = {
    # mixed pipeline: N-player stepper, limit twin, both cost evaluators
    "cost-gap-linear": {
        "preset": "linear-in-measure-cost-n1-1",
        "overrides": {"reps": 50, "Ns": (8, 16, 32, 64, 128), "K": 1024,
                      "model": {"T": 0.5}},
        "units": 50,
    },
    # one Picard solve per N per replication, 3 to 5 delay atoms each
    "state-gap-uniform": {
        "preset": "uniform-delay-n1-1",
        "overrides": {"Ns": (8, 16, 32), "K": 256, "model": {"T": 0.5}},
        "units": 50,
    },
    # one large limit-twin call over 31,500 followers per leader path
    "eta-n64": {
        "preset": "eta-orthogonality-n64",
        "overrides": {"extras": {"panels": 500, "leader_paths": 1}},
        "units": 1,
    },
    # exact-assignment route of measures, no simulation
    "rate-curve-d3": {
        "dim": 3, "Ns": RATE_CURVE_NS, "reps": RATE_CURVE_REPS,
        "units": sum(RATE_CURVE_REPS),
    },
}
# files that must be byte-identical across thread counts and tracing
OUTPUT_FILES = {"cli": ("results.csv", "report.json", "manifest.json"),
                "curve": ("curve.json",)}


def kind(name):
    return "curve" if "dim" in WORKLOADS[name] else "cli"


def config(name):
    """ScenarioConfig of a CLI workload (imports stackmf)."""
    import dataclasses

    from stackmf.cli import presets

    spec = WORKLOADS[name]
    base = presets()[spec["preset"]]
    overrides = dict(spec["overrides"])
    # model overrides are merged into the preset's model, not replacing it
    overrides["model"] = dict(base.model, **overrides.get("model", {}))
    return dataclasses.replace(base, **overrides)


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages, empty when the output
# is correct


def _ols_slope(Ns, values):
    return float(np.polyfit(np.log(np.asarray(Ns, float)),
                            np.log(np.asarray(values, float)), 1)[0])


def _gap_checks(out, cfg, expected_slope, one_sided, tol):
    errors = []
    report = json.loads((out / "report.json").read_text())
    rep = report["report"]
    if report["status"] != "ok" or rep["verdict"] != "pass":
        errors.append(f"status {report['status']}, verdict {rep['verdict']}")
    with open(out / "results.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["quantity"] == rep["quantity"]]
    Ns = [int(r["N"]) for r in rows]
    means = [float(r["gap_mean"]) for r in rows]
    if Ns != list(cfg.Ns) or not all(m > 0 and math.isfinite(m) for m in means):
        return errors + [f"fitted curve rows {Ns} {means}"]
    slope = _ols_slope(Ns, means)
    if abs(slope - float(rows[0]["slope"])) > 1e-9 * max(1.0, abs(slope)):
        errors.append(f"reported slope {rows[0]['slope']} != refit {slope!r}")
    miss = slope - expected_slope
    if (miss > tol) if one_sided else (abs(miss) > tol):
        errors.append(f"slope {slope:.4f} vs paper rate {expected_slope:.4f}"
                      f" {'<=' if one_sided else '+-'} {tol}")
    return errors


def check_cost_gap_linear(out, cfg, seed):
    # linear-in-measure cost gap: O(N^-1/2), checked two-sided at +-0.25
    return _gap_checks(out, cfg, -0.5, False, 0.25)


def check_state_gap_uniform(out, cfg, seed):
    # general regime, squared state gap: f(N)^((2q-4)/(3q-4)) with
    # f(N) = N^(-1/2) for n1 = 1; an upper bound, so one-sided
    q = cfg.q
    return _gap_checks(out, cfg, -(2 * q - 4) / (3 * q - 4) / 2, True, 0.25)


def check_eta(out, cfg, seed):
    rep = json.loads((out / "report.json").read_text())["report"]
    ratio = rep["lhs"] / rep["rhs"]
    if not 0.7 <= ratio <= 1.3:
        return [f"eta ratio {ratio!r} outside acceptance 08's [0.7, 1.3]"]
    return []


def _w2sq_lp(x, y):
    """W2^2 between uniform empirical measures of x and y as a transport LP
    over all n*n plan entries (one row and one column constraint each)."""
    from scipy.optimize import linprog

    n = len(x)
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1).ravel()
    A = np.zeros((2 * n, n * n))
    for i in range(n):
        A[i, i * n:(i + 1) * n] = 1.0
        A[n + i, i::n] = 1.0
    res = linprog(cost, A_eq=A, b_eq=np.full(2 * n, 1.0 / n),
                  bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.x @ cost)


def check_rate_curve(out, spec, seed):
    from stackmf._rng import generator

    errors = []
    means = json.loads((out / "curve.json").read_text())["means"]
    if not all(b < a for a, b in zip(means, means[1:])):
        errors.append(f"means do not fall with N: {means}")
    slope = _ols_slope(spec["Ns"], means)
    if slope > -0.5 + 0.15:
        errors.append(f"slope {slope:.4f} above the Fournier-Guillin -0.35")
    # the program's draws for the smallest N come from generator(seed, 1, 0)
    gen = generator(seed, 1, 0)
    N, dim = spec["Ns"][0], spec["dim"]
    vals = []
    for _ in range(spec["reps"][0]):
        x = gen.standard_normal((N, dim))
        y = gen.standard_normal((N, dim))
        vals.append(_w2sq_lp(x, y))
    lp_mean = float(np.mean(vals))
    if abs(lp_mean - means[0]) > 1e-9 * abs(lp_mean):
        errors.append(f"N={N}: LP mean {lp_mean!r} != program {means[0]!r}")
    return errors


CHECKS = {
    "cost-gap-linear": check_cost_gap_linear,
    "state-gap-uniform": check_state_gap_uniform,
    "eta-n64": check_eta,
    "rate-curve-d3": check_rate_curve,
}


def check(name, out, seed):
    """Failure messages for the outputs in directory ``out``."""
    out = Path(out)
    spec = WORKLOADS[name]
    target = spec if kind(name) == "curve" else config(name)
    return CHECKS[name](out, target, seed)
