"""Self-test of the layer tracer: tracing must not move an output byte.

Runs a shrunken cost-gap workload (it reaches every simulation layer the
tracer wraps) once untraced and once traced, in this process, and compares
results.csv and report.json.  Run it with

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

or ``python3 perfbench/selftest.py``.  It is kept out of the repository's
own test suite, whose file pattern it does not match.
"""
import dataclasses
import io
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stackmf  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, self_times  # noqa: E402


def _shrunken_config():
    return dataclasses.replace(workloads.config("cost-gap-linear"),
                               Ns=(4, 8, 16), K=128)


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name.startswith("stackmf") and module is not None
            for attr, value in vars(module).items() if callable(value)}


def test_traced_run_writes_identical_bytes():
    cfg = _shrunken_config()
    before = _bindings()
    with tempfile.TemporaryDirectory() as tmp:
        plain, traced = Path(tmp, "plain"), Path(tmp, "traced")
        assert stackmf.cli.run_experiment(
            cfg, threads=1, out_dir=plain, stream=io.StringIO()) == 0
        with Tracer() as tracer:
            assert stackmf.cli.run_experiment(
                cfg, threads=1, out_dir=traced, stream=io.StringIO()) == 0
        for fname in ("results.csv", "report.json"):
            assert (plain / fname).read_bytes() == (traced / fname).read_bytes()
    assert _bindings() == before, "tracer left a binding replaced"

    totals = self_times(tracer.spans)
    for label in ("rng.generator", "dynamics.simulate_nplayer",
                  "dynamics.sample_delays", "dynamics.evaluate_costs_nplayer",
                  "meanfield.solve_conditional_law",
                  "meanfield.simulate_limit_pair",
                  "meanfield.evaluate_costs_limit", "measures.w2_exact_1d",
                  "rates.cost_gap_experiment", "cli.run_experiment"):
        assert totals[label][0] > 0, label
    assert totals["meanfield.solve_conditional_law"][0] == cfg.reps
    assert tracer.counters["picard_iterations"] >= cfg.reps
    # self times partition the root span
    roots = [end - start for _, start, end, parent in tracer.spans
             if parent < 0]
    assert abs(sum(s for _, s in totals.values()) - sum(roots)) < 1e-6
    assert {label for _, _, label in TARGETS} >= set(totals)


if __name__ == "__main__":
    test_traced_run_writes_identical_bytes()
    print("selftest ok")
