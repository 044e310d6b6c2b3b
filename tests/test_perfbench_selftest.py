"""The benchmark's layer tracer moves no output byte and reaches every layer.

``perfbench/selftest.py`` runs a shrunken cost-gap workload untraced and
traced and compares the outputs; it also checks that each simulation layer
of the tracer is reached.  Its file name is outside this suite's pattern,
so this loads it by path and calls its test, changing nothing under
``perfbench/``.
"""
import importlib.util
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_traced_run_writes_identical_bytes(monkeypatch):
    # the selftest puts perfbench/ and src/ on sys.path; undo that after
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("_perfbench_selftest",
                                                  SELFTEST)
    selftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(selftest)
    selftest.test_traced_run_writes_identical_bytes()
