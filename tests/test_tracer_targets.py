"""The benchmark tracer's targets name functions that exist.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of its
``TARGETS`` by name, so a renamed or deleted function would only show up
when a traced benchmark pass crashes.  This reads the tuple from the file
and changes nothing under ``perfbench/``.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module, attribute, label", TARGETS,
                         ids=[label for _, _, label in TARGETS])
def test_target_resolves_to_a_callable(module, attribute, label):
    assert module.startswith("stackmf."), label
    assert callable(getattr(importlib.import_module(module), attribute, None)), \
        f"{label}: {module}.{attribute} is not a callable"
