"""Golden-output gate: shrunken presets must reproduce stored output bytes.

Each case runs one preset, shrunk with ``dataclasses.replace``, through
``run_experiment`` and compares ``results.csv`` and ``report.json`` byte for
byte with the files under ``tests/golden/<case>/``.  Four cases (``N1_2``)
rerun a shrunken preset at ``model.n1 = 2``, so the stepper, the cost rule,
the limit twin, the stopping rule's assignment route and the W2 time
integral's per-step LP route are gated at n1 > 1 as well.  The goldens are only valid for the numpy and scipy versions
recorded in ``tests/golden/versions.json``; on any other version the gate
fails and names both, it never skips.

Regenerate (only for a change that moves output bytes on purpose, and say
why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py [case ...]
"""
import dataclasses
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from stackmf import _pool
from stackmf.cli import presets, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
VERSIONS_FILE = GOLDEN_DIR / "versions.json"
FILES = ("results.csv", "report.json")

# case -> (ScenarioConfig fields, model fields) replaced in the preset
CASES = {
    "degenerate-delay-n1-1": (
        {"Ns": [4, 8, 16], "reps": 50, "K": 128}, {"T": 0.125}),
    "two-atom-delay-n1-1": (
        {"Ns": [4, 8, 16], "reps": 50, "K": 128,
         "extras": {"slope_tol": 0.45}}, {"T": 0.25}),
    "uniform-delay-n1-1": (
        {"Ns": [4, 8, 16], "reps": 50, "K": 128}, {"T": 0.25}),
    "linear-in-measure-cost-n1-1": (
        {"Ns": [4, 8, 16], "reps": 50, "K": 128}, {"T": 0.25}),
    "epsilon-nash-n16": ({"Ns": [8], "reps": 20}, {}),
    "eta-orthogonality-n64": (
        {"Ns": [16], "K": 128,
         "extras": {"panels": 40, "leader_paths": 2}}, {}),
}
# n1 = 2 variant -> (case above, further model fields): the case runs with
# model.n1 = 2 and those fields, under its own scenario name
N1_2 = {"degenerate-delay-n1-2": ("degenerate-delay-n1-1", {"T": 0.0625}),
        "linear-in-measure-cost-n1-2": ("linear-in-measure-cost-n1-1", {}),
        "epsilon-nash-n16-n1-2": ("epsilon-nash-n16", {}),
        "eta-orthogonality-n64-n1-2": ("eta-orthogonality-n64", {})}
ALL_CASES = sorted([*CASES, *N1_2])


def case_config(name):
    base, more = N1_2.get(name, (name, {}))
    fields, model = CASES[base]
    if name in N1_2:
        fields, model = dict(fields, name=name), dict(model, n1=2, **more)
    cfg = presets()[base]
    return dataclasses.replace(cfg, model=dict(cfg.model, **model), **fields)


def installed_versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def run_case(name, out_dir: Path, threads=1) -> None:
    run_experiment(case_config(name), threads=threads, out_dir=out_dir,
                   stream=io.StringIO())


# every case at one worker, and again at two workers: the worker count
# moves no byte
@pytest.mark.parametrize("name, threads", [
    *(pytest.param(name, 1, id=name) for name in ALL_CASES),
    *(pytest.param(name, 2, id=f"{name}-2-workers") for name in ALL_CASES)])
def test_golden_bytes(name, threads, tmp_path, monkeypatch):
    # two CPUs, so that two workers run on any box
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)
    recorded = json.loads(VERSIONS_FILE.read_text())
    installed = installed_versions()
    assert recorded == installed, (
        f"goldens were recorded with {recorded}, installed are {installed}; "
        f"regenerate them on purpose or install the recorded versions")
    run_case(name, tmp_path, threads)
    for fname in FILES:
        got = (tmp_path / fname).read_bytes()
        want = (GOLDEN_DIR / name / fname).read_bytes()
        assert got == want, f"{name}/{fname} differs from the golden"


def regenerate(names) -> None:
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            run_case(name, Path(tmp))
            dest = GOLDEN_DIR / name
            dest.mkdir(parents=True, exist_ok=True)
            for fname in FILES:
                shutil.copyfile(Path(tmp) / fname, dest / fname)
        print(f"wrote {GOLDEN_DIR / name}")
    VERSIONS_FILE.write_text(
        json.dumps(installed_versions(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or ALL_CASES)
