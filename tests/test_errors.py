"""Exception taxonomy: every error survives pickling, as it must to cross
from a worker process back to the replication driver."""
import inspect
import pickle

import pytest

from stackmf import errors
from stackmf.errors import ConfigError, SimulationDivergedError, StackmfError

SUBCLASSES = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
              if issubclass(cls, StackmfError)}

CASES = [
    errors.StackmfError("base message"),
    errors.ValidationError("bad input"),
    errors.DimensionError("shape (3,) is not (2,)"),
    errors.ParameterError("h must be positive"),
    errors.CapacityError("support size 600 above 512"),
    SimulationDivergedError(3),
    SimulationDivergedError(3, "nplayer of replication 3"),
    errors.ExperimentInvalidError("3 of 50 replications failed"),
    ConfigError(["T must be positive", "unknown key 'x'"]),
]


def test_cases_cover_every_subclass():
    assert {type(e) for e in CASES} == SUBCLASSES


@pytest.mark.parametrize("err", CASES, ids=lambda e: f"{type(e).__name__}")
def test_pickle_round_trip(err):
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert str(back) == str(err)
    assert getattr(back, "step", None) == getattr(err, "step", None)
    assert getattr(back, "violations", None) \
        == getattr(err, "violations", None)
