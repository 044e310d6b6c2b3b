"""Exception taxonomy shared by all stackmf modules."""


class StackmfError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(StackmfError):
    """An input object violates its documented contract."""


class DimensionError(ValidationError):
    """Mismatched or unsupported array dimensions."""


class ParameterError(ValidationError):
    """A scalar parameter is outside its documented range."""


class CapacityError(StackmfError):
    """A size cap (support size, player count) was exceeded."""


class SimulationDivergedError(StackmfError):
    """A trajectory became non-finite during time stepping."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite state at time step {step}")

    def __reduce__(self):
        return type(self), (self.step, str(self))


class ExperimentInvalidError(StackmfError):
    """The experiment ran, but its result does not stand: too many failed
    replications, a non-finite report, a vanishing orthogonality kernel,
    or an epsilon-Nash deviation whose estimated control norm misses its
    cap."""


class ConfigError(ValidationError):
    """A scenario configuration failed validation.

    Carries the full list of violations, not just the first one.
    """

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in violations))

    def __reduce__(self):
        return type(self), (self.violations,)
