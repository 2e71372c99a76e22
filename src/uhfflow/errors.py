"""Exception types shared across the package."""


class UhfflowError(Exception):
    """Base class for all package errors."""


class ParamsMismatchError(UhfflowError):
    """Operands built over different algebra parameters."""


class WindowError(UhfflowError):
    """Operator support sticks out of the requested site window."""


class StateError(UhfflowError):
    """Density matrix fails Hermiticity / positivity / trace checks."""


class SizeGuardError(UhfflowError):
    """A size guard refused the work: a window past ``dense.MAX_WINDOW_DIM``
    strings, a pair object past ``dense.MAX_PAIR_DIM``, or an enumeration."""


class DivergenceError(UhfflowError):
    """A semigroup that must relax to one state did not (it has several)."""


class FitError(UhfflowError):
    """Decay-rate fit received unusable data."""


class ConfigError(UhfflowError):
    """Experiment configuration failed validation."""

    def __init__(self, message, *, section=None, field=None):
        where = ""
        if section is not None:
            where = f"[{section}]"
            if field is not None:
                where += f" {field}"
            where += ": "
        super().__init__(where + message)
        self.section = section
        self.field = field
