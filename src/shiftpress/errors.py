"""Exception types and check verdicts shared across the package.

The CLI maps both onto process exit codes; see cli.py.
"""

# a verify check's verdict; HORIZON_EXHAUSTED is also a gap profile row's status
PASS = "pass"
FAIL = "fail"
PRECONDITION_FAIL = "precondition_fail"
HORIZON_EXHAUSTED = "horizon_exhausted"


class ShiftpressError(Exception):
    """Base class for all package errors."""


class InputError(ShiftpressError):
    """Malformed word, symbol out of range, or invalid argument."""


class ConstructionError(InputError):
    """A family constructor rejected its parameters."""


class BudgetExceededError(ShiftpressError):
    """Enumeration ran out of its node budget.

    Carries the nodes spent and the budget so callers can report them.
    """

    def __init__(self, message: str, nodes: int, budget: int):
        super().__init__(message)
        self.nodes = nodes
        self.budget = budget


class InconsistentBracketError(ShiftpressError):
    """Pressure bracket crossed (best lower bound above best upper bound).

    Almost always means the declared gap bounds are wrong for the instance.
    """

    def __init__(self, message: str, best_lo: float, best_hi: float):
        super().__init__(message)
        self.best_lo = best_lo
        self.best_hi = best_hi


class ReducibleGraphError(ShiftpressError):
    """The class graph has no cyclic component, or more than one, so Perron
    data is not well defined."""


class ConvergenceError(ShiftpressError):
    """Power iteration failed to reach tolerance within max_iter."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class IdentityCheckError(ShiftpressError):
    """An internal consistency identity failed beyond tolerance."""
