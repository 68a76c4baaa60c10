"""Exception taxonomy shared across the simulator."""


class SimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimError):
    """Invalid configuration: bad home, unknown algorithm, bad flag values."""


class RoleError(SimError):
    """A process violated an algorithm precondition (wrong caller, extra call)."""


class CapacityError(SimError):
    """A bounded structure (word range, queue slots) overflowed."""


class SchedulingError(SimError):
    """A process was scheduled when it had no enabled step."""


class StepBudgetExceeded(SimError):
    """A procedure call ran past its step allowance."""


class EnumerationOverflow(SimError):
    """Exhaustive enumeration exceeded its state-space budget."""

    def __init__(self, explored: int, budget: int):
        super().__init__(
            f"enumeration budget exceeded: {explored} histories explored (budget {budget})"
        )
        self.explored = explored
        self.budget = budget


class DrillNotApplicable(SimError):
    """The adversary drill cannot run for this algorithm/configuration."""


class ErasureRefused(SimError):
    """Erasure was requested for a process that another process observed."""


class ReplayDivergence(SimError):
    """Replay after erasure did not reproduce the survivors' steps (internal bug)."""
