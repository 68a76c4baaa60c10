"""Deterministic simulator of asynchronous shared-memory multiprocessors
with remote-memory-reference (RMR) cost accounting under the DSM and CC
models, a library of signaling protocols, safety checkers, and an
adversarial scheduling drill."""

from .algorithms import REGISTRY, SignalingAlgorithm, make_algorithm
from .checker import (
    AmortizedResult,
    Violation,
    check_amortized,
    check_blocking,
    check_polling,
)
from .costs import Model, RmrLedger
from .errors import (
    CapacityError,
    ConfigError,
    DrillNotApplicable,
    EnumerationOverflow,
    ErasureRefused,
    ReplayDivergence,
    RoleError,
    SimError,
    StepBudgetExceeded,
)
from .harness import (
    SeparationReport,
    StabilityResult,
    adversary_separation,
    enumerate_histories,
    erase,
    stability,
    validate_erasure,
)
from .memory import Event, Location, Memory, NIL, OpKind
from .runner import (
    CallRecord,
    ExplicitSchedule,
    History,
    RoundRobin,
    Runner,
    Script,
    SeededRandom,
    poll_at_most,
    poll_until_true,
    run,
    signal_once,
    wait_once,
    waiter_roles,
)

__version__ = "0.1.0"
