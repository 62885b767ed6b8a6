"""Exception hierarchy.

Protocol-level errors (BindConflict, NoTargets) are handled control flow:
the simulation recovers from them. Invariant errors (Overcommit, Causality)
mean the simulator itself is broken and must abort the run.
"""


class FedschedError(Exception):
    """Base class for all package errors."""


class ConfigError(FedschedError):
    """Invalid configuration. Carries a dotted location path when known."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class LogError(FedschedError):
    """An event log that cannot be read back or replayed. Carries the file,
    and the line where one is to blame."""

    def __init__(self, message: str, location: str):
        super().__init__(f"{location}: {message}")


class UnknownCluster(FedschedError):
    pass


class HubInLeaves(FedschedError):
    pass


class BindError(FedschedError):
    """A bind attempt was rejected; the pod must be re-queued, not dropped."""


class BindConflict(BindError):
    pass


class QuotaExceeded(BindError):
    pass


class NamespaceNotAllowed(BindError):
    pass


class InvariantViolation(FedschedError):
    """The simulator reached a state its own invariants forbid."""


class OvercommitError(InvariantViolation):
    pass


class CausalityError(InvariantViolation):
    """An event was enqueued before the current simulation time."""


class PhaseTransitionError(InvariantViolation):
    pass


class EmptyQueue(FedschedError):
    pass
