"""Exception hierarchy.

Protocol-level errors (BindConflict, NoTargets) are handled control flow:
the simulation recovers from them. Invariant errors (Overcommit, Causality)
mean the simulator itself is broken and must abort the run.
"""


class FedschedError(Exception):
    """Base class for all package errors."""


def dotted(location) -> str:
    """The dotted form of a config location, such as `scenario.pods[3].memory`.

    A location is a string, or a `(parent, key)` pair of a parent location
    and a record key or, as an int, a list index. The config parsers pass
    pairs down, so a location is formatted only when an error names it.
    """
    keys = []
    while type(location) is tuple:
        location, key = location
        keys.append(f"[{key}]" if type(key) is int else f".{key}")
    return location + "".join(reversed(keys))


class ConfigError(FedschedError):
    """Invalid configuration. Carries a dotted location path when known,
    given as a string or as a location `dotted` formats."""

    def __init__(self, message: str, location=""):
        self.location = location = dotted(location)
        super().__init__(f"{location}: {message}" if location else message)


class LogError(FedschedError):
    """An event log that cannot be read back or replayed. Carries the file,
    and the line where one is to blame."""

    def __init__(self, message: str, location: str):
        super().__init__(f"{location}: {message}")


class OutputError(FedschedError):
    """An output directory or file that cannot be created or written.
    Carries the path."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")


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
