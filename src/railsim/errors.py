"""Exception types shared across the simulator."""

from typing import Optional


class RailsimError(Exception):
    """Base class for all railsim errors."""


class ConfigError(RailsimError):
    """Malformed scenario or econ configuration."""


class InvalidNicConfig(ConfigError):
    """NIC port count outside the supported set."""


class RadixExceeded(RailsimError):
    """Per-rail port demand exceeds the circuit switch radix."""


class InvalidParams(ConfigError):
    """Workload parameters inconsistent with the topology."""


class NotMember(RailsimError):
    """Rank is not a member of the communication group."""


class ParseError(RailsimError):
    """Trace file violates the record format; `line` is None when the
    fault has no one line."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class CyclicDependency(RailsimError):
    """Event dependencies contain a cycle."""


class MissingDependency(RailsimError):
    """An event depends on an event the DAG does not contain."""


class UnsupportedKind(RailsimError):
    """Collective kind has no ring realization on a circuit rail."""


class DegreeInfeasible(RailsimError):
    """A group's ring needs more simultaneous circuits than NIC ports."""


class ConflictDeadlock(RailsimError):
    """The reconfiguration queue cannot drain."""


class EmptyInput(RailsimError):
    """Operation requires at least one element."""
