"""Exception types shared across the simulator."""


class StormGridError(Exception):
    """Base class for all simulator errors."""


class FormatError(StormGridError):
    """A network/scenario file failed to parse; carries file and line context."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class DanglingReferenceError(StormGridError):
    """A record references an id that does not exist."""

    def __init__(self, ref_id, message):
        self.ref_id = ref_id
        super().__init__(f"dangling reference {ref_id!r}: {message}")


class DisconnectedGridError(StormGridError):
    """A household cannot reach any plant in the pristine power network."""


class ExtentError(StormGridError):
    """A location falls outside every cell of a gridded wind field."""


class UnknownLinkError(StormGridError):
    """A road-link id named in the scenario is not a link of the road network."""


class FragilityParamError(StormGridError):
    """Fragility parameters violate an ordering or nesting constraint."""


class RepairModelError(StormGridError):
    """No repair-time row exists for a (component kind, damage level) pair."""


class SimulationCapError(StormGridError):
    """A replication exceeded the hard hour cap; carries a state snapshot."""

    def __init__(self, hour, snapshot):
        self.hour = hour
        self.snapshot = snapshot
        unfueled = ", ".join(snapshot["unfueled_plants"]) or "none"
        super().__init__(
            f"replication did not terminate within {hour} hours: nothing changes "
            f"from hour {snapshot['frozen_at']} to the cap "
            f"({len(snapshot['unrepaired'])} components unrepaired, "
            f"{snapshot['dark_lights']} traffic lights dark, "
            f"plants without fuel: {unfueled})"
        )


class ConfigError(StormGridError):
    """Invalid run configuration (CLI flags, Monte Carlo settings, testbed params)."""


class UndefinedImprovementError(StormGridError):
    """Improvement percentage is undefined for a zero baseline loss."""
