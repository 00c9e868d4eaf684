"""Exception types shared across the package."""

from __future__ import annotations


class TreexploreError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(TreexploreError):
    """An argument is outside its documented domain (zero sizes, bad names)."""


class VertexNotFoundError(TreexploreError):
    """A vertex id does not exist in the tree under consideration."""


class TreeParseError(TreexploreError):
    """Malformed tree data; carries the offending position or index."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class GameRuleViolation(TreexploreError):
    """A move or attachment broke the game rules.

    ``round`` is filled in by the engine with the round in which the
    violation occurred.
    """

    def __init__(self, message: str, round: int | None = None):
        super().__init__(message)
        self.round = round


class MoveViolation(GameRuleViolation):
    """An agent proposed a non-adjacent move (or the joint move is malformed)."""

    def __init__(
        self,
        agent: int,
        origin: int,
        target: int,
        round: int | None = None,
        message: str | None = None,
    ):
        super().__init__(
            message or f"agent {agent} may not move from vertex {origin} to vertex {target}",
            round=round,
        )
        self.agent = agent
        self.origin = origin
        self.target = target

    @classmethod
    def wrong_length(cls, got: int, expected: int, round: int | None = None) -> "MoveViolation":
        return cls(-1, -1, -1, round=round, message=f"joint move has {got} entries for {expected} agents")


class AttachmentViolation(GameRuleViolation):
    """The revealer tried to attach at an already visited (or unknown) vertex."""

    def __init__(self, message: str, vertex: int, round: int | None = None):
        super().__init__(message, round=round)
        self.vertex = vertex


class InfeasibleParamsError(TreexploreError):
    """Adversary or theorem parameters violate a required inequality."""


class StrategyInfeasibleError(TreexploreError):
    """A strategy cannot continue (e.g. no fresh agents left for a phase)."""


class IntegrityError(TreexploreError):
    """A transcript does not match its parameters or fails replay."""

    def __init__(self, message: str, round: int | None = None):
        super().__init__(message)
        self.round = round


class ResourceLimitError(TreexploreError):
    """An input is too large to handle: a brute-force search over its state
    budget, or an initial tree over ``tree.MAX_PATH_STAR_VERTICES``."""
