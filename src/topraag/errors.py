"""Exception types shared across the toolkit.

Config/input problems subclass ValueError so callers can catch broadly;
regime and resource problems get their own branches.
"""


class ToolkitError(Exception):
    """Base class for all topraag errors."""


class ConfigError(ToolkitError, ValueError):
    """Invalid user-supplied data (graphs, models, words, CLI configs)."""


class DuplicateVertex(ConfigError):
    pass


class SelfLoop(ConfigError):
    pass


class UnknownEndpoint(ConfigError):
    pass


class LabelClash(ConfigError):
    pass


class UnknownGenerator(ConfigError):
    pass


class NotAJoinFactor(ConfigError):
    pass


class WordLengthCap(ConfigError):
    pass


class ModelError(ConfigError):
    """A base model that violates its own invariants (non-subgroup, bad phi)."""


class NotInDomain(ToolkitError):
    """phi / phi^-1 applied outside O resp. phi(O)."""


class NotShrinkingModel(ToolkitError):
    """Operation needs the O = U, phi(U) != U regime."""


class RegimeMismatch(ToolkitError):
    """Operation not available for this (model, graph) combination."""


class DisconnectedGraph(RegimeMismatch):
    pass


class ResourceCap(ToolkitError):
    """A construction exceeded its configured vertex/cube budget."""


class EmptyWindow(ConfigError):
    pass


class NoInteriorVertices(ToolkitError):
    pass


class InfiniteStabiliser(ToolkitError):
    pass


class NonClosedComplex(ToolkitError):
    """Cell list is not closed under taking faces."""


class RelationViolation(ToolkitError):
    """The element engine failed a defining relation; indicates an engine bug."""
