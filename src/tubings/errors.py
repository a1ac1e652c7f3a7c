"""Exception types shared across the package."""


class TubingsError(Exception):
    """Base class for every error raised by this package."""


class GraphError(TubingsError):
    """Invalid pseudograph data."""


class LoopEdgeError(GraphError):
    """An edge joins a node to itself; loops are never allowed."""


class DuplicateLabelError(GraphError):
    """The same edge label appears more than once in a graph."""


class UnlabelledBundleEdgeError(GraphError):
    """A parallel-edge class (bundle) contains an edge without a label."""


class UnknownNodeError(GraphError):
    """A node id that does not belong to the graph."""


class UnknownNodeInEdgeError(UnknownNodeError):
    """An edge references a node that was not declared."""


class UnknownBundleError(GraphError):
    """An endpoint pair that is not a bundle of the graph."""


class UnknownMemberError(TubingsError):
    """A collection member is neither a node nor a bundle-edge label, or a
    collection string names a member twice or leaves one empty."""


class NotInAnyBundleError(UnknownMemberError):
    """A label that exists in the graph but only on a non-bundle edge."""


class GraphSyntaxError(TubingsError):
    """Malformed graph document text."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class HostMismatchError(TubingsError):
    """Two objects that must live on the same graph do not."""


class NotEvenError(TubingsError):
    """The operation requires an even collection."""


class DisconnectedError(TubingsError):
    """The operation requires a connected graph."""


class VertexClashError(TubingsError):
    """Join of complexes whose vertex sets overlap."""


class FaceBudgetConfigError(TubingsError):
    """A face budget, given or set in the environment, is not a positive integer."""


class FaceBudgetExceededError(TubingsError):
    """An enumeration grew past the configured face budget."""

    def __init__(self, limit):
        self.limit = limit
        super().__init__(f"face budget of {limit} exceeded")
