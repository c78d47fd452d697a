"""Exception hierarchy shared across the package."""


class SkelgraphError(Exception):
    """Base class for all errors raised by skelgraph."""


class GraphStructureError(SkelgraphError):
    """The graph violates a structural precondition (connectivity, labels)."""


class UnknownElementError(GraphStructureError):
    """A vertex, edge or ray id does not exist in the graph."""


class LoopsPresentError(GraphStructureError):
    """Operation requires a loop-free graph; apply resolve_loops first."""


class InvalidPointError(GraphStructureError):
    """A GraphPoint does not lie on the graph or is out of range."""


class DegreeMismatchError(SkelgraphError):
    """Poisson data is incompatible: no solution exists."""


class MinimumNotAttainedError(SkelgraphError):
    """A ray with negative slope makes the global minimum escape to infinity."""


class HorizontalEdgeError(SkelgraphError):
    """The weight function is only piecewise affine on a flagged edge."""


class MissingDataError(SkelgraphError):
    """Pluricanonical model data is incomplete for this graph."""


class NonIntegralError(SkelgraphError):
    """Operation requires an integer-coefficient divisor or integer slopes."""


class NonRationalError(SkelgraphError):
    """A coefficient, value, position or length is not an int or a Fraction."""


class DivisorMismatchError(SkelgraphError):
    """A function's divisor does not match the one required by a lemma."""


class PipelineError(SkelgraphError):
    """A witness construction failed a step that should be impossible."""
