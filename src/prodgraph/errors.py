"""Exception types shared across the package."""


class ProdGraphError(Exception):
    """Base class for every error raised by this package."""


class ParseError(ProdGraphError):
    """Input stream is not well-formed (bad JSON, missing keys, wrong types)."""


class ValidationError(ProdGraphError):
    """Input parsed but violates a graph invariant (self loop, bad index, ...)."""


class InvalidPermutation(ProdGraphError):
    """Permutation argument is not a bijection on the node indices."""


class InvalidInput(ProdGraphError):
    """Matrix argument violates a construction precondition (self loops, asymmetry)."""


class ScaleError(ProdGraphError):
    """Requested construction exceeds a size guard."""


class RangeError(ProdGraphError):
    """Numeric argument outside its documented range."""


class EmptySample(ProdGraphError):
    """Sampling mask would keep zero subgraphs."""


class NotSymmetric(ProdGraphError):
    """Eigendecomposition requested for a matrix that is not symmetric."""


class ShapeMismatch(ProdGraphError):
    """Operand shapes are inconsistent with the declared widths."""


class NonFiniteGradient(ProdGraphError):
    """A gradient entry came out NaN or infinite."""
