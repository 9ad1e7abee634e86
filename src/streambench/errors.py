"""Exception types shared by the expression core, the engines and the harness."""


class StreamError(Exception):
    """Base class for every error raised by this package."""


class InvalidExpression(StreamError):
    """An expression tree or lambda violates a construction-time invariant."""


class InvalidPipeline(StreamError):
    """A query was assembled from parts that cannot form a legal pipeline."""


class UnresolvedDataset(StreamError):
    """A query names a dataset that is not present in the supplied bindings."""


class DivisionByZero(StreamError, ArithmeticError):
    """A mod expression was evaluated with a zero divisor."""


class IndexOutOfRange(StreamError):
    """A Param or Capture slot was referenced outside the supplied bindings."""


class GetBeforeAdvance(StreamError):
    """get() was called on a cursor without a preceding successful advance()."""


class ArityMismatch(StreamError):
    """A lambda was applied with the wrong number of parameters."""


class ResultMismatch(StreamError):
    """A benchmark body produced a value different from the expected result."""


class TooFewSamples(StreamError):
    """A statistic that needs at least two samples was asked for fewer."""


class WorkerFailed(StreamError):
    """A forked parallel worker exited without sending its result."""
