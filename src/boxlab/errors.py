"""Exception taxonomy shared by every module in the package.

All errors derive from BoxlabError so callers (CLI included) can catch one
base class.  Each subclass corresponds to one failure mode of the public API;
messages carry the offending values.
"""


class BoxlabError(Exception):
    """Base class for all package errors."""


class NonPositiveWeight(BoxlabError):
    """A probability weight was zero, negative, or not finite."""


class EmptySpace(BoxlabError):
    """A probability space with no atoms was supplied."""


class ShapeMismatch(BoxlabError):
    """A tensor's shape does not match the atom counts of its edge."""


class DigitOutOfRange(BoxlabError):
    """A replica digit fell outside {0, ..., ell - 1}."""


class EmptyHypergraph(BoxlabError):
    """An operation required at least one edge."""


class OddEll(BoxlabError):
    """The replica count ell must be an even integer >= 2."""


class SizeCapExceeded(BoxlabError):
    """An enumeration would exceed the configured work cap."""


class NumericalInconsistency(BoxlabError):
    """A quantity violated a sign or agreement bound beyond tolerance."""


class NotDoubleton(BoxlabError):
    """The operation requires an edge with exactly two coordinates."""


class POutOfRange(BoxlabError):
    """The integrability exponent p is outside the admissible range."""


class NotTwoUniform(BoxlabError):
    """The operation requires every edge to have exactly two vertices."""


class SubsetCapExceeded(BoxlabError):
    """A quantification over edge subsets would exceed its cap."""


class PairCapExceeded(BoxlabError):
    """A quantification over disjoint subset pairs would exceed its cap."""


class WrongHypergraph(BoxlabError):
    """The hypergraph does not have the shape the certifier requires."""


class MalformedProblem(BoxlabError):
    """A maximization problem was assembled inconsistently."""


class BadSpec(BoxlabError):
    """An instance file or generator spec failed validation."""


class WorkerFailure(BoxlabError):
    """A suite worker process died, or a job could not be sent to it."""
