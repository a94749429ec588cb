"""Exception types shared across the package."""


class LatticeError(ValueError):
    """Base class for domain errors raised by this package."""


class BadWeightsError(LatticeError):
    """Weights are empty, non-numeric, not one-dimensional or not finite."""


class BadDocumentError(LatticeError):
    """The JSON distribution document does not have an accepted form."""


class MissingParameterError(LatticeError):
    """A parameter the command needs was not given."""


class AllZeroError(LatticeError):
    """Every weight in the input sequence is zero."""


class NegativeWeightError(LatticeError):
    """A weight is negative."""


class BadToleranceError(LatticeError):
    """Truncation tolerance outside the accepted range (0, 1e-6]."""


class BadLambdaError(LatticeError):
    """Law parameter outside the open interval (0, 1)."""


class NoBracketError(LatticeError):
    """Root finding could not bracket a sign change."""


class NoCrossingError(LatticeError):
    """The comparator dominates the sequence everywhere; crossing set is empty."""


class MeanMismatchError(LatticeError):
    """Convex-order check requires equal means."""


class UnclassifiedError(LatticeError):
    """The pmf fails a hypothesis of the check: the base of each such error."""


class NotMonotoneLogConcaveError(UnclassifiedError):
    """Operation requires a monotone log-concave pmf."""


class NotSymmetricError(UnclassifiedError):
    """The pmf is not symmetric about an integer."""


class DiracInputError(UnclassifiedError):
    """Operation is undefined for a point mass."""


class BadOrdersError(LatticeError):
    """Invalid Renyi order or order pair."""


class DomainError(LatticeError):
    """Argument outside the domain of the evaluated functional."""
