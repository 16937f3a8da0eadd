"""Exception types shared across the package."""


class RKHeatError(Exception):
    """Base class for all package-specific failures."""


class SingularConditionSystem(RKHeatError):
    """The kernel condition system is rank-deficient for the given constraints."""


class OutOfDomain(RKHeatError):
    """A point lies outside the interval or space-time rectangle."""


class UnknownExample(RKHeatError):
    """Requested benchmark example id is not one of 1, 2, 3."""


class NonDifferentiableData(RKHeatError):
    """User-supplied data lacks the derivatives an operation requires."""


class KernelDomainMismatch(RKHeatError):
    """Kernel intervals do not match the problem domain."""


class NumericallySingular(RKHeatError):
    """The collocation system is singular or its solve is not finite."""


class SingularDiscretization(RKHeatError):
    """The finite-difference system could not be factorized on this grid."""
