"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to catch gets its own class;
all of them derive from :class:`EbsdeError` so batch drivers can trap the
whole family at once.
"""


class EbsdeError(Exception):
    """Base class for all package-specific failures."""


class NonConvergence(EbsdeError):
    """An iterative procedure exhausted its iteration budget."""


class NotOnBoundary(EbsdeError):
    """A boundary-only operation was called at a point away from the boundary."""


class StepTooLarge(EbsdeError):
    """A single Euler proposal moved farther than the domain diameter."""


class NotKolmogorov(EbsdeError):
    """A gradient-system-only operation was called on a model without a potential."""


class NonConvexPotential(EbsdeError):
    """The potential's Hessian is not positive definite on the sampled grid."""


class SigmaNotConstant(EbsdeError):
    """An operation assuming constant diffusion got a state-dependent one."""


class SingularSigma(EbsdeError):
    """An operation assuming invertible diffusion got a singular one."""


class PicardDiverged(EbsdeError):
    """The frozen-gradient fixed-point sweep failed to contract."""


class FlatCurve(EbsdeError):
    """The cost curve has no usable slope, so the boundary cost is not identifiable."""


class BracketFailure(EbsdeError):
    """Bisection could not bracket the target value after maximal expansion."""


class DegenerateLocalTime(EbsdeError):
    """The boundary local time estimate is statistically indistinguishable from zero."""


class WeightDegeneracy(EbsdeError):
    """Importance weights collapsed (effective sample size below threshold)."""


class ConfigError(EbsdeError):
    """A run configuration failed schema validation."""
