"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to catch gets its own class;
all of them derive from :class:`EbsdeError` so batch drivers can trap the
whole family at once. A class's ``remedy`` is the hint the CLI prints
under the error ("" for none).
"""


class EbsdeError(Exception):
    """Base class for all package-specific failures."""

    remedy = ""


class NonConvergence(EbsdeError):
    """An iterative procedure exhausted its iteration budget."""

    remedy = ("a discount sequence ran out of budget (loosen --tol or "
              "refine --grid), an inversion missed its target by more than "
              "--tol (refine --grid), or a boundary projection failed "
              "(check the domain)")


class StepTooLarge(EbsdeError):
    """A single Euler proposal moved farther than the domain diameter."""

    remedy = "decrease the time step h"


class NotKolmogorov(EbsdeError):
    """A gradient-system-only operation was called on a model without a potential."""

    remedy = "supply a model with a potential, or use path statistics"


class NonConvexPotential(EbsdeError):
    """The potential's Hessian is not positive definite on the sampled grid."""

    remedy = "the potential is not uniformly convex; pick another model"


class SigmaNotConstant(EbsdeError):
    """An operation assuming constant diffusion got a state-dependent one."""

    remedy = "the pairing constant needs a constant diffusion matrix"


class SingularSigma(EbsdeError):
    """An operation assuming invertible diffusion got a singular one."""

    remedy = "the drift shift needs an invertible diffusion matrix"


class PicardDiverged(EbsdeError):
    """The frozen-gradient fixed-point sweep failed to contract."""

    remedy = "shrink the discount step or the driver's z modulus"


class FlatCurve(EbsdeError):
    """The cost curve has no usable slope, so the boundary cost is not identifiable."""

    remedy = ("the boundary flux is zero for this model, so mu never "
              "enters; run the check task and look at F2''/F2.2")


class DegenerateLocalTime(EbsdeError):
    """The boundary local time estimate is statistically indistinguishable from zero."""

    remedy = "lengthen --horizon so the boundary is visited"


class WeightDegeneracy(EbsdeError):
    """Importance weights collapsed (effective sample size below threshold)."""

    remedy = "shorten --horizon or shrink the noise tilt"


class ConfigError(EbsdeError):
    """A run configuration failed schema validation."""
