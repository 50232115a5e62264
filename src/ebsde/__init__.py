"""Numerical laboratory for long-run stochastic problems in a reflected
domain: ergodic value functions with oblique boundary data, their two
constants, the curve linking them, and the controlled costs they price.

Layout:

* ``geometry``: domain descriptions, projection, normals, sampling
* ``dynamics``: reflected/penalized simulation, local time, Gibbs laws
* ``hypotheses``: constant estimation and structural flag checks
* ``discounted``: discounted semilinear solves with Neumann data
* ``ergodic``: direct and vanishing-discount long-run solvers, the cost
  curve and its inversion
* ``verification``: PDE and pathwise residuals, drift-shift invariance
* ``control``: Hamiltonian, feedback policies, long-run cost estimators
* ``cli``: batch runner (``ebsde`` console command)
"""

__version__ = "0.1.0"

from .errors import (BracketFailure, ConfigError, DegenerateLocalTime,
                     EbsdeError, FlatCurve, NonConvergence,
                     NonConvexPotential, NotKolmogorov, NotOnBoundary,
                     PicardDiverged, SigmaNotConstant, SingularSigma,
                     StepTooLarge, WeightDegeneracy)
from .geometry import (DomainSpec, ball_domain, boundary_sample,
                       domain_from_json, domain_grid, geometric_constants,
                       inward_normal, project, quadratic_domain,
                       quartic_interval_domain)
from .dynamics import (KRateEstimate, Potential, SdeModel, ensemble_average,
                       expected_K_rate, invariant_density,
                       occupation_histogram, penalized_moments,
                       sample_invariant, stationary_start)
from .grids import GridFunction, Mesh, build_mesh
from .hypotheses import (HypothesisReport, check_all,
                         estimate_eta, estimate_kolmogorov_constants,
                         estimate_theta, stationary_generator_phi)
from .discounted import DriverSpec, lipschitz_diagnostic, solve_discounted
from .ergodic import (ErgodicSolution, LambdaOfMuCurve, lambda_of_mu,
                      lambda_time_average, solve_boundary_cost, solve_ergodic)
from .verification import (BsdeResidual, bsde_residual,
                           drift_shift_equivalence, pde_residual,
                           shifted_problem)
from .control import (ControlProblem, CostEstimate, Policy, cost_I, cost_J,
                      feedback_policy, girsanov_weight_check, hamiltonian,
                      induced_driver, policy_from_json)
from .presets import (assemble_config, cos_driver, constant_driver,
                      degenerate_linear_model, kolmogorov_model, ou_model,
                      pinned_free_potential, poly_potential,
                      quadratic_potential, two_control_problem, zero_driver)

__all__ = [name for name in dir() if not name.startswith("_")]
