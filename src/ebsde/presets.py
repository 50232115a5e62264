"""Ready-made domains, models, drivers, and control problems.

These are the configurations exercised throughout the test-suite and the
command-line runner: gradient systems on the unit interval with explicit
stationary laws, the degenerate linear model whose ergodic solutions are
known in closed form, and a small two-control problem. Everything here is
also constructible from a JSON config document; see ``assemble_config``.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from .control import ControlProblem, induced_driver
from .discounted import DriverSpec
from .dynamics import Potential, SdeModel
from .errors import ConfigError
from .geometry import DomainSpec, ball_domain, domain_from_json, quartic_interval_domain

__all__ = [
    "quadratic_potential", "pinned_free_potential", "poly_potential",
    "kolmogorov_model", "degenerate_linear_model", "ou_model",
    "zero_driver", "constant_driver", "cos_driver",
    "two_control_problem", "assemble_config",
]


# ---------------------------------------------------------------------------
# potentials (1-d unless stated)


def quadratic_potential(curvature: float = 1.0) -> Potential:
    """U = curvature |x|^2 / 2 in any dimension; the stationary law is a
    clipped Gaussian."""
    c = float(curvature)

    def hess(X):
        d = X.shape[1]
        return np.broadcast_to(c * np.eye(d), (len(X), d, d))

    return Potential(value=lambda X: 0.5 * c * (X * X).sum(axis=1),
                     grad=lambda X: c * X, hess=hess)


def pinned_free_potential() -> Potential:
    """U = 3 x^2 + x/2: stiff and tilted, so the penalized approximation
    converges through visibly distinct stages."""
    return Potential(
        value=lambda X: 3.0 * X[:, 0] ** 2 + 0.5 * X[:, 0],
        grad=lambda X: 6.0 * X + 0.5,
        hess=lambda X: np.full((len(X), 1, 1), 6.0))


def poly_potential(coeffs) -> Potential:
    """1-d polynomial potential U(x) = sum_k coeffs[k] x^k."""
    c = np.asarray(coeffs, dtype=float)
    d1 = np.polynomial.polynomial.polyder(c)
    d2 = np.polynomial.polynomial.polyder(c, 2)
    pv = np.polynomial.polynomial.polyval
    return Potential(
        value=lambda X: pv(X[:, 0], c),
        grad=lambda X: pv(X, d1),
        hess=lambda X: pv(X, d2)[:, :, None])


# ---------------------------------------------------------------------------
# models


def kolmogorov_model(potential: Potential, dim: int = 1,
                     eta_hint: Optional[float] = None) -> SdeModel:
    """b = -grad U with sigma = sqrt(2) I."""
    return SdeModel(
        b=lambda X: -potential.grad(X),
        kolmogorov_potential=potential,
        sigma_constant=np.sqrt(2.0) * np.eye(dim),
        eta_hint=eta_hint)


def degenerate_linear_model() -> SdeModel:
    """b = -x with sigma(x) = diag(x): noise dies at the origin.

    The stationary law is the point mass at 0 and the ergodic constant is
    zero for every boundary constant, with a cubic value function.
    """
    return SdeModel(
        b=lambda X: -X,
        sigma=lambda X: X[:, :, None] * np.eye(X.shape[1]),
        eta_hint=-0.5)


def ou_model(rate: float = 1.0, noise: float = 1.0, dim: int = 1) -> SdeModel:
    r = float(rate)
    return SdeModel(
        b=lambda X: -r * X,
        sigma_constant=float(noise) * np.eye(dim),
        eta_hint=-r)


# ---------------------------------------------------------------------------
# drivers


def zero_driver() -> DriverSpec:
    return DriverSpec(psi=lambda X, Z: np.zeros(len(X)), g=None, K_psi_x=0.0,
                      K_psi_z=0.0, M_psi=0.0, psi_bounded=True)


def constant_driver(kappa: float) -> DriverSpec:
    k = float(kappa)
    return DriverSpec(psi=lambda X, Z: np.full(len(X), k), g=None, K_psi_x=0.0,
                      K_psi_z=0.0, M_psi=abs(k), psi_bounded=True)


def cos_driver(amplitude: float = 1.0) -> DriverSpec:
    """psi(x, z) = amplitude cos(x1): bounded, x-Lipschitz, z-free."""
    a = float(amplitude)
    return DriverSpec(psi=lambda X, Z: a * np.cos(X[:, 0]), g=None,
                      K_psi_x=abs(a), K_psi_z=0.0, M_psi=abs(a),
                      psi_bounded=True)


# ---------------------------------------------------------------------------
# control


def two_control_problem() -> ControlProblem:
    """Two controls on the line: opposite noise tilts of size 1/4, flat
    running cost for one control and a small x-slope for the other."""
    return ControlProblem(
        R_table=np.array([[-0.25], [0.25]]),
        L=lambda X, k: 0.5 + (0.1 * X[:, 0] if k == 1 else np.zeros(len(X))),
        M_R=0.25, M_L=0.7,
        K_L_x=0.1,
        g=None)


# ---------------------------------------------------------------------------
# JSON assembly


_POTENTIALS = {
    "quadratic": lambda spec: quadratic_potential(spec.get("curvature", 1.0)),
    "pinned_free": lambda spec: pinned_free_potential(),
    "poly": lambda spec: poly_potential(spec["coeffs"]),
}


def _build_potential(spec: dict) -> Potential:
    kind = spec.get("kind")
    if kind not in _POTENTIALS:
        raise ConfigError(f"unknown potential kind {kind!r}")
    return _POTENTIALS[kind](spec)


def build_model(spec: dict) -> SdeModel:
    kind = spec.get("kind")
    if kind == "kolmogorov":
        pot_spec = spec.get("potential", {"kind": "quadratic"})
        pot = _build_potential(pot_spec)
        dim = int(spec.get("dim", 1))
        if pot_spec.get("kind") != "quadratic" and dim != 1:
            raise ConfigError(f"the {pot_spec['kind']} potential is 1-d, but the "
                              f"model has dim {dim}")
        return kolmogorov_model(pot, dim=dim, eta_hint=spec.get("eta_hint"))
    if kind == "degenerate_linear":
        return degenerate_linear_model()
    if kind == "ou":
        return ou_model(spec.get("rate", 1.0), spec.get("noise", 1.0),
                        int(spec.get("dim", 1)))
    raise ConfigError(f"unknown model kind {kind!r}")


def build_driver(spec: dict, control: Optional[ControlProblem] = None) -> DriverSpec:
    kind = spec.get("kind")
    if kind == "zero":
        return zero_driver()
    if kind == "constant":
        return constant_driver(spec.get("value", 1.0))
    if kind == "cos":
        return cos_driver(spec.get("amplitude", 1.0))
    if kind == "hamiltonian":
        if control is None:
            raise ConfigError("hamiltonian driver needs a control section")
        return induced_driver(control)
    raise ConfigError(f"unknown driver kind {kind!r}")


def build_control(spec: dict) -> ControlProblem:
    if spec.get("kind", "table") != "table":
        raise ConfigError(f"unknown control kind {spec.get('kind')!r}")
    if "preset" in spec:
        if spec["preset"] == "two_control":
            return two_control_problem()
        raise ConfigError(f"unknown control preset {spec['preset']!r}")
    R = np.asarray(spec["R"], dtype=float)
    L_spec = spec.get("L", {})
    if L_spec.get("kind") != "affine":
        raise ConfigError("only affine running costs are configurable; "
                          'use {"kind": "affine", "base": c, "slopes": [...]}')
    base = float(L_spec.get("base", 0.0))
    slopes = np.asarray(L_spec["slopes"], dtype=float)
    if len(slopes) != len(np.atleast_2d(R)):
        raise ConfigError("one slope per control row is required")
    return ControlProblem(
        R_table=R,
        L=lambda X, k: base + slopes[k] * X[:, 0],
        M_R=float(spec["M_R"]), M_L=float(spec["M_L"]),
        K_L_x=float(np.abs(slopes).max()),
        g=None)


def assemble_config(cfg: dict):
    """Build (domain, model, driver, control) from a config document.

    The document has sections {"domain", "model", "driver", "control",
    "run"}; the first three are required for solver tasks.
    """
    if "domain" not in cfg or "model" not in cfg:
        raise ConfigError("config needs at least domain and model sections")
    try:
        domain = domain_from_json(cfg["domain"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad domain section: {exc}") from exc
    model = build_model(cfg["model"])
    sig = model.sigma_constant
    if sig is not None and len(sig) != domain.dim:
        raise ConfigError(f"the model has dim {len(sig)}, but the domain has dim "
                          f"{domain.dim}")
    control = build_control(cfg["control"]) if "control" in cfg else None
    if control is not None and control.R_table.shape[1] != domain.dim:
        raise ConfigError(f"control R has {control.R_table.shape[1]} columns, but "
                          f"the domain has dim {domain.dim}")
    driver = (build_driver(cfg["driver"], control) if "driver" in cfg
              else zero_driver())
    return domain, model, driver, control
