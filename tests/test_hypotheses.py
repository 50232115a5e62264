import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest as refs
from ebsde.discounted import DriverSpec
from ebsde.dynamics import SdeModel
from ebsde.errors import NonConvexPotential, SigmaNotConstant
from ebsde.geometry import ball_domain, quartic_interval_domain
from ebsde.hypotheses import (check_all, estimate_eta,
                              estimate_kolmogorov_constants, estimate_theta,
                              stationary_generator_phi)
from ebsde.presets import (cos_driver, degenerate_linear_model,
                           kolmogorov_model, ou_model, poly_potential,
                           quadratic_potential, zero_driver)
from ebsde.verification import shifted_problem


def test_dissipativity_of_linear_drift(interval, std_model):
    # <b(x)-b(y), x-y> = -|x-y|^2 exactly
    assert abs(estimate_eta(std_model, interval, 32) - (-1.0)) < 1e-12


def test_dissipativity_degenerate_diffusion(interval):
    # b = -x and sigma(x) = x: pairing gives -1 + 1/2 = -1/2
    model = degenerate_linear_model()
    assert abs(estimate_eta(model, interval, 32) - (-0.5)) < 1e-12


@given(n=st.integers(min_value=8, max_value=24))
@settings(max_examples=20, deadline=None)
def test_eta_estimate_monotone_under_refinement(n):
    # sup over a nested grid can only grow
    dom = ball_domain(1.0, 1)
    model = kolmogorov_model(poly_potential([0, 0, 0, 0, 0.25]))  # U = x^4/4
    lo = estimate_eta(model, dom, n)
    hi = estimate_eta(model, dom, 2 * n - 1)
    assert hi >= lo - 1e-12


def test_pairing_constant_plain(interval, std_model):
    # convex domain, z-free driver: theta reduces to twice the drift rate
    th = estimate_theta(std_model, zero_driver(), interval)
    assert abs(th - (-2.0)) < 1e-9


def test_pairing_constant_needs_constant_sigma(interval):
    with pytest.raises(SigmaNotConstant):
        estimate_theta(degenerate_linear_model(), zero_driver(), interval)


def test_kolmogorov_constants(interval, std_model):
    kc = estimate_kolmogorov_constants(std_model, interval)
    assert abs(kc["c"] - 1.0) < 1e-12
    # oscillation of <grad U, x> = x^2 over the closure
    assert abs(kc["delta"] - 1.0) < 5e-3


def test_nonconvex_potential_raises(interval):
    # double well x^4/4 - x^2/2: the Hessian is negative near the origin
    well = kolmogorov_model(poly_potential([0, 0, -0.5, 0, 0.25]))
    with pytest.raises(NonConvexPotential):
        estimate_kolmogorov_constants(well, interval)


def test_stationary_flux_quadrature_for_gradient_model(interval, std_model):
    val, se = stationary_generator_phi(std_model, interval, T=10.0, h=1e-3,
                                       paths=8, seed=0)
    assert se == 0.0  # explicit density, no sampling error
    assert abs(val + refs.FLUX_RATE) < 1e-9


def test_check_all_standard_model(interval, std_model, cosdrv):
    rep = check_all(std_model, cosdrv, interval, grid_density=32)
    for key in ("G1", "G2", "G3", "G4", "H1", "H2", "H3", "H3'", "H4",
                "F1", "F2", "F2.1", "F2.2"):
        assert rep.flags[key], key
    # the round defining function has no strict interior flux
    assert not rep.flags["F2'"]
    assert rep.flags["F2''"]
    assert abs(rep.eta + 1.0) < 1e-9
    assert abs(rep.margins["H3"] - 1.0) < 1e-9
    assert abs(rep.E_nu_Lphi + refs.FLUX_RATE) < 1e-9


def test_check_all_quartic_domain_strict_flux(std_model, cosdrv):
    rep = check_all(std_model, cosdrv, quartic_interval_domain(),
                    grid_density=32)
    assert rep.flags["F2'"]
    assert abs(rep.margins["F2'"] - 0.5) < 1e-6


def test_check_all_degenerate_model(interval):
    rep = check_all(degenerate_linear_model(), zero_driver(), interval,
                    grid_density=24, mc_T=40.0)
    assert rep.flags["H3"]
    assert not rep.flags["F2.2"]  # no boundary attainability
    assert not rep.flags["H4"]
    # the origin absorbs this model (b(0) = 0, sigma(0) = 0), so the
    # sampled flux is exactly zero and the strict-sign test must fail
    assert rep.E_nu_Lphi == 0.0
    assert rep.E_nu_Lphi_stderr == 0.0


def test_declared_driver_constants_are_binding(interval, std_model):
    lying = DriverSpec(psi=lambda x, z: np.cos(x[0]), g=None,
                       K_psi_x=0.01, K_psi_z=0.0, M_psi=1.0,
                       name="underdeclared")
    rep = check_all(std_model, lying, interval, grid_density=24)
    assert not rep.flags["H2"]
    assert any("exceed" in n for n in rep.notes)


def test_suggested_shift_restores_dissipativity(interval):
    expanding = ou_model(rate=-1.0)  # drift +x
    rep = check_all(expanding, zero_driver(), interval, grid_density=16)
    assert not rep.flags["H3"]
    assert rep.suggested_shift is not None and rep.suggested_shift > 1.0
    model2, _ = shifted_problem(expanding, zero_driver(),
                                rep.suggested_shift, interval)
    assert estimate_eta(model2, interval, 16) < 0


def test_stationary_flux_monte_carlo_pinned_bit_for_bit(interval):
    # recorded from the per-point generator loop (models without b_vec) and
    # the three-case vectorised L phi; compared with ==
    pins = {
        "ou": (ou_model(), interval, (-0.2241078998780459, 0.07131127060725784)),
        "no-b_vec": (SdeModel(b=lambda x: -np.atleast_1d(x),
                              sigma=lambda x: np.eye(1), eta_hint=-1.0),
                     interval, (-0.2241078998780459, 0.07131127060725784)),
        "degenerate": (degenerate_linear_model(), interval, (0.0, 0.0)),
        "ou-disc": (ou_model(dim=2), ball_domain(1.0, 2),
                    (-0.63618631137266, 0.05573295166534861)),
    }
    for name, (model, dom, want) in pins.items():
        got = stationary_generator_phi(model, dom, T=0.5, h=1e-3, paths=8, seed=2)
        assert got == want, name
