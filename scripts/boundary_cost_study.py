#!/usr/bin/env python3
"""Map the boundary-cost-to-running-cost curve and invert it.

Solves the long-run problem over a sweep of boundary constants mu for the
clipped-Gaussian test model with the cosine driver, prints the sampled
curve with its secant slopes, then recovers the mu matching a target
long-run cost and reports the round-trip error. The cosine driver does not
read z, so on the direct scheme the curve is the line lambda(0) + mu slope
from one transposed solve, and the inversion is closed-form with one
confirming solve.

    python3 scripts/boundary_cost_study.py [--target 0.5] [--grid 1e-3]
"""
import argparse
import time

from ebsde import (ball_domain, cos_driver, kolmogorov_model, lambda_of_mu,
                   lambda_time_average, quadratic_potential,
                   solve_boundary_cost)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--target", type=float, default=0.5,
                    help="long-run cost to invert for")
    ap.add_argument("--grid", type=float, default=1e-3)
    ap.add_argument("--mus", type=float, nargs="+",
                    default=[-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
    args = ap.parse_args()

    model = kolmogorov_model(quadratic_potential(), eta_hint=-1.0)
    domain = ball_domain(1.0, 1)
    driver = cos_driver()

    t0 = time.perf_counter()
    curve = lambda_of_mu(model, domain, driver, args.mus, scheme="direct",
                         spacing=args.grid)
    print(f"curve sampled in {time.perf_counter() - t0:.2f}s "
          f"(non-increasing: {curve.non_increasing()})")
    print(f"{'mu':>8} {'lambda':>12} {'slope':>10}")
    for k, (m, l) in enumerate(zip(curve.mus, curve.lams)):
        slope = ""
        if k:
            slope = f"{(curve.lams[k] - curve.lams[k - 1]) / (m - curve.mus[k - 1]):10.6f}"
        print(f"{m:8.2f} {l:12.8f} {slope:>10}")

    t0 = time.perf_counter()
    sol = solve_boundary_cost(model, domain, driver, args.target, tol=1e-3,
                              scheme="direct", spacing=args.grid)
    print(f"\ninversion in {time.perf_counter() - t0:.2f}s: "
          f"mu* = {sol.mu:.6f} gives lambda = {sol.lam:.8f} "
          f"(target {args.target}, gap {abs(sol.lam - args.target):.2e})")

    # grid-free cross-check: long-run time average along simulated paths
    est, se = lambda_time_average(model, domain, driver, sol, T=50.0, h=1e-3,
                                  paths=64, seed=0)
    print(f"simulated long-run cost at mu*: {est:.6f} +- {se:.6f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
