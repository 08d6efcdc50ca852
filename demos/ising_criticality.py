#!/usr/bin/env python
"""Geometric-phase correction from a transverse-field Ising chain environment.

Demonstrates:
1. The free-fermion mode product against dense 2^N diagonalization
2. The exact phase correction across the transverse field, singular at lam = 1
3. Second- vs third-order weak-coupling closed forms (elliptic integrals)
4. Finite-size growth of the critical correction

Writes ising_sweep.csv with columns lambda, dphi_exact_norm, dphi_order2_norm,
dphi_order3_norm (normalized by N delta^2).
"""

import numpy as np

from gphase import (
    IsingBathParams,
    SystemParams,
    chain_trace,
    decoherence_product,
    geometric_phase,
    gp_approx_ising,
)
from gphase.perturbative import ising_closed_forms
from gphase.reference import brute_force_oracle

N, DELTA, OMEGA_J = 100, 5e-5, 1.0


def exact_dphi(lam, n_spins=N):
    sysp = SystemParams(omega=OMEGA_J, theta=np.pi / 4)
    p = IsingBathParams(n_spins, 1.0, lam, DELTA)
    return geometric_phase(chain_trace(p, sysp, 4096), sysp).correction


def main():
    print("=" * 64)
    print("Ising chain environment: criticality imprinted on the phase")
    print("=" * 64)

    # free-fermion product vs dense diagonalization at desk size
    print("\nmode product vs dense 2^N oracle (N = 8, lam = 0.75, delta = 0.01):")
    p8 = IsingBathParams(8, 1.0, 0.75, 0.01)
    t = np.linspace(0.0, 2.0, 9)
    dv = np.max(np.abs(decoherence_product(p8, t) - brute_force_oracle(p8, t)))
    print(f"    max |r_product - r_dense| = {dv:.2e}")

    # exact sweep vs weak-coupling orders
    sysp = SystemParams(omega=OMEGA_J, theta=np.pi / 4)
    norm = N * DELTA**2
    lams = np.arange(0.1, 1.91, 0.1)
    print(f"\nN = {N}, delta = {DELTA} (field shift), Omega = {OMEGA_J} J")
    print("    lam    exact/Nd^2   2nd-order   3rd-order")
    rows = []
    for lam in lams:
        ex = exact_dphi(float(lam)) / norm
        p = IsingBathParams(N, 1.0, float(lam), DELTA)
        gp = gp_approx_ising(p, sysp)
        o2, o3 = gp.order2 / norm, gp.order3 / norm
        rows.append((lam, ex, o2, o3))
        marker = "  <- critical point" if abs(lam - 1.0) < 1e-9 else ""
        print(f"    {lam:4.2f}   {ex:+9.4f}   {o2:+9.4f}   {o3:+9.4f}{marker}")
    print("\nthird order hugs the exact curve; second order misses the large")
    print("linear-phase contribution that builds up over the long cycle")

    np.savetxt(
        "ising_sweep.csv",
        np.array(rows),
        delimiter=",",
        header="lambda,dphi_exact_norm,dphi_order2_norm,dphi_order3_norm",
        comments="",
    )
    print("wrote ising_sweep.csv")

    # the slope divergence behind the singularity
    cf = ising_closed_forms(IsingBathParams(N, 1.0, 1.0, DELTA), sysp)
    print("\nslope of the elliptic closed form near lam = 1 (log divergence):")
    for h in (1e-1, 1e-2, 1e-3, 1e-4):
        slope = (cf.g1(1.0 + h) - cf.g1(1.0)) / h
        print(f"    h = {h:7.0e}:  dG1/dlam ~ {slope:10.2f}")

    # finite-size growth at the critical point
    print("\ncritical correction grows with chain length:")
    for n in (20, 50, 100):
        print(f"    N = {n:3d}:  |dPhi(lam=1)| = {abs(exact_dphi(1.0, n)):.3e} rad")


if __name__ == "__main__":
    main()
