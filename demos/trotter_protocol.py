#!/usr/bin/env python
"""Software replica of the Trotterized two-qubit measurement protocol.

Demonstrates:
1. Symmetric-splitting step error and the n^-2 full-cycle convergence
2. The worst full-cycle fidelity over the field range per step count, and
   the minimum power-of-two step count meeting the 0.3% fidelity budget
3. Pulse-level steps (Z rotations as X-conjugated Y rotations) against the
   coarse splitting
4. Readout of the decoherence factor from the system coherence, independent
   of the prepared input angle
"""

from dataclasses import replace

import numpy as np
import scipy.linalg

from gphase import (
    Decomposition,
    ProtocolParams,
    SystemParams,
    TwoLevelBathParams,
    build_target_hamiltonian,
    decoherence_factor_oracle,
    run_protocol,
    trotter_step,
)
from gphase.protocol import PINNED_TROTTER_STEPS, find_min_trotter_steps, worst_cycle_fidelity

OMEGA = 100.0 * np.pi


def main():
    print("=" * 64)
    print("Trotterized protocol: stepping error, fidelity budget, readout")
    print("=" * 64)

    sysp = SystemParams(omega=OMEGA, theta=np.pi / 4)
    bath = TwoLevelBathParams(delta_gap=0.02 * OMEGA, b_field=0.1 * OMEGA, coupling=0.1 * OMEGA)
    b_grid = np.linspace(-0.2 * OMEGA, 0.2 * OMEGA, 21)

    # full-cycle operator error vs step count
    p = ProtocolParams(sys=sysp, bath=bath, decomposition=Decomposition.COARSE_TROTTER)
    h = build_target_hamiltonian(p)
    u_exact = scipy.linalg.expm(-1j * sysp.tau * h)
    print("\nfull-cycle operator error (Strang splitting, ~n^-2):")
    for n in (4, 16, 64, 256):
        u = np.linalg.matrix_power(trotter_step(p, sysp.tau / n), n)
        print(f"    n = {n:3d}:  max|U_n - U| = {np.max(np.abs(u - u_exact)):.3e}")

    # fidelity budget over the field range
    print("\nworst full-cycle fidelity over B in [-0.2 W, 0.2 W]:")
    for n in (1, 2, 4, 8):
        worst = worst_cycle_fidelity(replace(p, trotter_steps=n), b_grid)
        tag = "  <- meets the 0.3% budget" if worst >= 0.997 else ""
        print(f"    n = {n}:  {worst:.6f}{tag}")
    n_min = find_min_trotter_steps(ProtocolParams(sys=sysp, bath=bath), b_grid)
    print(f"minimum power-of-two step count: {n_min} (pinned: {PINNED_TROTTER_STEPS})")

    # pulse-level steps realize the same splitting
    pulse = replace(p, decomposition=Decomposition.PULSE_LEVEL)
    print("\npulse-level step vs coarse step:")
    for n in (1, 16, 256):
        dt = sysp.tau / n
        diff = np.max(np.abs(trotter_step(pulse, dt) - trotter_step(p, dt)))
        print(f"    dt = tau/{n:<3d}:  max|U_pulse - U_coarse| = {diff:.2e}")

    # readout consistency
    print("\ncoherence readout vs branch-overlap oracle (exact evolution):")
    pb = ProtocolParams(sys=sysp, bath=replace(bath, b_field=0.05 * OMEGA))
    for th_in, label in ((np.pi / 6, "pi/6"), (np.pi / 2, "pi/2")):
        run = run_protocol(pb, input_theta=th_in)
        ref = decoherence_factor_oracle(pb.bath, run.trace.times)
        print(f"    input angle {label}: max |r_readout - r_oracle| = "
              f"{np.max(np.abs(run.trace.r_values - ref)):.2e}")

    run = run_protocol(pb)
    print(f"\ngeometric phase from the protocol trace: {run.gp.phi_total:+.6f} rad"
          f" (correction {run.gp.correction:+.6f})")


if __name__ == "__main__":
    main()
