#!/usr/bin/env python
"""Software replica of the Trotterized two-qubit measurement protocol.

Demonstrates:
1. Strang-splitting step error and the n^-2 full-cycle convergence
2. The worst full-cycle fidelity over the field range per step count, and
   the minimum power-of-two step count meeting the 0.3% fidelity budget
3. The NMR pulse form of each Z rotation, an X-conjugated Y rotation, which
   is the same gate, so the pulse sequence is the coarse splitting itself
4. Readout of the decoherence factor from the system coherence, independent
   of the prepared input angle, and the geometric phase of that readout
   trace
"""

from dataclasses import replace

import numpy as np
import scipy.linalg

from gphase import (
    Decomposition,
    ProtocolParams,
    SystemParams,
    TwoLevelBathParams,
    decoherence_factor_oracle,
    geometric_phase,
    run_protocol,
    trotter_step,
)
from gphase.protocol import worst_cycle_fidelity
from gphase.reference import (
    PINNED_TROTTER_STEPS,
    X,
    Z,
    build_target_hamiltonian,
    find_min_trotter_steps,
)

OMEGA = 100.0 * np.pi
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


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

    # the pulses realize each Z rotation exactly
    wrap = scipy.linalg.expm(-1j * np.pi / 4 * X)
    print("\nZ rotation as an X-conjugated Y pulse, e^{-i pi X/4} e^{-i a Y} e^{+i pi X/4}:")
    for a in (0.1, 1.0, 3.0):
        pulse = wrap @ scipy.linalg.expm(-1j * a * Y) @ wrap.conj().T
        diff = np.max(np.abs(pulse - scipy.linalg.expm(-1j * a * Z)))
        print(f"    a = {a}:  max|U_pulse - e^(-i a Z)| = {diff:.2e}")

    # readout consistency
    print("\ncoherence readout vs branch-overlap oracle (exact evolution):")
    pb = ProtocolParams(sys=sysp, bath=replace(bath, b_field=0.05 * OMEGA))
    for th_in, label in ((np.pi / 6, "pi/6"), (np.pi / 2, "pi/2")):
        trace = run_protocol(pb, input_theta=th_in)
        ref = decoherence_factor_oracle(pb.bath, trace.times)
        print(f"    input angle {label}: max |r_readout - r_oracle| = "
              f"{np.max(np.abs(trace.r_values - ref)):.2e}")

    gp = geometric_phase(run_protocol(pb), sysp)
    print(f"\ngeometric phase from the protocol trace: {gp.phi_total:+.6f} rad"
          f" (correction {gp.correction:+.6f})")


if __name__ == "__main__":
    main()
