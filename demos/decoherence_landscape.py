#!/usr/bin/env python
"""Decoherence factor of the two-level critical bath across its field range.

Demonstrates:
1. Sampling r(t) over one system cycle with oracle_trace
2. The collapse-revival landscape |r(t)|^2 as a function of (t, B)
3. Strongest decoherence at the critical point B = 0

Writes decoherence_landscape.csv with columns t, B, abs_r_squared.
"""

from dataclasses import replace

import numpy as np

from gphase import SystemParams, TwoLevelBathParams, decoherence_factor_oracle
from gphase.two_level import oracle_trace

OMEGA = 100.0 * np.pi


def main():
    print("=" * 64)
    print("Two-level critical bath: decoherence factor landscape")
    print("=" * 64)

    sysp = SystemParams(omega=OMEGA, theta=np.pi / 4)
    bath = TwoLevelBathParams(delta_gap=0.02 * OMEGA, b_field=0.05 * OMEGA, coupling=0.1 * OMEGA)
    print(f"\ncycle tau = {sysp.tau:.4f} s, gap = 0.02 W, coupling = 0.1 W")

    # single trace at B = 0.05 W
    trace = oracle_trace(bath, sysp, 256)
    print("\nr(t) at B = 0.05 W (every 32nd sample):")
    print("    t/tau     |r|      phase")
    for i in range(0, 257, 32):
        print(
            f"    {trace.times[i] / sysp.tau:5.3f}   {trace.magnitude[i]:6.4f}"
            f"   {trace.phase_unwrapped[i]:+7.4f}"
        )

    # landscape over (t, B)
    b_grid = np.linspace(-0.2 * OMEGA, 0.2 * OMEGA, 41)
    t_grid = np.linspace(0.0, sysp.tau, 129)
    rows = []
    mins = []
    for b in b_grid:
        r = decoherence_factor_oracle(replace(bath, b_field=b), t_grid)
        r2 = np.abs(r) ** 2
        mins.append(r2.min())
        rows.extend((t, b, v) for t, v in zip(t_grid, r2))

    i_deep = int(np.argmin(mins))
    print(f"\ndeepest |r|^2 collapse: {mins[i_deep]:.4f} at B/W = {b_grid[i_deep] / OMEGA:+.3f}")
    print("minimum |r|^2 vs field (criticality enhances decoherence):")
    for i in range(0, 41, 5):
        bar = "#" * int(40 * (1.0 - mins[i]))
        print(f"    B/W = {b_grid[i] / OMEGA:+5.2f}  min|r|^2 = {mins[i]:6.4f}  {bar}")

    np.savetxt(
        "decoherence_landscape.csv",
        np.array(rows),
        delimiter=",",
        header="t,B,abs_r_squared",
        comments="",
    )
    print("\nwrote decoherence_landscape.csv")


if __name__ == "__main__":
    main()
