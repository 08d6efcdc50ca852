"""Two-level model of a critical environment and its decoherence factor.

A finite-size critical bath is mimicked by a single qubit whose gap closes
at the critical point B = 0:

    H_env = B Z + Delta X,

with minimum gap Delta at criticality.  The paper reaches B from the
dimensionless distance lambda to the critical point as
B = sign(lambda)|lambda|^{z nu} Delta; this module takes B itself.
The system couples through Z, so conditioned on the system pointer states
the environment evolves under two shifted branch Hamiltonians; their
overlap is the decoherence factor, which ``decoherence_factor_oracle``
writes in closed form in Bloch vectors.  Its fastest frequency, ``bandwidth``,
sets the coarsest grid that resolves it (``require_resolved``), and
``oracle_trace`` keeps a trace only from such a grid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import UnwrapFailure, ValidationError
from .gp import DecoherenceTrace, SystemParams, build_trace


class CouplingConvention(enum.Enum):
    """How the system's Z couples into the environment branch Hamiltonians."""

    ZZ_TARGET = "zz"        # H = Omega Z_S + delta Z_S Z_E + B Z_E + Delta X_E
    PROJECTOR = "projector"  # H_SE = delta (I_S - Z_S) Z_E


@dataclass(frozen=True)
class TwoLevelBathParams:
    """Parameters of the two-level critical bath and its system coupling."""

    delta_gap: float   # minimum gap Delta, rad/s
    b_field: float     # field B, rad/s
    coupling: float    # delta, rad/s
    convention: CouplingConvention = CouplingConvention.ZZ_TARGET

    def __post_init__(self):
        if not (self.delta_gap > 0 and np.isfinite(self.delta_gap)):
            raise ValidationError(f"delta_gap must be positive, got {self.delta_gap}")
        if not np.all(np.isfinite([self.b_field, self.coupling])):
            raise ValidationError(f"b_field and coupling must be finite, got {self}")


def ground_state(p: TwoLevelBathParams) -> np.ndarray:
    """Ground state of B Z + Delta X: |g> = cos(a/2)|0> - sin(a/2)|1>, tan a = -Delta/B.

    The branch a in (0, pi) is selected; B = 0 gives a = pi/2 exactly.
    """
    alpha = np.arctan2(p.delta_gap, -p.b_field)
    return np.array([np.cos(alpha / 2.0), -np.sin(alpha / 2.0)], dtype=complex)


def _branch_fields(p: TwoLevelBathParams) -> tuple[float, float]:
    """Z-field of the branch seen by system |0> and by system |1>."""
    b = p.b_field
    if p.convention is CouplingConvention.ZZ_TARGET:
        return b + p.coupling, b - p.coupling
    return b, b + 2.0 * p.coupling


def bandwidth(p: TwoLevelBathParams) -> float:
    """Largest angular frequency in the decoherence factor, rad/s.

    r(t) = <eps1(t)|eps0(t)> beats the branch energies +-E_0 against +-E_1,
    E_j = hypot(b_j, Delta), so its fastest component is E_0 + E_1."""
    return float(np.sum(np.hypot(_branch_fields(p), p.delta_gap)))


def require_resolved(p: TwoLevelBathParams, tau: float, intervals: int) -> None:
    """Raise UnwrapFailure unless ``intervals`` equal steps over ``tau`` resolve r(t).

    The fastest frequency, ``bandwidth(p)``, must turn by less than pi per
    interval; on a coarser grid a winding aliases, and no later unwrap check
    can tell it from a slow one."""
    band = bandwidth(p)
    turn = band * tau / intervals
    # not (turn < pi), so that a NaN turn fails too
    if not turn < np.pi:
        raise UnwrapFailure(
            f"grid of {intervals} intervals per cycle aliases the decoherence factor: "
            f"bandwidth {band:.6g} rad/s needs more than {band * tau / np.pi:.6g} intervals "
            f"over tau = {tau:.6g} s")


def decoherence_factor_oracle(p: TwoLevelBathParams, t):
    """Exact branch-overlap decoherence factor <psi|e^{+iH1 t} e^{-iH0 t}|psi>.

    With H_j = b_j Z + Delta X = E_j n_j.sigma (b_j from ``p.convention``),
    e^{-iH_j t} = c_j - i s_j n_j.sigma, c_j and s_j the cos and sin of E_j t;
    so from the Bloch vector m = <psi|sigma|psi> of the bath ground state psi

        r = <psi|psi>(c1 c0 + s1 s0 n1.n0) + i(s1 c0 n1.m - c1 s0 n0.m),

    as psi is real: m lies in the x-z plane with n0 and n1, so (n1 x n0).m = 0.
    Never reads the system angle theta: pure dephasing makes r(t) independent
    of the system state.  Accepts scalar or array t; r(0) = <psi|psi> exactly.
    """
    psi = ground_state(p)
    w = 2.0 * psi[0].conjugate() * psi[1]
    m = np.array([w.real, w.imag, abs(psi[0]) ** 2 - abs(psi[1]) ** 2])
    b = _branch_fields(p)
    e = np.hypot(b, p.delta_gap)  # E_0, E_1 >= gap > 0
    n0, n1 = (np.array([p.delta_gap, 0.0, bj]) / ej for bj, ej in zip(b, e))
    et = np.multiply.outer(e, t)
    (c0, c1), (s0, s1) = np.cos(et), np.sin(et)
    out = (np.vdot(psi, psi).real * (c1 * c0 + s1 * s0 * (n1 @ n0))
           + 1j * (s1 * c0 * (n1 @ m) - c1 * s0 * (n0 @ m)))
    return out if out.shape else complex(out)


def oracle_trace(p: TwoLevelBathParams, sysp: SystemParams, samples: int) -> DecoherenceTrace:
    """``build_trace`` of ``decoherence_factor_oracle`` over the cycle of ``sysp``,
    kept if ``require_resolved`` passes on the (possibly refined) grid it took."""
    trace = build_trace(lambda t: decoherence_factor_oracle(p, t), sysp, samples)
    require_resolved(p, sysp.tau, trace.samples)
    return trace
