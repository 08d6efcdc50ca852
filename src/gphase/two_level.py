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
computes from exact 2x2 propagators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


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
    b0, b1 = _branch_fields(p)
    return float(np.hypot(b0, p.delta_gap) + np.hypot(b1, p.delta_gap))


def decoherence_factor_oracle(p: TwoLevelBathParams, t, initial=None):
    """Exact branch-overlap decoherence factor <eps1(t)|eps0(t)>.

    Branch Hamiltonians H_j = b_j Z + Delta X follow ``p.convention``; the
    initial environment state defaults to the bath ground state.  Uses the
    closed-form 2x2 exponential e^{-iHt} = cos(Et) - i sin(Et) H/E.  Never
    reads the system angle theta: pure dephasing makes r(t) independent of
    the system state.  Accepts scalar or array t; |r| <= 1 and r(0) = 1
    exactly.
    """
    psi = ground_state(p) if initial is None else np.asarray(initial, dtype=complex)
    b0, b1 = _branch_fields(p)
    gap = p.delta_gap
    t = np.asarray(t, dtype=float)

    def _u(b, tt, sign):
        e = np.hypot(b, gap)  # >= gap > 0
        c = np.cos(e * tt)
        s = np.sin(e * tt) * sign
        bz, gx = b / e, gap / e
        u = np.zeros(tt.shape + (2, 2), dtype=complex)
        u[..., 0, 0] = c - 1j * s * bz
        u[..., 1, 1] = c + 1j * s * bz
        u[..., 0, 1] = -1j * s * gx
        u[..., 1, 0] = -1j * s * gx
        return u

    u1 = _u(b1, t, -1.0)   # e^{+i H1 t}
    u0 = _u(b0, t, +1.0)   # e^{-i H0 t}
    out = np.einsum("i,...ij,...jk,k->...", psi.conj(), u1, u0, psi)
    return out if out.shape else complex(out)
