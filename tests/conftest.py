"""The paper's settings for every test module, read from the command line's
experiment table.

A point's parameters are an experiment's defaults with overrides (``point``),
and its records are built by the CLI's own constructors (``two_level``,
``protocol``, ``chain``) or taken from what the table's ``prepare`` binds
(``trotter``); a sweep runs the table's own ``grid`` and ``prepare``
(``points``, ``rows``, ``field_grid``).  So no test module types the setting
out again: the cycle Omega, theta = pi/4, Delta = 0.02 Omega, delta =
0.1 Omega, the fields |B| <= 0.2 Omega and the Trotter budget all come from
``EXPERIMENTS``.  ``ones_sampler``, the r = 1 sampler of an uncoupled bath, is
shared here too.
"""

import numpy as np

from gphase.cli import EXPERIMENTS, _chain, _protocol, _two_level


def point(name, **overrides):
    """One point's parameters: experiment ``name``'s defaults, then ``overrides``."""
    return {**EXPERIMENTS[name].defaults, **overrides}


# the cycle frequency of the two-level experiments, the unit of their other scales
OMEGA = point("gp-curve")["omega"]


def points(name, **overrides):
    """The parameters of every point of ``name``'s grid."""
    return EXPERIMENTS[name].grid(point(name, **overrides))


def rows(name, **overrides):
    """The rows after each point's label cells, by the table's ``prepare``."""
    prepare = EXPERIMENTS[name].prepare
    return np.array([row for p in points(name, **overrides) for row in prepare(p)()])


def field_grid(**overrides):
    """The field B of every correction point: the paper's grid over |B| <= 0.2 Omega."""
    return np.array([p["b_field"] for p in points("correction", **overrides)])


def two_level(**overrides):
    """System cycle and two-level bath of a gp-curve point."""
    return _two_level(point("gp-curve", **overrides))


def protocol(*, b_field, **overrides):
    """The protocol of a correction point at field ``b_field``."""
    return _protocol(point("correction", b_field=b_field, **overrides))


def trotter(n_steps, **overrides):
    """The coarse-Trotter protocol of a trotter-check point at ``n_steps`` and its
    field grid: the arguments the table's ``prepare`` binds."""
    return EXPERIMENTS["trotter-check"].prepare(
        point("trotter-check", n_steps=n_steps, **overrides)).args


def chain(lam, **overrides):
    """Chain bath and system cycle of an ising-sweep point at field ``lam``."""
    return _chain(point("ising-sweep", **{"lambda": lam, **overrides}))


def ones_sampler(t):
    """The sampler of an uncoupled bath: r = 1 at every time."""
    return np.ones_like(t, dtype=complex)
