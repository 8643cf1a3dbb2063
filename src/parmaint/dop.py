"""Static sizing under the repair-everything policy.

With every damaged machine repaired immediately, each installed copy is
unavailable with a known probability and the long-run cost pair of a
design has a closed form: a modular repair term, a priority-ordered
usage term, and the all-down probability.  This module evaluates those
forms, cross-checks them against the slot-by-slot probability-chain
values, and solves the two design-only problems exactly on one table
of every feasible design sorted by log failure rate: the
reliability-extreme problem (the table's head) and the
failure-penalized problem under a log-failure-rate cap (a running
minimum over the prefix the cap admits).  The sweep over progressively
tighter caps builds the table once, stopping at ``DESIGN_CEILING``
before a larger space is listed, and produces the static candidate
front from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from parmaint.model import ROW_TOL, STATIC_DELTA, Instance, InstanceError

__all__ = [
    "DESIGN_CEILING",
    "EnumerationError",
    "StaticSolution",
    "dop_objectives",
    "enumerate_feasible_designs",
    "probability_chain_values",
    "solve_fdop",
    "sp1_sweep",
]

EPS_SLACK = 1e-12  # slack when testing the log-failure-rate cap
TIE_TOL = 1e-9  # relative tolerance for recording alternate optima
DESIGN_CEILING = 200_000
EPS_MIN = 0.0  # the sweep's first log-failure-rate cap
DELTA_EPS = -0.1  # cap step; the sweep ends only because it is negative


class EnumerationError(RuntimeError):
    """Design space too large to enumerate; carries a lower bound on its size."""

    def __init__(self, count, ceiling):
        super().__init__(
            f"design space has at least {count} members, above the ceiling of {ceiling}"
        )
        self.count = count
        self.ceiling = ceiling


@dataclass(frozen=True)
class StaticSolution:
    """A design with its closed-form cost pair under full repair."""

    design: tuple
    g_o: float
    ln_g_f: float
    tag: str = "sweep"  # "sweep" | "reliability" | "trivial"
    epsilon: float | None = None  # cap active when this design was found
    objective: float | None = None  # penalized objective value at that cap


def _objective_terms(instance: Instance, x: np.ndarray):
    """Per-design (repair, usage, ln failure) for a (m, n) design array."""
    lnq = instance.ln_q_vector()
    q = instance.q_vector()
    r = instance.repair_costs()
    c = instance.usage_costs()
    lx = x * lnq  # (m, n)
    ln_f = lx.sum(axis=1)
    repair = x @ (r * q)
    # copies of type i only run when every cheaper type is entirely down
    prefix = np.exp(np.cumsum(lx, axis=1) - lx)
    usage = (c * prefix * -np.expm1(lx)).sum(axis=1)
    return repair, usage, ln_f


def dop_objectives(instance: Instance, design) -> tuple:
    """Closed-form (operational cost rate, log failure rate) of a design.

    The failure product is accumulated in log space so deep redundancy
    does not underflow.  ``InstanceError`` names a design with a count
    past int64.
    """
    design = instance.check_design(design)
    if max(design) > np.iinfo(np.int64).max:
        raise InstanceError(f"design {design} has a count past int64")
    x = np.array([design], dtype=np.int64)
    repair, usage, ln_f = _objective_terms(instance, x)
    return float(repair[0] + usage[0]), float(ln_f[0])


def probability_chain_values(instance: Instance, design):
    """Slot-level usage/blocked probabilities for the chain cross-check.

    Slots run over (type, copy) in priority order up to each type's copy
    bound.  y[i][j] is the probability slot j of type i is healthy while
    every earlier slot is down; z[i][j] is the probability that slot and
    every earlier slot are down.  Uninstalled slots pass through.
    """
    x = instance.check_design(design)
    q = instance.q_vector()
    y, z = [], []
    ahead = 1.0  # probability everything before the current slot is down
    for i, bound in enumerate(instance.copy_bounds):
        yi = np.zeros(bound)
        zi = np.zeros(bound)
        for j in range(bound):
            if j < x[i]:
                yi[j] = (1.0 - q[i]) * ahead
                ahead *= q[i]
            zi[j] = ahead
        y.append(yi)
        z.append(zi)
    return y, z


def enumerate_feasible_designs(instance: Instance) -> list:
    """Every design ``Instance.is_feasible`` accepts, in lex order: integer
    0 <= x <= copy bounds with A x <= b.

    The designs are built one type at a time as rows of an array, each
    with the slack its copies leave.  Coefficients are non-negative, so
    the copies of the next type that fit a row are a prefix 0..k-1 of
    0..copy bound, and every row's k is found by one joint bisection.
    The counts only grow as types are added, so a space above
    ``DESIGN_CEILING`` raises ``EnumerationError`` before it is listed;
    no row counts past ``DESIGN_CEILING + 1`` copies, which keeps the
    bisection in int64 whatever the copy bound."""
    a = instance.constraints
    designs = np.zeros((1, 0), dtype=np.int64)
    slack = instance.constraint_bounds[None, :].astype(float)
    for i, cap in enumerate(instance.copy_bounds):
        lo = np.zeros(len(designs), dtype=np.int64)  # copies known to fit: 0..lo-1
        # copies hi and up overshoot a row or the bound; a row held at the
        # ceiling already carries the count past it
        hi = np.full(len(designs), min(cap, DESIGN_CEILING) + 1, dtype=np.int64)
        while np.any(lo < hi):
            mid = (lo + hi) // 2
            over = np.any(slack - mid[:, None] * a[:, i] < -ROW_TOL, axis=1)
            hi = np.where(over, mid, hi)
            lo = np.where(over, lo, np.minimum(mid + 1, hi))  # converged rows stay
        count = int(hi.sum())
        if count > DESIGN_CEILING:
            raise EnumerationError(count, DESIGN_CEILING)
        rows = np.repeat(np.arange(len(designs)), hi)
        copies = np.arange(count) - np.repeat(np.cumsum(hi) - hi, hi)
        designs = np.column_stack((designs[rows], copies))
        slack = slack[rows] - copies[:, None] * a[:, i]
    return list(map(tuple, designs.tolist()))


def _design_table(instance: Instance):
    """Every feasible design with its repair, usage and ln failure, sorted
    by ln failure; the stable sort keeps equal rates in lex order."""
    designs = enumerate_feasible_designs(instance)
    repair, usage, ln_f = _objective_terms(instance, np.array(designs, dtype=np.int64))
    order = np.argsort(ln_f, kind="stable")
    return [designs[i] for i in order], repair[order], usage[order], ln_f[order]


def _most_reliable(table) -> int:
    """Row of the most negative log failure rate; ties go to the smallest design."""
    designs, ln_f = table[0], table[3]
    near = int(np.searchsorted(ln_f, ln_f[0] + 1e-12, "right"))
    return min(range(near), key=designs.__getitem__)


def _row(table, i, **fields) -> StaticSolution:
    designs, repair, usage, ln_f = table
    g_o, ln_g_f = float(repair[i] + usage[i]), float(ln_f[i])
    return StaticSolution(design=designs[i], g_o=g_o, ln_g_f=ln_g_f, **fields)


def solve_fdop(instance: Instance) -> tuple:
    """Design with the most negative log failure rate, exactly.

    One pass over the table of every feasible design; ties go to the
    lexicographically smallest design.
    """
    table = _design_table(instance)
    return table[0][_most_reliable(table)]


def sp1_sweep(instance: Instance, delta: float = STATIC_DELTA, record_ties: bool = False) -> list:
    """Static candidate front by sweeping the log-failure-rate cap.

    Enumerates the feasible designs once into one table sorted by log
    failure rate, then starts at ``EPS_MIN``, takes the optimum over the
    prefix the cap admits (a running minimum; its first row within
    ``TIE_TOL`` is the representative), and tightens the cap to that
    log failure rate plus ``DELTA_EPS`` until the cap passes the
    reliability extreme, which seeds the stop bound and is guaranteed a
    place in the output.  Duplicate designs keep their first appearance.
    With ``record_ties`` every co-optimal design of each solve is
    recorded (listed least-reliable first so the output stays ordered);
    by default only representatives are kept.
    """
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"penalty inflation must be finite and >= 0, got {delta}")
    table = _design_table(instance)
    designs, repair, usage, ln_f = table
    anchor = _most_reliable(table)
    aug = repair + usage + (1.0 + delta) * instance.usage_costs().max() * np.exp(ln_f)
    low = np.minimum.accumulate(aug)  # optimum of each prefix
    neg_low = -low  # ascending, for bisection
    empty = (0,) * instance.n_types
    results: list[StaticSolution] = []
    seen = set()

    def record(i, **fields):
        if designs[i] not in seen:
            seen.add(designs[i])
            results.append(_row(table, i, **fields))

    eps = float(EPS_MIN)
    while eps >= ln_f[anchor] - EPS_SLACK:
        k = int(np.searchsorted(ln_f, eps + EPS_SLACK, "right"))  # rows the cap admits
        limit = low[k - 1] + TIE_TOL * max(1.0, abs(low[k - 1]))
        first = int(np.searchsorted(neg_low, -limit))
        tied = first + np.flatnonzero(aug[first:k] <= limit) if record_ties else [first]
        for i in reversed(tied):
            tag = "trivial" if designs[i] == empty else "sweep"
            record(i, tag=tag, epsilon=eps, objective=float(aug[i]))
        eps = float(ln_f[first]) + DELTA_EPS

    record(anchor, tag="reliability")
    if empty not in seen:
        results.insert(0, _row(table, designs.index(empty), tag="trivial"))
    return results
