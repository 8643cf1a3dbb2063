"""Average-cost solving and exact evaluation of maintenance policies.

The failure-penalized control problem (operational cost rate plus
``penalty`` times the failure indicator) is solved by uniformization and
relative value iteration.  Policies are evaluated exactly on the sparse
chain they induce on post-decision states: a sparse LU of the balance
equations, one diagonal block per recurrent class, and one of the
absorption equations when the start is transient, so policies whose
chain has transient states or several recurrent classes are handled too
(direct sparse methods as in Stewart, *Introduction to the Numerical
Solution of Markov Chains*, 1994).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from parmaint.ctmdp import CtmdpModel

__all__ = [
    "GainPair",
    "MaintenancePolicy",
    "SolveResult",
    "solve_average_cost",
    "evaluate_policy",
    "fully_active_policy",
]

LN_GF_FLOOR = 1e-300  # below this, report log failure rate as -inf

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 10**6
LAMBDA_SLACK = 1.05  # uniformization constant = slack * max outflow


@dataclass(frozen=True)
class GainPair:
    """Long-run (operational cost rate, failure rate) of a policy."""

    g_o: float
    g_f: float

    @property
    def ln_g_f(self) -> float:
        if self.g_f < LN_GF_FLOOR:
            return -math.inf
        return math.log(self.g_f)

    def scalarized(self, penalty: float) -> float:
        return self.g_o + penalty * self.g_f


class MaintenancePolicy:
    """Stationary deterministic policy: one repair action per state.

    Stored as the index of the chosen action within each state's
    lexicographic action list, with the induced post-decision state ids
    alongside.
    """

    def __init__(self, model: CtmdpModel, choice):
        choice = np.asarray(choice, dtype=np.int64)
        if choice.shape != (model.n_states,):
            raise ValueError(
                f"need one action index per state, got shape {choice.shape}"
            )
        counts = np.diff(model.act_offsets)
        if np.any(choice < 0) or np.any(choice >= counts):
            raise ValueError("action index outside the state's action list")
        self.model = model
        self.choice = choice
        self.post_ids = model.act_posts[model.act_offsets[:-1] + choice]

    def action_vector(self, sid: int):
        return self.model.action_vector(sid, int(self.post_ids[sid]))

    def __eq__(self, other):
        return (
            isinstance(other, MaintenancePolicy)
            and other.model is self.model
            and np.array_equal(other.choice, self.choice)
        )


def fully_active_policy(model: CtmdpModel) -> MaintenancePolicy:
    """Repair everything immediately: the last (largest) action everywhere."""
    counts = np.diff(model.act_offsets)
    return MaintenancePolicy(model, counts - 1)


def _uniformized_arrays(model: CtmdpModel, penalty: float):
    """Pre-scaled arrays for the value-iteration kernels."""
    lam = LAMBDA_SLACK * model.max_outflow
    if lam <= 0.0:
        lam = 1.0  # no events anywhere; any positive constant works
    cost = model.cost_op + penalty * model.cost_fail.astype(np.float64)
    n = model.n_states
    arrays = (
        model.act_offsets,
        model.act_posts,
        np.repeat(np.arange(n, dtype=np.int64), np.diff(model.act_offsets)),
        model.trn_offsets,
        np.repeat(np.arange(n, dtype=np.int64), np.diff(model.trn_offsets)),
        model.trn_targets,
        model.trn_rates / lam,
        1.0 - model.outflow / lam,
        cost / lam,
    )
    return arrays, lam


# Relative value iteration kernels.
#
# Pre-decision values v are updated via the uniformized one-step operator
#   (Tv)(s) = min_u [ cost[u]/L + sum_t (rate/L) v(t) + (1 - out[u]/L) v(s) ]
# over the state's post-decision options u, normalized at state 0 each
# sweep.  The per-sweep difference bracket [dmin, dmax] times
# the uniformization constant brackets the optimal gain.  Convergence is
# on the span of the difference, relative to the per-step gain magnitude
# so that huge failure penalties do not stall the loop at float
# resolution.  Both kernels take the array tuple of _uniformized_arrays.


def _rvi_sweeps(
    act_off,
    act_posts,
    pair_pre,
    trn_off,
    trn_src,
    trn_tgt,
    rate_scaled,
    self_keep,
    cost_scaled,
    v,
    tol,
    max_iter,
):
    """Run value-iteration sweeps in place; returns (iters, span, dmin, dmax)."""
    # bincount accumulates sequentially in storage order, so each post
    # value sums its arcs in CSR order like a plain loop would
    n = v.shape[0]
    aoff = act_off[:-1]
    iters = 0
    span = math.inf
    dmin = dmax = 0.0
    while iters < max_iter:
        iters += 1
        contrib = np.bincount(trn_src, weights=rate_scaled * v[trn_tgt], minlength=n)
        post_val = cost_scaled + contrib
        vals = post_val[act_posts] + self_keep[act_posts] * v[pair_pre]
        new_v = np.minimum.reduceat(vals, aoff)
        delta = new_v - v
        dmin = float(delta.min())
        dmax = float(delta.max())
        span = dmax - dmin
        v[:] = new_v - new_v[0]
        if span < tol * max(1.0, abs(0.5 * (dmin + dmax))):
            break
    return iters, span, dmin, dmax


def _greedy_choice(
    act_off,
    act_posts,
    pair_pre,
    trn_off,
    trn_src,
    trn_tgt,
    rate_scaled,
    self_keep,
    cost_scaled,
    v,
):
    """Index of the minimizing action per state (first on ties)."""
    n = v.shape[0]
    contrib = np.bincount(trn_src, weights=rate_scaled * v[trn_tgt], minlength=n)
    post_val = cost_scaled + contrib
    vals = post_val[act_posts] + self_keep[act_posts] * v[pair_pre]
    aoff = act_off[:-1]
    best = np.minimum.reduceat(vals, aoff)
    # first position attaining the minimum: ties pick the smallest action
    # vector because action lists are stored in lexicographic order
    pos = np.arange(vals.shape[0], dtype=np.int64)
    hit = np.where(vals == np.repeat(best, np.diff(act_off)), pos, np.iinfo(np.int64).max)
    first = np.minimum.reduceat(hit, aoff)
    return (first - aoff).astype(np.int64)


@dataclass
class SolveResult:
    policy: MaintenancePolicy
    gain: float  # midpoint of the certified bracket, per unit time
    gain_bounds: tuple
    iterations: int
    converged: bool
    span: float
    uniformization: float
    values: np.ndarray  # relative values of pre-decision states
    floor_limited: bool = False  # stopped at the float roundoff floor


ITERATION_CHUNK = 20_000
FLOOR_FACTOR = 16.0  # spans below FLOOR_FACTOR*eps*max|v| count as roundoff
STALL_RATIO = 0.99  # chunk-over-chunk span shrink below 1% means stalled


def _iterate_until_settled(arrays, v, tolerance, max_iterations):
    """Run value-iteration sweeps until the span test or the float floor.

    Huge penalties push relative values to magnitudes where the span of
    successive differences bottoms out at roundoff; when a whole chunk
    of sweeps no longer shrinks a span already at that scale, the
    bracket is as tight as doubles allow and we stop with it.
    """
    total = 0
    prev_span = math.inf
    while True:
        chunk = min(ITERATION_CHUNK, max_iterations - total)
        iters, span, dmin, dmax = _rvi_sweeps(*arrays, v, tolerance, chunk)
        total += iters
        mid = 0.5 * (dmin + dmax)
        if iters < chunk:  # kernel met the span test
            return total, span, dmin, dmax, True, False
        if total >= max_iterations:
            return total, span, dmin, dmax, False, False
        floor = FLOOR_FACTOR * np.finfo(float).eps * max(1.0, float(np.abs(v).max()))
        if span <= floor and span > STALL_RATIO * prev_span:
            return total, span, dmin, dmax, True, True
        prev_span = span


def solve_average_cost(
    model: CtmdpModel,
    penalty: float,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    v_init=None,
) -> SolveResult:
    """Optimal average cost of the failure-penalized problem.

    Relative value iteration on the uniformized chain, reference state 0,
    until the span of successive value differences drops under
    ``tolerance`` (relative to the per-step gain when that is large).
    The returned gain is the midpoint of the one-step difference bracket
    scaled back to unit time; greedy ties pick the lexicographically
    smallest action.  The penalty must be finite and non-negative: a
    negative one would reward failure.
    """
    if not (math.isfinite(penalty) and penalty >= 0.0):
        raise ValueError(f"penalty must be finite and non-negative, got {penalty}")
    if model.n_states == 0:
        raise ValueError("model has no states")
    arrays, lam = _uniformized_arrays(model, penalty)
    if v_init is None:
        v = np.zeros(model.n_states)
    else:
        v = np.array(v_init, dtype=np.float64, copy=True)
        if v.shape != (model.n_states,):
            raise ValueError("v_init has the wrong length")
    iters, span, dmin, dmax, converged, floored = _iterate_until_settled(
        arrays, v, tolerance, max_iterations
    )
    choice = _greedy_choice(*arrays, v)
    policy = MaintenancePolicy(model, choice)
    return SolveResult(
        policy=policy,
        gain=lam * 0.5 * (dmin + dmax),
        gain_bounds=(lam * dmin, lam * dmax),
        iterations=int(iters),
        converged=bool(converged),
        span=float(span),
        uniformization=lam,
        values=v,
        floor_limited=bool(floored),
    )


def _solve_m_matrix(diag, rows, cols, rates, rhs):
    """Solve ``(diag(diag) - R) x = rhs`` where R holds ``rates`` at (rows, cols).

    The matrices met here are nonsingular, diagonally dominant
    M-matrices, so the LU factorization keeps its diagonal pivots:
    ordering on the symmetrized pattern with pivoting switched off keeps
    the fill low and tiny probabilities at full relative precision.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    size = diag.shape[0]
    if size == 0:
        return rhs
    diag_ids = np.arange(size)
    a = csc_matrix(
        (
            np.concatenate([diag, -rates]),
            (np.concatenate([diag_ids, rows]), np.concatenate([diag_ids, cols])),
        ),
        shape=(size, size),
    )
    lu = splu(
        a,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    return lu.solve(rhs)


def _reachable_chain(model: CtmdpModel, post_ids, start: int):
    """The policy's chain on the post-states reachable from ``start``.

    Every transition target is replaced by the post-state the policy
    moves it to.  Returns the reachable post-state ids in breadth-first
    order, the start first, and the CSR matrix of rates between their
    positions, with self-loops dropped (they do not change a
    continuous-time chain) and parallel arcs summed.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    n = model.n_states
    dst = post_ids[model.trn_targets]
    graph = csr_matrix((model.trn_rates, dst, model.trn_offsets), shape=(n, n))
    nodes = breadth_first_order(graph, start, return_predecessors=False)
    m = nodes.shape[0]
    local = np.full(n, -1, dtype=np.int64)
    local[nodes] = np.arange(m)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(model.trn_offsets))
    keep = (local[src] >= 0) & (src != dst)
    chain = csr_matrix(
        (model.trn_rates[keep], (local[src[keep]], local[dst[keep]])), shape=(m, m)
    )
    return nodes, chain


def evaluate_policy(model: CtmdpModel, policy: MaintenancePolicy, initial_state=0) -> GainPair:
    """Exact long-run cost pair of a policy from a given starting state.

    On the policy's chain over the post-states reachable from the start,
    the recurrent classes are the strong components that no arc leaves.
    Their balance equations, with the probability of each class's first
    node pinned to 1, form one block-diagonal sparse system, one block
    per class.  A start outside the recurrent classes mixes the class
    gains by the exact absorption probabilities: one more sparse solve,
    on the transient states.  ``initial_state`` is a pre-decision state
    id in ``[0, n)`` or the state's rows.
    """
    from scipy.sparse.csgraph import connected_components

    start = int(policy.post_ids[model.start_id(initial_state)])
    nodes, chain = _reachable_chain(model, policy.post_ids, start)
    m = nodes.shape[0]
    src = np.repeat(np.arange(m, dtype=np.int64), np.diff(chain.indptr))
    dst, rate = chain.indices.astype(np.int64), chain.data
    out = np.bincount(src, weights=rate, minlength=m)

    n_comp, labels = connected_components(chain, directed=True, connection="strong")
    leaves = np.zeros(n_comp, dtype=bool)
    leaves[labels[src[labels[src] != labels[dst]]]] = True
    rec = ~leaves[labels]

    # balance: out_j pi_j - sum_{i free} rate(i->j) pi_i = rate(first->j)
    # for every free (recurrent, not first) node j, with pi = 1 at first
    _, first = np.unique(labels, return_index=True)
    free = rec.copy()
    free[first[~leaves]] = False
    pos = np.cumsum(free) - 1
    into = rec[src] & free[dst]
    coupled = into & free[src]
    pinned = into & ~free[src]
    rhs = np.bincount(pos[dst[pinned]], weights=rate[pinned], minlength=int(free.sum()))
    pi = rec.astype(np.float64)
    pi[free] = _solve_m_matrix(
        out[free], pos[dst[coupled]], pos[src[coupled]], rate[coupled], rhs
    )
    mass = np.bincount(labels, weights=pi, minlength=n_comp)
    mass[leaves] = 1.0  # transient components carry no probability
    # per class: g_o, g_f and a column of ones for the absorbed mass below
    class_gain = np.column_stack(
        [
            np.bincount(labels, weights=pi * model.cost_op[nodes], minlength=n_comp),
            np.bincount(labels, weights=pi * model.cost_fail[nodes], minlength=n_comp),
            mass,
        ]
    ) / mass[:, None]
    if rec[0]:
        return GainPair(float(class_gain[labels[0], 0]), float(class_gain[labels[0], 1]))

    # absorption: out_i h_i - sum_{j transient} rate(i->j) h_j
    #   = sum_{j recurrent} rate(i->j) g(class of j) for transient i;
    # dividing by the absorbed mass, 1 up to rounding, keeps the gain of
    # a certain absorption exact
    trans = ~rec
    pos = np.cumsum(trans) - 1
    stay = trans[src] & trans[dst]
    absorb = trans[src] & rec[dst]
    rhs = np.zeros((int(trans.sum()), 3))
    np.add.at(rhs, pos[src[absorb]], rate[absorb, None] * class_gain[labels[dst[absorb]]])
    h = _solve_m_matrix(out[trans], pos[src[stay]], pos[dst[stay]], rate[stay], rhs)
    return GainPair(float(h[0, 0] / h[0, 2]), float(h[0, 1] / h[0, 2]))
