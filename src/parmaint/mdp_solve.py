"""Average-cost solving and exact evaluation of maintenance policies.

The failure-penalized control problem (operational cost rate plus
``penalty`` times the failure indicator) is solved by multichain policy
iteration on the transition rates (Howard's method with the gain and
bias improvement steps of Puterman, *Markov Decision Processes*, 1994,
ch. 9), which stops when no state has a strictly improving action: that
is the certificate of optimality.  A policy is evaluated exactly on the
sparse chain it induces on post-decision states: one sparse LU of the
balance equations, one diagonal block per recurrent class, gives the
stationary laws and, transposed, the biases; one of the transient
states gives their absorption-weighted gains and biases.  So policies
whose chain has transient states or several recurrent classes are
handled too (direct sparse methods as in Stewart, *Introduction to the
Numerical Solution of Markov Chains*, 1994).  The solve evaluates each
policy for the operational cost and the failure indicator at once, so
it returns the certified policy's exact pair ``(g_o, g_f)`` with no
second evaluation; ``evaluate_policy`` serves policies no solve
produced and other starting states.
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

DEFAULT_MAX_ITERATIONS = 1000  # policies evaluated before a solve is flagged
IMPROVE_RTOL = 1e-12  # margin an action must beat the current one by, relative


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


@dataclass
class SolveResult:
    policy: MaintenancePolicy
    gain: float  # exactly evaluated penalized gain from state 0
    pair: GainPair  # the policy's exact (g_o, g_f) from state 0
    iterations: int  # policies evaluated
    converged: bool  # no state has a strictly improving action
    gains: np.ndarray  # penalized gain of the policy from each state
    bias: np.ndarray  # bias of each state, 0 at each recurrent class's first node


def solve_average_cost(
    model: CtmdpModel,
    penalty: float,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    initial_policy: MaintenancePolicy | None = None,
) -> SolveResult:
    """Optimal average cost of the failure-penalized problem.

    Multichain policy iteration on the transition rates: each policy is
    evaluated exactly (gain and bias of every state), then improved
    first on the gain test and, where that finds nothing, on the bias
    test among the gain-optimal actions, keeping the current action
    unless another beats it by a relative ``IMPROVE_RTOL``.  The solve
    converges when no state has an improving action, which certifies
    the returned policy optimal from every starting state; after
    ``max_iterations`` evaluated policies it stops with the last one
    unconverged.  Each policy's chain is solved once for the two cost
    columns (operational cost rate and failure indicator), and the
    penalized gains and biases are their combinations, so the result
    also carries the returned policy's exact pair ``(g_o, g_f)`` from
    state 0, with ``gain == pair.scalarized(penalty)``.  The start is the never-repair policy unless
    ``initial_policy`` (a policy of the same model, such as the optimum
    at a nearby penalty) is given.  The penalty must be finite and
    non-negative: a negative one would reward failure.
    """
    if not (math.isfinite(penalty) and penalty >= 0.0):
        raise ValueError(f"penalty must be finite and non-negative, got {penalty}")
    if model.n_states == 0:
        raise ValueError("model has no states")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {max_iterations}")
    if initial_policy is None:
        choice = np.zeros(model.n_states, dtype=np.int64)
    elif initial_policy.model is not model:
        raise ValueError("initial_policy belongs to another model")
    else:
        choice = initial_policy.choice
    costs = np.column_stack([model.cost_op, model.cost_fail])
    cost = model.cost_op + penalty * model.cost_fail
    for step in range(1, max_iterations + 1):
        policy = MaintenancePolicy(model, choice)
        # the gains and biases of the two cost columns; the penalized
        # ones follow by linearity
        node_gain, node_bias = _chain_gains(
            *_policy_arcs(model, policy.post_ids), costs, with_bias=True
        )
        pairs = node_gain[policy.post_ids]
        gains = pairs[:, 0] + penalty * pairs[:, 1]
        bias = node_bias[policy.post_ids, 0] + penalty * node_bias[policy.post_ids, 1]
        choice = _improve(model, cost, policy.choice, gains, bias)
        if choice is None:
            break
    pair = GainPair(float(pairs[0, 0]), float(pairs[0, 1]))
    return SolveResult(
        policy=policy,
        gain=pair.scalarized(penalty),
        pair=pair,
        iterations=step,
        converged=choice is None,
        gains=gains,
        bias=bias,
    )


def _improve(model: CtmdpModel, cost, choice, gains, bias):
    """An improving choice vector for the policy with these gains and
    biases, or None when no state has an improving action.

    Per state and action, with u the action's post-state, the gain test
    is ``sum_t rate(u->t) gains_t - out_u gains_s`` and the bias test
    ``cost_u + sum_t rate(u->t) bias_t - out_u bias_s``; the bias test
    runs only where no gain test improves, among the actions tying the
    current one on the gain test (Puterman 1994, sec. 9.2).
    """
    n = model.n_states
    counts = np.diff(model.act_offsets)
    aoff = model.act_offsets[:-1]
    posts = model.act_posts
    cur = aoff + choice
    out = model.outflow[posts]
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(model.trn_offsets))

    def terms(values):
        # per (state, action): sum_t rate(u->t) values_t and out_u values_s
        flow = np.bincount(src, weights=model.trn_rates * values[model.trn_targets], minlength=n)
        return flow[posts], out * np.repeat(values, counts)

    # costs, hence gains, are non-negative: the terms' magnitudes add up
    # to this scale
    flow, stay = terms(gains)
    test = flow - stay
    scale = flow + stay
    better = _switch(test, scale, cur, aoff, counts)
    if better is not None:
        return better

    tied = np.abs(test - np.repeat(test[cur], counts)) <= IMPROVE_RTOL * (
        scale + np.repeat(scale[cur], counts)
    )
    flow, stay = terms(bias)
    test = np.where(tied, cost[posts] + flow - stay, np.inf)
    flow, stay = terms(np.abs(bias))
    return _switch(test, cost[posts] + flow + stay, cur, aoff, counts)


def _switch(test, scale, cur, aoff, counts):
    """Choice vector taking, per state, the first action minimizing
    ``test`` where it beats the current action ``cur`` by more than
    ``IMPROVE_RTOL`` times their summed scales; None when no state moves.
    """
    best = np.minimum.reduceat(test, aoff)
    pos = np.arange(test.shape[0], dtype=np.int64)
    hit = np.where(test == np.repeat(best, counts), pos, np.iinfo(np.int64).max)
    first = np.minimum.reduceat(hit, aoff)
    moves = best < test[cur] - IMPROVE_RTOL * (scale[first] + scale[cur])
    if not moves.any():
        return None
    return np.where(moves, first, cur) - aoff


def _compressed(fmt, size, major, minor, values):
    """A size x size scipy matrix of format ``fmt`` (``csr_matrix`` or
    ``csc_matrix``) from its entries, built by a stable sort on the
    major index (rows for CSR, columns for CSC); duplicate entries are
    kept, and every use here sums them.  The index arrays are 32-bit,
    the width scipy's graph and LU routines work in."""
    order = np.argsort(major, kind="stable")
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(major, minlength=size), out=indptr[1:])
    return fmt((values[order], minor[order].astype(np.int32), indptr), shape=(size, size))


def _m_matrix_lu(diag, rows, cols, rates):
    """Sparse LU of ``diag(diag) - R`` where R holds ``rates`` at (rows, cols).

    The matrices met here are nonsingular, diagonally dominant
    M-matrices, so the LU factorization keeps its diagonal pivots:
    ordering on the symmetrized pattern with pivoting switched off keeps
    the fill low and tiny probabilities at full relative precision.
    Returns None for an empty matrix.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    size = diag.shape[0]
    if size == 0:
        return None
    ids = np.arange(size)
    a = _compressed(
        csc_matrix,
        size,
        np.concatenate([ids, cols]),
        np.concatenate([ids, rows]),
        np.concatenate([diag, -rates]),
    )
    return splu(
        a,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )


def _policy_arcs(model: CtmdpModel, post_ids):
    """The arcs (source, target, rate) of the policy's chain on all
    post-states: every transition target is replaced by the post-state
    the policy moves it to, and self-loops are dropped (they do not
    change a continuous-time chain).  Parallel arcs stay separate."""
    src = np.repeat(np.arange(model.n_states, dtype=np.int64), np.diff(model.trn_offsets))
    dst = post_ids[model.trn_targets]
    keep = src != dst
    return src[keep], dst[keep], model.trn_rates[keep]


def _chain_gains(src, dst, rate, costs, with_bias=False):
    """Gains, and with ``with_bias`` biases, of every node of a chain.

    The chain's arcs run from ``src`` to ``dst`` at ``rate``, with no
    self-loops, and ``costs`` holds one row of cost rates per node and
    one column per objective; both results have the shape of ``costs``.
    The recurrent classes are the strong components that no arc leaves.
    Their balance equations, with the probability of each class's first
    (lowest) node pinned to 1, form one block-diagonal system, one block
    per class; the transpose of the same LU gives the recurrent biases,
    0 at each first node.  Transient nodes mix the class gains by their
    exact absorption probabilities: one more LU, on the transient nodes,
    solved for the gains and then for the biases.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    m = costs.shape[0]
    out = np.bincount(src, weights=rate, minlength=m)
    graph = _compressed(csr_matrix, m, src, dst, rate)
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
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
    lu = _m_matrix_lu(out[free], pos[dst[coupled]], pos[src[coupled]], rate[coupled])
    pi = rec.astype(np.float64)
    if lu is not None:
        pi[free] = lu.solve(
            np.bincount(pos[dst[pinned]], weights=rate[pinned], minlength=int(free.sum()))
        )
    mass = np.bincount(labels, weights=pi, minlength=n_comp)
    mass[leaves] = 1.0  # transient components carry no probability
    # per class: the gains and a column of ones for the absorbed mass below
    class_gain = np.column_stack(
        [np.bincount(labels, weights=pi * c, minlength=n_comp) for c in costs.T] + [mass]
    ) / mass[:, None]
    gain = class_gain[labels, :-1]
    bias = np.zeros_like(gain) if with_bias else None
    if with_bias and lu is not None:
        # out_i h_i - sum_{j free} rate(i->j) h_j = cost_i - gain_i for free i
        bias[free] = lu.solve(costs[free] - gain[free], trans="T")
    del lu  # free its fill before the transient factorization
    trans = ~rec
    if not trans.any():
        return gain, bias

    # absorption: out_i x_i - sum_{j transient} rate(i->j) x_j
    #   = sum_{j recurrent} rate(i->j) gain(class of j) for transient i;
    # dividing by the absorbed mass, 1 up to rounding, keeps the gain of
    # a certain absorption exact
    pos = np.cumsum(trans) - 1
    stay = trans[src] & trans[dst]
    absorb = trans[src] & rec[dst]
    lu = _m_matrix_lu(out[trans], pos[src[stay]], pos[dst[stay]], rate[stay])
    rhs = np.zeros((int(trans.sum()), class_gain.shape[1]))
    np.add.at(rhs, pos[src[absorb]], rate[absorb, None] * class_gain[labels[dst[absorb]]])
    x = lu.solve(rhs)
    gain[trans] = x[:, :-1] / x[:, -1:]
    if with_bias:
        # the same rows with the bias equation cost_i - gain_i + sum rate (h_j - h_i) = 0
        rhs = costs[trans] - gain[trans]
        np.add.at(rhs, pos[src[absorb]], rate[absorb, None] * bias[dst[absorb]])
        bias[trans] = lu.solve(rhs)
    return gain, bias


def evaluate_policy(model: CtmdpModel, policy: MaintenancePolicy, initial_state=0) -> GainPair:
    """Exact long-run cost pair of a policy from a given starting state.

    The policy's chain is restricted to the post-states reachable from
    the start (breadth-first, the start first) and solved for their gains
    (see ``_chain_gains``): the start's own class gain when it is
    recurrent, the absorption-weighted mix of the class gains when it is
    transient.  ``initial_state`` is a pre-decision state id in
    ``[0, n)`` or the state's rows.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    n = model.n_states
    start = int(policy.post_ids[model.start_id(initial_state)])
    src, dst, rate = _policy_arcs(model, policy.post_ids)
    graph = _compressed(csr_matrix, n, src, dst, rate)
    nodes = breadth_first_order(graph, start, return_predecessors=False)
    local = np.full(n, -1, dtype=np.int64)
    local[nodes] = np.arange(nodes.shape[0])
    keep = local[src] >= 0  # arcs out of reachable nodes stay reachable
    costs = np.column_stack([model.cost_op[nodes], model.cost_fail[nodes]])
    gain, _ = _chain_gains(local[src[keep]], local[dst[keep]], rate[keep], costs)
    return GainPair(float(gain[0, 0]), float(gain[0, 1]))
