"""Average-cost solving and exact evaluation of maintenance policies.

The failure-penalized control problem (operational cost rate plus
``penalty`` times the failure indicator) is solved by multichain policy
iteration on the transition rates (Howard's method with the gain and
bias improvement steps of Puterman, *Markov Decision Processes*, 1994,
ch. 9), which stops when no state has a strictly improving action: that
is the certificate of optimality.  A policy is evaluated exactly on the
chain it induces on post-decision states, by one LU over every node but
each recurrent class's first: it gives the stationary laws, the
transient states' absorption-weighted gains and every bias.  So
policies whose chain has transient states or several recurrent classes
are handled too (direct methods as in Stewart, *Introduction to the
Numerical Solution of Markov Chains*, 1994, ch. 2).  Chains and blocks
of up to ``DENSE_NODES`` nodes (see its comment for the measured
trade-off) are solved dense; larger ones sparse, and only they import
scipy.  Both factorizations keep the diagonal pivots of these
diagonally dominant M-matrices and exchange no rows (see
``_m_matrix_lu``).  The solve evaluates each policy for the operational
cost and the failure indicator at once, so it returns the certified
policy's exact pair ``(g_o, g_f)`` with no second evaluation;
``evaluate_policy`` solves the same chain for policies no solve
produced and other starting states.  Both solve it on the post-states
the policy uses, the only ones its moves reach.
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

MAX_ITERATIONS = 1000  # policies evaluated before a solve is flagged
IMPROVE_RTOL = 1e-12  # margin an action must beat the current one by, relative
# chains and blocks of up to this many nodes are solved dense: per call that
# wins below 90 nodes and is at most 0.15 ms slower up to 100, while a
# command whose chains all fit never imports scipy (0.3 s)
DENSE_NODES = 100


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
    initial_policy: MaintenancePolicy | None = None,
) -> SolveResult:
    """Optimal average cost of the failure-penalized problem.

    Multichain policy iteration on the transition rates: each policy is
    evaluated exactly (gain and bias of every state), then improved
    first on the gain test and, where that finds nothing, on the bias
    test among the gain-optimal actions, keeping the current action
    unless another beats it by a relative ``IMPROVE_RTOL``.  The solve
    converges when no state has an improving action, which certifies
    the returned policy optimal from every starting state.  It stops
    unconverged when an improvement step returns to a policy it has
    already evaluated (a cycle), with the evaluated policy of least gain
    from state 0, or with the last one after ``MAX_ITERATIONS`` evaluated
    policies.  Each policy's chain is solved once for the two cost
    columns (operational cost rate and failure indicator), and the
    penalized gains and biases are their combinations, so the result
    also carries the returned policy's exact pair ``(g_o, g_f)`` from
    state 0, with ``gain == pair.scalarized(penalty)``.  The start is the never-repair policy unless
    ``initial_policy`` (a policy of the same model, such as the optimum
    at a nearby penalty) is given.  The penalty must be finite and
    non-negative: a negative one would reward failure.  One so large
    that the improvement tests overflow raises ``ValueError`` too.
    """
    if not (math.isfinite(penalty) and penalty >= 0.0):
        raise ValueError(f"penalty must be finite and non-negative, got {penalty}")
    if model.n_states == 0:
        raise ValueError("model has no states")
    if initial_policy is None:
        choice = np.zeros(model.n_states, dtype=np.int64)
    elif initial_policy.model is not model:
        raise ValueError("initial_policy belongs to another model")
    else:
        choice = initial_policy.choice
    seen = set()  # choice vectors evaluated so far
    best = None  # policy, pairs, gains and biases of the least gain from state 0
    for step in range(1, MAX_ITERATIONS + 1):
        policy = MaintenancePolicy(model, choice)
        seen.add(policy.choice.tobytes())
        # the gains and biases of the two cost columns; the penalized
        # ones follow by linearity
        pairs, pair_bias = _policy_gains(model, policy.post_ids)
        with np.errstate(over="ignore", invalid="ignore"):  # _switch rejects overflow
            gains = pairs[:, 0] + penalty * pairs[:, 1]
            bias = pair_bias[:, 0] + penalty * pair_bias[:, 1]
            choice = _improve(model, penalty, policy.choice, gains, bias)
        if best is None or gains[0] < best[2][0]:
            best = policy, pairs, gains, bias
        if choice is None:
            break
        if choice.tobytes() in seen:
            # a cycle: rounding in the biases makes each policy of it look
            # improvable by the next
            policy, pairs, gains, bias = best
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


def _improve(model: CtmdpModel, penalty, choice, gains, bias):
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
    better = _switch(test, scale, cur, aoff, counts, penalty)
    if better is not None:
        return better

    tied = np.abs(test - np.repeat(test[cur], counts)) <= IMPROVE_RTOL * (
        scale + np.repeat(scale[cur], counts)
    )
    cost = (model.cost_op + penalty * model.cost_fail)[posts]
    flow, stay = terms(bias)
    test = np.where(tied, cost + flow - stay, np.inf)
    flow, stay = terms(np.abs(bias))
    return _switch(test, cost + flow + stay, cur, aoff, counts, penalty)


def _switch(test, scale, cur, aoff, counts, penalty):
    """Choice vector taking, per state, the first action minimizing
    ``test`` where it beats the current action ``cur`` by more than
    ``IMPROVE_RTOL`` times their summed scales; None when no state moves.
    The scales bound the tests' magnitudes, so where one overflows a test
    may be NaN and no action can be certified: that raises ``ValueError``.
    """
    if not np.isfinite(scale).all():
        raise ValueError(f"penalty {penalty} overflows the policy-improvement tests")
    best = np.minimum.reduceat(test, aoff)
    pos = np.arange(test.shape[0], dtype=np.int64)
    hit = np.where(test == np.repeat(best, counts), pos, np.iinfo(np.int64).max)
    first = np.minimum.reduceat(hit, aoff)
    moves = best < test[cur] - IMPROVE_RTOL * (scale[first] + scale[cur])
    if not moves.any():
        return None
    return np.where(moves, first, cur) - aoff


def _strong_components(m, src, dst, rate):
    """(count, labels) of the strong components of the m-node chain
    with arcs ``src`` -> ``dst`` at ``rate``, as scipy's
    ``connected_components`` gives them: labels in ``[0, count)`` that
    group the nodes into the same components.

    Up to ``DENSE_NODES`` nodes the reach matrix is closed by repeated
    squaring (a path of length at most 2^k after k squarings), and two
    nodes share a component when each reaches the other; components are
    numbered by their lowest node.
    """
    if m <= DENSE_NODES:
        reach = np.eye(m)
        reach[src, dst] = 1.0
        while True:
            closed = (reach @ reach > 0.0).astype(np.float64)
            if np.array_equal(closed, reach):
                break
            reach = closed
        lowest = np.argmax((reach > 0.0) & (reach.T > 0.0), axis=1)
        heads, labels = np.unique(lowest, return_inverse=True)
        return heads.shape[0], labels
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    # the constructor sums duplicate arcs; on a duplicate scipy's search never returns
    graph = csr_matrix((rate, (src, dst)), shape=(m, m))
    return connected_components(graph, directed=True, connection="strong")


def _m_matrix_lu(out, src, dst, rates):
    """Solver of the transpose of the M-matrix ``M = diag(out) - R``,
    where R sums ``rates`` at (src, dst): row i of M holds node i's total
    outflow ``out[i]`` and the arcs leaving it within the block.  The
    solver is called as ``solve(b, trans=...)``, like the ``solve`` of
    scipy's ``splu``: ``solve(b)`` solves ``M^T x = b`` and
    ``solve(b, trans="T")`` solves ``M x = b``.

    M is a nonsingular, diagonally dominant M-matrix, and both paths keep
    the diagonal pivots of its column-dominant transpose: elimination
    then needs no row exchanges, so no rounding can promote an
    off-diagonal entry to a pivot, and tiny probabilities keep full
    relative precision.  Up to ``DENSE_NODES`` nodes, LAPACK inverts
    ``M^T``, where partial pivoting keeps every diagonal pivot (it takes
    the first entry of largest magnitude), and the one inverse,
    nonnegative as every M-matrix inverse is, serves both ``trans``.
    Larger matrices take a sparse LU with pivoting switched off, ordered
    on the symmetrized pattern to keep the fill low.
    """
    size = out.shape[0]
    if size <= DENSE_NODES:
        a = np.diag(out)
        np.subtract.at(a, (dst, src), rates)
        inverse = np.linalg.inv(a)

        def solve(b, trans="N"):
            # + 0.0 turns the -0.0 a zero right-hand side can give into 0.0
            return (inverse.T if trans == "T" else inverse) @ b + 0.0

        return solve
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    ids = np.arange(size)
    rows, cols = np.concatenate([ids, dst]), np.concatenate([ids, src])
    a = csc_matrix((np.concatenate([out, -rates]), (rows, cols)), shape=(size, size))
    try:
        lu = splu(
            a,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:  # SuperLU's report of a zero pivot
        raise ValueError(f"sparse LU of a {size}-node block failed: {exc}") from exc
    return lu.solve


def _policy_gains(model: CtmdpModel, post_ids):
    """Gains and biases, one row per state and one column per cost
    (operational cost rate, failure indicator), of the policy moving each
    state to its post-state in ``post_ids``.

    The chain is solved (see ``_chain_gains``) on the post-states the
    policy uses, numbered in order: every arc, its target replaced by the
    post-state the policy moves it to, lands among them, and each
    recurrent class keeps its first node, where its biases are 0.
    Self-loops are dropped; they do not change a continuous-time chain.
    """
    used = np.zeros(model.n_states, dtype=bool)
    used[post_ids] = True
    local = np.cumsum(used) - 1
    src = np.repeat(np.arange(model.n_states, dtype=np.int64), np.diff(model.trn_offsets))
    dst = post_ids[model.trn_targets]
    keep = used[src] & (src != dst)
    costs = np.column_stack([model.cost_op, model.cost_fail])[used]
    gain, bias = _chain_gains(local[src[keep]], local[dst[keep]], model.trn_rates[keep], costs)
    return gain[local[post_ids]], bias[local[post_ids]]


def _chain_gains(src, dst, rate, costs):
    """Gains and biases of every node of a chain.

    The chain's arcs run from ``src`` to ``dst`` at ``rate``, with no
    self-loops, and ``costs`` holds one row of cost rates per node and
    one column per objective; both results have the shape of ``costs``.
    The recurrent classes are the strong components that no arc leaves;
    each one's first (lowest) node is pinned, and every other node is
    free.  On the free nodes, ``M = diag(out) - R`` is block triangular,
    as no arc leaves a recurrent class, and its elimination keeps the
    zero block, so one LU serves three systems.  ``M^T`` gives the
    balance equations, with the probability of each first node pinned to
    1, and so the recurrent stationary laws; ``M`` gives the transient
    nodes' absorption-weighted mix of the class gains, and then every
    free node's bias, 0 at each first node.
    """
    m = costs.shape[0]
    out = np.bincount(src, weights=rate, minlength=m)
    n_comp, labels = _strong_components(m, src, dst, rate)
    leaves = np.zeros(n_comp, dtype=bool)
    leaves[labels[src[labels[src] != labels[dst]]]] = True
    rec = ~leaves[labels]
    _, first = np.unique(labels, return_index=True)
    free = np.ones(m, dtype=bool)
    free[first[~leaves]] = False
    size = int(free.sum())
    pos = np.cumsum(free) - 1
    coupled = free[src] & free[dst]
    pinned = ~free[src]  # arcs out of a first node, all into its class
    solve = _m_matrix_lu(out[free], pos[src[coupled]], pos[dst[coupled]], rate[coupled])

    # balance: out_j pi_j - sum_{i free} rate(i->j) pi_i = rate(first->j)
    # for every free node j, with pi = 1 at first; 0 on transient j
    pi = rec.astype(np.float64)
    pi[free] = solve(np.bincount(pos[dst[pinned]], weights=rate[pinned], minlength=size))
    mass = np.bincount(labels, weights=pi, minlength=n_comp)
    mass[leaves] = 1.0  # transient components carry no probability
    # per class: the gains and a column of ones for the absorbed mass below
    class_gain = np.column_stack(
        [np.bincount(labels, weights=pi * c, minlength=n_comp) for c in costs.T] + [mass]
    ) / mass[:, None]
    gain = class_gain[labels, :-1]
    transient = ~rec
    if transient.any():
        # absorption: out_i x_i - sum_{j free} rate(i->j) x_j
        #   = sum_{j recurrent} rate(i->j) gain(class of j) for transient i,
        # and 0 for recurrent i, whose x is then 0; dividing by the
        # absorbed mass, 1 up to rounding, keeps the gain of a certain
        # absorption exact
        absorb = transient[src] & rec[dst]
        rhs = np.zeros((size, class_gain.shape[1]))
        np.add.at(rhs, pos[src[absorb]], rate[absorb, None] * class_gain[labels[dst[absorb]]])
        x = solve(rhs, trans="T")[transient[free]]
        lost = int((x[:, -1] == 0.0).sum())
        if lost:
            raise ValueError(
                f"absorption in a {m}-node chain lost its mass: {lost} of "
                f"{x.shape[0]} transient nodes are absorbed with mass 0"
            )
        gain[transient] = x[:, :-1] / x[:, -1:]
    # out_i h_i - sum_{j free} rate(i->j) h_j = cost_i - gain_i for free i
    bias = np.zeros_like(gain)
    bias[free] = solve(costs[free] - gain[free], trans="T")
    return gain, bias


def evaluate_policy(model: CtmdpModel, policy: MaintenancePolicy, initial_state=0) -> GainPair:
    """Exact long-run cost pair of a policy from a given starting state.

    The policy's chain is solved for its gains, as each policy-iteration
    step solves it (see ``_policy_gains``), and the start's post-state
    gives the pair: its own class gain when it is recurrent, the
    absorption-weighted mix of the class gains when it is transient.
    ``initial_state`` is a pre-decision state id in ``[0, n)`` or the
    state's rows.  A policy of another model raises ``ValueError``.
    """
    if policy.model is not model:
        raise ValueError("policy belongs to another model")
    gain, _ = _policy_gains(model, policy.post_ids)
    start = model.start_id(initial_state)
    return GainPair(float(gain[start, 0]), float(gain[start, 1]))
