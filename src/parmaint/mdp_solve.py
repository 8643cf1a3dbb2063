"""Average-cost solving and exact evaluation of maintenance policies.

The failure-penalized control problem (operational cost rate plus
``penalty`` times the failure indicator) is solved by uniformization and
relative value iteration.  Policies are evaluated exactly by solving the
balance equations of the closed chain they induce on post-decision
states, which also handles policies whose chain has transient states or,
from unlucky starting points, several recurrent classes.
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
    "policy_gain_by_iteration",
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


def policy_gain_by_iteration(
    model: CtmdpModel,
    policy: MaintenancePolicy,
    penalty: float,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
):
    """Gain of a fixed policy via the same value-iteration machinery.

    Restricts each state's action list to the policy's choice and runs
    the sweeps; useful as an independent check against the balance-
    equation evaluation for unichain policies.
    """
    arrays, lam = _uniformized_arrays(model, penalty)
    n = model.n_states
    restricted = (
        np.arange(n + 1, dtype=np.int64),
        policy.post_ids,
        np.arange(n, dtype=np.int64),
    ) + arrays[3:]
    v = np.zeros(n)
    iters, span, dmin, dmax, converged, _ = _iterate_until_settled(
        restricted, v, tolerance, max_iterations
    )
    return lam * 0.5 * (dmin + dmax), converged, int(iters)


def _policy_chain(model: CtmdpModel, post_ids, start_post: int):
    """Reachable post-decision chain under a policy.

    Returns (nodes, offsets, targets, rates) with parallel arcs into the
    same next post-state merged; node 0 is the start.
    """
    toff, ttgt, trate = model.trn_offsets, model.trn_targets, model.trn_rates
    index = {int(start_post): 0}
    nodes = [int(start_post)]
    adj = []
    head = 0
    while head < len(nodes):
        u = nodes[head]
        head += 1
        merged = {}
        for k in range(toff[u], toff[u + 1]):
            nxt = int(post_ids[ttgt[k]])
            merged[nxt] = merged.get(nxt, 0.0) + float(trate[k])
        arcs = []
        for nxt in merged:
            if nxt not in index:
                index[nxt] = len(nodes)
                nodes.append(nxt)
            arcs.append((index[nxt], merged[nxt]))
        adj.append(arcs)
    offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
    for i, arcs in enumerate(adj):
        offsets[i + 1] = offsets[i] + len(arcs)
    targets = np.zeros(offsets[-1], dtype=np.int64)
    rates = np.zeros(offsets[-1])
    for i, arcs in enumerate(adj):
        for j, (t, r) in enumerate(arcs):
            targets[offsets[i] + j] = t
            rates[offsets[i] + j] = r
    return np.array(nodes, dtype=np.int64), offsets, targets, rates


DENSE_SOLVE_LIMIT = 20_000


def _stationary_distribution(offsets, targets, rates, members):
    """Stationary law of one recurrent class given by local node ids."""
    size = len(members)
    if size == 1:
        return np.ones(1)
    local = {m: i for i, m in enumerate(members)}
    if size <= DENSE_SOLVE_LIMIT:
        from scipy.linalg import solve

        a = np.zeros((size, size))
        for m in members:
            i = local[m]
            for k in range(offsets[m], offsets[m + 1]):
                j = local[targets[k]]
                a[j, i] += rates[k]
                a[i, i] -= rates[k]
        a[-1, :] = 1.0
        rhs = np.zeros(size)
        rhs[-1] = 1.0
        pi = solve(a, rhs)
    else:
        # power iteration on the uniformized chain for very large classes
        out = np.zeros(size)
        for m in members:
            i = local[m]
            out[i] = rates[offsets[m] : offsets[m + 1]].sum()
        lam = LAMBDA_SLACK * out.max()
        pi = np.full(size, 1.0 / size)
        for _ in range(2_000_000):
            new = pi * (1.0 - out / lam)
            for m in members:
                i = local[m]
                for k in range(offsets[m], offsets[m + 1]):
                    new[local[targets[k]]] += pi[i] * rates[k] / lam
            if np.abs(new - pi).sum() < 1e-15:
                pi = new
                break
            pi = new
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def evaluate_policy(model: CtmdpModel, policy: MaintenancePolicy, initial_state=0) -> GainPair:
    """Exact long-run cost pair of a policy from a given starting state.

    Builds the policy's closed chain over post-decision states reachable
    from the start, locates its recurrent classes by strong-component
    condensation, solves each class's balance equations, and (when the
    start can be absorbed into several classes) mixes the class gains
    with the exact absorption probabilities.
    """
    gain, _ = _evaluate_policy_detailed(model, policy, initial_state)
    return gain


def _evaluate_policy_detailed(model, policy, initial_state=0):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    if isinstance(initial_state, (int, np.integer)):
        pre_id = int(initial_state)
    else:
        pre_id = model.state_id(tuple(initial_state))
    start_post = int(policy.post_ids[pre_id])
    nodes, offsets, targets, rates = _policy_chain(model, policy.post_ids, start_post)
    n = len(nodes)

    if offsets[-1] == 0:
        # absorbing start: the class is the single start node
        labels = np.zeros(n, dtype=np.int64)
        n_comp = 1
    else:
        graph = coo_matrix(
            (np.ones(len(targets)), (np.repeat(np.arange(n), np.diff(offsets)), targets)),
            shape=(n, n),
        ).tocsr()
        n_comp, labels = connected_components(graph, directed=True, connection="strong")

    # bottom classes have no arc leaving their component
    leaves = np.zeros(n_comp, dtype=bool)
    src_of = np.repeat(np.arange(n), np.diff(offsets))
    leaving = labels[src_of] != labels[targets]
    for c in labels[src_of[leaving]]:
        leaves[c] = True
    bottom = [c for c in range(n_comp) if not leaves[c]]

    class_gains = []
    class_nodes = []
    for c in bottom:
        members = np.nonzero(labels == c)[0]
        pi = _stationary_distribution(offsets, targets, rates, list(members))
        ids = nodes[members]
        g_o = float(pi @ model.cost_op[ids])
        g_f = float(pi @ model.cost_fail[ids].astype(np.float64))
        class_gains.append(GainPair(g_o, g_f))
        class_nodes.append(set(int(m) for m in members))

    start_label = labels[0]
    if not leaves[start_label]:
        k = bottom.index(start_label)
        info = {"classes": class_gains, "weights": [1.0 if i == k else 0.0 for i in range(len(bottom))]}
        return class_gains[k], info

    # transient start: absorption probabilities via the embedded jump chain
    transients = np.nonzero(leaves[labels])[0]
    tindex = {int(t): i for i, t in enumerate(transients)}
    nt = len(transients)
    t_mat = np.zeros((nt, nt))
    b_mat = np.zeros((nt, len(bottom)))
    for t in transients:
        i = tindex[int(t)]
        total = rates[offsets[t] : offsets[t + 1]].sum()
        for k in range(offsets[t], offsets[t + 1]):
            p = rates[k] / total
            tgt = int(targets[k])
            if tgt in tindex:
                t_mat[i, tindex[tgt]] += p
            else:
                for ci, members in enumerate(class_nodes):
                    if tgt in members:
                        b_mat[i, ci] += p
                        break
    from scipy.linalg import solve as dense_solve

    absorb = dense_solve(np.eye(nt) - t_mat, b_mat)
    weights = absorb[tindex[0]]
    g_o = float(weights @ [g.g_o for g in class_gains])
    g_f = float(weights @ [g.g_f for g in class_gains])
    info = {"classes": class_gains, "weights": list(map(float, weights))}
    return GainPair(g_o, g_f), info
