"""Independent reference computations used by the test suite.

Everything here is deliberately written from first principles (direct
enumeration, independence arguments, quadratic scans) rather than by
calling the library's own vectorized routines, so agreement between the
two is meaningful.
"""

import itertools
import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from parmaint import dop
from parmaint.app import (
    DOM_TOL,
    EXACT,
    ParetoFront,
    SolutionPoint,
    _check_tolerance,
    _coincide,
    _full_repair_point,
    _solve_point,
)
from parmaint.ctmdp import (
    DEFAULT_STATE_CEILING,
    StateSpaceError,
    WeakCommunicationReport,
    _check_state,
    build_model,
)
from parmaint.exact import ComparisonEntry, ComparisonReport
from parmaint.mdp_solve import (
    MaintenancePolicy,
    evaluate_policy,
    fully_active_policy,
    solve_average_cost,
)
from parmaint.model import ComponentType, make_instance
from parmaint.sim import CHUNK_CAP, CHUNK_START


def random_instance(rng, n_types=None, max_rows=2, bound_span=(4.0, 14.0)):
    """A small random catalog with knapsack rows, arbitrary cost order."""
    if n_types is None:
        n_types = int(rng.integers(1, 5))
    comps = []
    for i in range(n_types):
        q = float(rng.uniform(0.05, 0.6))
        tau = float(rng.uniform(0.5, 3.0))
        comps.append(
            ComponentType(
                alpha=tau * q / (1.0 - q),
                tau=tau,
                usage_cost=float(rng.uniform(0.5, 10.0)),
                repair_cost=float(rng.uniform(0.0, 20.0)),
                install_cost=float(rng.uniform(1.0, 5.0)),
                weight=float(rng.uniform(1.0, 5.0)),
                label=f"t{i + 1}",
            )
        )
    n_rows = int(rng.integers(1, max_rows + 1))
    a = rng.uniform(1.0, 4.0, size=(n_rows, n_types))
    b = rng.uniform(*bound_span, size=n_rows)
    return make_instance(comps, a, b, names=[f"r{j}" for j in range(n_rows)])


def stationary_design_gain(instance, design):
    """(g_o, g_f) under repair-everything, by direct state enumeration.

    Every installed copy is independently down with probability q_i and
    (because repairs start instantly) down means under repair.  Summing
    over all joint down-count configurations gives the exact long-run
    averages without the closed-form shortcuts used by the library.
    """
    q = instance.q_vector()
    c = instance.usage_costs()
    r = instance.repair_costs()
    x = [int(v) for v in design]
    g_o = 0.0
    g_f = 0.0
    ranges = [range(xi + 1) for xi in x]
    for downs in itertools.product(*ranges):
        prob = 1.0
        for i, d in enumerate(downs):
            prob *= math.comb(x[i], d) * q[i] ** d * (1 - q[i]) ** (x[i] - d)
        repair_cost = sum(r[i] * d for i, d in enumerate(downs))
        usage_cost = 0.0
        for i, d in enumerate(downs):
            if d < x[i]:
                usage_cost = c[i]
                break
        failed = all(d == x[i] for i, d in enumerate(downs))
        g_o += prob * (repair_cost + usage_cost)
        g_f += prob * failed
    return g_o, g_f


def grid_feasible_designs(instance):
    """Brute-force feasibility filter over the full copy-bound grid."""
    a = instance.constraints
    b = instance.constraint_bounds
    out = []
    for x in itertools.product(*(range(m + 1) for m in instance.copy_bounds)):
        if np.all(a @ np.asarray(x, dtype=float) <= b + 1e-9):
            out.append(x)
    return out


def augmented_slot_objective(instance, slots, delta):
    """Failure-penalized static objective on an arbitrary set of copy slots.

    ``slots`` is a set of (type index, copy number) pairs; the pairs are
    totally ordered by (type, copy) which matches usage priority.  For
    downward-closed slot sets this coincides with the design objective
    plus the (1 + delta) * top-usage-cost failure term.
    """
    q = instance.q_vector()
    c = instance.usage_costs()
    r = instance.repair_costs()
    c_top = c.max()
    total = 0.0
    prefix = 1.0
    for i, _ in sorted(slots):
        total += q[i] * r[i] + c[i] * (1.0 - q[i]) * prefix
        prefix *= q[i]
    return total + (1.0 + delta) * c_top * prefix


def _lex_table(instance):
    """The feasible designs in lex order with their repair, usage and ln
    failure, from the library's closed forms: the references below check
    how a cap's design is chosen, not the terms it is chosen on."""
    designs = dop._feasible_designs(instance)
    return (designs, *dop._objective_terms(instance, dop._design_matrix(designs)))


def reference_fdop(instance):
    """Most reliable design: first lex row within 1e-12 of the least ln failure."""
    designs, _, _, ln_f = _lex_table(instance)
    return designs[int(np.flatnonzero(ln_f <= ln_f.min() + 1e-12)[0])]


def _reference_cap(instance, table, epsilon, delta):
    """Masked argmin of the penalized objective over the whole lex table:
    every co-optimal row, most reliable first."""
    designs, repair, usage, ln_f = table
    keep = ln_f <= epsilon + dop.EPS_SLACK
    c_top = instance.usage_costs().max()
    aug = repair + usage + (1.0 + delta) * c_top * np.exp(ln_f)
    aug = np.where(keep, aug, np.inf)
    best = aug.min()
    tol = dop.TIE_TOL * max(1.0, abs(best))
    tied_idx = np.nonzero(aug <= best + tol)[0]
    order = sorted(tied_idx, key=lambda i: (ln_f[i], designs[i]))
    return tuple(
        dop._row(
            table, i, tag="trivial" if sum(designs[i]) == 0 else "sweep",
            epsilon=epsilon, objective=float(aug[i]),
        )
        for i in order
    )


def reference_sweep(instance, eps_min=0.0, delta_eps=-0.1, delta=0.1, record_ties=False):
    """``dop.sp1_sweep`` solved cap by cap as a masked argmin over the
    lex-ordered table, with no sorting and no running minimum."""
    table = _lex_table(instance)
    designs, _, _, ln_f = table
    anchor = int(np.flatnonzero(ln_f <= ln_f.min() + 1e-12)[0])
    results = []
    seen = set()

    def record(sol):
        if sol.design not in seen:
            seen.add(sol.design)
            results.append(sol)

    eps = float(eps_min)
    while eps >= ln_f[anchor] - dop.EPS_SLACK:
        ties = _reference_cap(instance, table, eps, delta)
        for s in reversed(ties) if record_ties else ties[:1]:
            record(s)
        eps = ties[0].ln_g_f + delta_eps

    record(dop._row(table, anchor, tag="reliability"))
    if designs[0] not in seen:  # the empty design heads the lex order
        results.insert(0, dop._row(table, 0, tag="trivial"))
    return results


def _ref_coord_dist(x: float, y: float) -> float:
    if x == y:  # covers matching infinities
        return 0.0
    return abs(x - y)


def _ref_close(x: float, y: float, tol: float) -> bool:
    return _ref_coord_dist(x, y) <= tol


def _ref_dominates(a, b, tol: float) -> bool:
    return (
        a.g_o <= b.g_o + tol
        and a.ln_g_f <= b.ln_g_f + tol
        and (a.g_o < b.g_o - tol or a.ln_g_f < b.ln_g_f - tol)
    )


def reference_non_nested_designs(solutions):
    """``app.non_nested_designs`` as a scan over every pair of designs."""
    designs = [s.design for s in solutions]
    keep = []
    for s in solutions:
        x = s.design
        nested = any(
            all(a <= b for a, b in zip(x, y)) and any(a < b for a, b in zip(x, y))
            for y in designs
        )
        if not nested:
            keep.append(s)
    return keep


def reference_non_dom_filter(points, tolerance=DOM_TOL):
    """``app.non_dom_filter`` as a scan over every pair of points."""
    _check_tolerance(tolerance)
    pts = list(points)
    survivors = [
        p
        for p in pts
        if not any(q is not p and _ref_dominates(q, p, tolerance) for q in pts)
    ]
    survivors.sort(key=SolutionPoint.identity_key)
    kept = []
    for p in survivors:
        if any(
            _ref_close(p.g_o, k.g_o, tolerance) and _ref_close(p.ln_g_f, k.ln_g_f, tolerance)
            for k in kept
        ):
            continue
        kept.append(p)
    kept.sort(key=lambda p: (p.g_o, -p.ln_g_f))
    return ParetoFront(points=tuple(kept))


def reference_compare_fronts(front, reference, tolerance=1e-6):
    """``exact.compare_fronts`` as a scan over every reference point."""
    _check_tolerance(tolerance)
    ref_pts = list(reference)
    entries = []
    for p in front:
        dominator = None
        for q in ref_pts:
            if _ref_dominates(q, p, tolerance):
                dominator = q
                break
        if ref_pts:
            distance = min(
                max(_ref_coord_dist(p.g_o, q.g_o), _ref_coord_dist(p.ln_g_f, q.ln_g_f))
                for q in ref_pts
            )
        else:
            distance = float("inf")
        if dominator is not None:
            status = "dominated"
        elif distance <= tolerance:
            status = "matched"
        else:
            status = "absent"
        entries.append(
            ComparisonEntry(point=p, status=status, distance=distance, dominator=dominator)
        )
    return ComparisonReport(entries=tuple(entries), tolerance=tolerance)


# The recursive dichotomic trace, with its depth cap and penalty clamp: the
# reference for ``exact._trace_design`` on curves whose slopes stay inside
# the clamp.
DICHOTOMIC_DEPTH = 40
DICHOTOMIC_RTOL = 1e-9  # relative margin a segment's solve must beat its ends by
PENALTY_CLAMP = (1e-9, 1e12)  # bounds on the segment weights solved at


def dichotomic_expand(solve_at, left, right, depth=DICHOTOMIC_DEPTH):
    """Supported points strictly between two front points, recursively.

    ``solve_at(penalty)`` must return an exactly evaluated SolutionPoint.
    The solve is at the segment's slope, the penalty at which both ends
    scalarize (``g_o + penalty * g_f``) to the same value; recursion
    stops when the solve no longer beats that value by
    ``DICHOTOMIC_RTOL`` relative, or ``DICHOTOMIC_DEPTH`` levels down
    (``depth`` counts the levels left).
    """
    if depth <= 0:
        return []
    d_gf = left.g_f - right.g_f
    d_go = right.g_o - left.g_o
    if d_gf <= 0.0 or d_go <= 0.0:
        return []
    penalty = min(max(d_go / d_gf, PENALTY_CLAMP[0]), PENALTY_CLAMP[1])
    mid = solve_at(penalty)
    base = left.g_o + penalty * left.g_f
    value = mid.g_o + penalty * mid.g_f
    if base - value <= DICHOTOMIC_RTOL * max(1.0, abs(base)):
        return []
    for end in (left, right):
        if _coincide(mid.g_o, mid.ln_g_f, end.g_o, end.ln_g_f, DOM_TOL):
            return []
    return (
        dichotomic_expand(solve_at, left, mid, depth - 1)
        + [mid]
        + dichotomic_expand(solve_at, mid, right, depth - 1)
    )


def reference_trace_design(instance, design):
    """Supported points of one design's policy trade-off curve.

    The trace runs from the cheapest policy (the solve at the smallest
    penalty) to full repair, the limit of the penalty-optimal policies
    as the penalty grows, and fills the segments in between.
    """
    model = build_model(instance, design=design)
    policy = None

    def solve_at(penalty):
        nonlocal policy
        pt = _solve_point(model, design, penalty, policy, EXACT)
        policy = pt.policy
        return pt

    left = solve_at(PENALTY_CLAMP[0])
    right = _full_repair_point(instance, model, design, EXACT)
    if _coincide(left.g_o, left.ln_g_f, right.g_o, right.ln_g_f, DOM_TOL):
        return [left]
    return [left] + dichotomic_expand(solve_at, left, right) + [right]


def policy_from_rule(model, rule):
    """MaintenancePolicy from a function state-rows -> action vector."""
    choice = np.zeros(model.n_states, dtype=np.int64)
    for sid in range(model.n_states):
        rows = model.state_rows(sid)
        action = tuple(rule(rows))
        idx = 0
        for i, (_, s2) in enumerate(rows):
            if not 0 <= action[i] <= s2:
                raise ValueError(f"rule gave action {action} in state {rows}")
            idx = idx * (s2 + 1) + action[i]
        choice[sid] = idx
    return MaintenancePolicy(model, choice)


def iterate_policies(model, limit=None):
    """Every deterministic stationary policy, as choice vectors."""
    counts = np.diff(model.act_offsets)
    total = int(np.prod(counts.astype(float)))
    if limit is not None and total > limit:
        return None
    return [
        np.array(combo, dtype=np.int64)
        for combo in itertools.product(*(range(int(k)) for k in counts))
    ]


def nondominated_values(values, tol):
    """Coordinate pairs not dominated by any other, quadratic scan."""
    keep = []
    for i, (go, ln) in enumerate(values):
        dominated = False
        for j, (go2, ln2) in enumerate(values):
            if j == i:
                continue
            if (
                go2 <= go + tol
                and ln2 <= ln + tol
                and (go2 < go - tol or ln2 < ln - tol)
            ):
                dominated = True
                break
        if not dominated:
            keep.append((go, ln))
    return keep


def revalidate_front(instance, front) -> float:
    """Recompute every front point from scratch and return the worst drift.

    Points without a penalty (full-repair points) are evaluated under the
    always-repair policy; points with one are re-solved cold at that
    penalty.  The drift is the largest coordinate-wise difference between
    stored and recomputed (g_o, ln g_f), matching infinities counting 0.
    """
    drift = 0.0
    models = {}
    for p in front:
        if p.design not in models:
            models[p.design] = build_model(instance, design=p.design)
        model = models[p.design]
        if p.penalty is None:
            pair = evaluate_policy(model, fully_active_policy(model))
        else:
            pair = solve_average_cost(model, p.penalty).pair
        for got, want in ((pair.g_o, p.g_o), (pair.ln_g_f, p.ln_g_f)):
            if got != want:
                drift = max(drift, abs(got - want))
    return drift


def single_type_instance(q=0.01, tau=1.0, usage=1.0, repair=100.0, bound=4):
    comp = ComponentType(
        alpha=tau * q / (1.0 - q),
        tau=tau,
        usage_cost=usage,
        repair_cost=repair,
        install_cost=1.0,
        weight=1.0,
        label="only",
    )
    return make_instance([comp], [[1.0]], [float(bound)], names=["slots"])


def model_for(instance, design):
    return build_model(instance, design=tuple(design))


# Per-state model primitives: one state, action or transition at a time,
# the plain references that build_model's vectorized arrays are checked
# against.


def _pair_list(m: int):
    """Lexicographic (repairing, damaged) pairs with at most m copies."""
    return [(s1, s2) for s1 in range(m + 1) for s2 in range(m - s1 + 1)]


def enumerate_states(bounds, ceiling: int | None = DEFAULT_STATE_CEILING):
    """All states of the box space, lexicographic, type 0 most significant."""
    bounds = [int(m) for m in bounds]
    sizes = [(m + 1) * (m + 2) // 2 for m in bounds]
    total = 1
    for t in sizes:
        total *= t
    if ceiling is not None and total > ceiling:
        raise StateSpaceError(
            f"state space has {total} states, over the ceiling of {ceiling}",
            report={"per_type": sizes, "total": total, "ceiling": ceiling},
        )
    return [tuple(rows) for rows in itertools.product(*(_pair_list(m) for m in bounds))]


def apply_action(state, action):
    """Post-decision state: chosen damaged copies enter repair instantly."""
    if len(action) != len(state):
        raise ValueError(f"action has {len(action)} entries for {len(state)} types")
    out = []
    for (s1, s2), a in zip(state, action):
        if not 0 <= a <= s2:
            raise ValueError(f"action {a} outside 0..{s2} damaged copies")
        out.append((s1 + a, s2 - a))
    return tuple(out)


def feasible_actions(state):
    """Action vectors in lexicographic order.

    Any number of each type's damaged copies may enter repair.
    """
    return list(itertools.product(*(range(s2 + 1) for _, s2 in state)))


def transition_rates(instance, bounds, state):
    """Outgoing (target, rate) pairs of a post-decision state.

    Healthy copies fail one at a time; repairs complete one at a time.
    """
    _check_state(state, bounds)
    out = []
    for i, ((s1, s2), m) in enumerate(zip(state, bounds)):
        comp = instance.components[i]
        healthy = m - s1 - s2
        if healthy > 0:
            target = list(state)
            target[i] = (s1, s2 + 1)
            out.append((tuple(target), healthy * comp.alpha))
        if s1 > 0:
            target = list(state)
            target[i] = (s1 - 1, s2)
            out.append((tuple(target), s1 * comp.tau))
    return out


def cost_rates(instance, bounds, state):
    """(operational cost rate, failure indicator) of a post-decision state.

    The cheapest healthy type is the one in use; every copy under repair
    bills its repair rate; the failure indicator is 1 when no installed
    copy is healthy.
    """
    _check_state(state, bounds)
    usage = 0.0
    repair = 0.0
    failed = 1
    for i, ((s1, s2), m) in enumerate(zip(state, bounds)):
        comp = instance.components[i]
        repair += s1 * comp.repair_cost
        if failed and m - s1 - s2 > 0:
            # components are sorted by usage cost, so the first healthy
            # type is the cheapest one
            usage = comp.usage_cost
            failed = 0
    return usage + repair, failed


# Weak communication on the union graph, the check the layered-graph
# version replaced: one edge from each state to every transition target
# of every one of its actions, and one breadth-first search from each
# transient state.


def union_edges(model):
    """Directed edges of the union graph over every state-action pair."""
    n = model.n_states
    act_pre = np.repeat(np.arange(n, dtype=np.int64), np.diff(model.act_offsets))
    posts = model.act_posts
    cnt = np.diff(model.trn_offsets)[posts]
    src = np.repeat(act_pre, cnt)
    starts = model.trn_offsets[posts]
    total = int(cnt.sum())
    if total == 0:
        return src[:0], src[:0]
    rep_starts = np.repeat(starts, cnt)
    seq = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    tgt = model.trn_targets[rep_starts + seq]
    return src, tgt


def weak_communication_reference(model):
    """The WeakCommunicationReport of the union-graph check."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    n = model.n_states
    all_rep = model.state_id(tuple((int(m), 0) for m in model.design))
    if n == 1:
        return WeakCommunicationReport(True, (), 1, all_rep)

    src, tgt = union_edges(model)
    indeg = np.bincount(tgt, minlength=n)
    transient = np.nonzero(indeg == 0)[0]
    graph = coo_matrix((np.ones(len(src)), (src, tgt)), shape=(n, n)).tocsr()
    _, labels = connected_components(graph, directed=True, connection="strong")
    core = np.setdiff1d(np.arange(n), transient)
    core_labels = np.unique(labels[core]) if core.size else np.array([])
    ok = core_labels.size == 1
    if ok:
        for t in transient:
            reach = breadth_first_order(graph, int(t), return_predecessors=False)
            if not np.any(labels[reach] == core_labels[0]):
                ok = False
                break
    return WeakCommunicationReport(
        weakly_communicating=bool(ok),
        transient_ids=tuple(int(t) for t in transient),
        n_core_classes=int(core_labels.size),
        all_repairing_id=all_rep,
    )


# Relative value iteration, the solver policy iteration replaced, kept as
# the reference for it.  Pre-decision values v are updated by the
# uniformized one-step operator
#   (Tv)(s) = min_u [ cost[u]/L + sum_t (rate/L) v(t) + (1 - out[u]/L) v(s) ]
# over the state's post-decision options u, normalized at state 0 each
# sweep.  The per-sweep difference bracket [dmin, dmax] times the
# uniformization constant L brackets the optimal gain.  Convergence is on
# the span of the difference, relative to the per-step gain magnitude so
# that huge failure penalties do not stall the loop at float resolution.

RVI_TOLERANCE = 1e-10
RVI_MAX_SWEEPS = 10**6
LAMBDA_SLACK = 1.05  # uniformization constant = slack * max outflow
ITERATION_CHUNK = 20_000
FLOOR_FACTOR = 16.0  # spans below FLOOR_FACTOR*eps*max|v| count as roundoff
STALL_RATIO = 0.99  # chunk-over-chunk span shrink below 1% means stalled


def uniformized_arrays(model, penalty):
    """Pre-scaled arrays for the value-iteration kernels, and L."""
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


def rvi_sweeps(
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
    """Vectorized value-iteration sweeps in place; (iters, span, dmin, dmax)."""
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


def greedy_choice(
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
    pos = np.arange(vals.shape[0], dtype=np.int64)
    hit = np.where(vals == np.repeat(best, np.diff(act_off)), pos, np.iinfo(np.int64).max)
    first = np.minimum.reduceat(hit, aoff)
    return (first - aoff).astype(np.int64)


def iterate_until_settled(arrays, v, tolerance, max_iterations):
    """Sweeps until the span test or the float floor.

    Huge penalties push relative values to magnitudes where the span of
    successive differences bottoms out at roundoff; when a whole chunk
    of sweeps no longer shrinks a span already at that scale, the
    bracket is as tight as doubles allow and the run stops with it.
    Returns (sweeps, span, dmin, dmax, converged, floor_limited).
    """
    total = 0
    prev_span = math.inf
    while True:
        chunk = min(ITERATION_CHUNK, max_iterations - total)
        iters, span, dmin, dmax = rvi_sweeps(*arrays, v, tolerance, chunk)
        total += iters
        if iters < chunk:  # kernel met the span test
            return total, span, dmin, dmax, True, False
        if total >= max_iterations:
            return total, span, dmin, dmax, False, False
        floor = FLOOR_FACTOR * np.finfo(float).eps * max(1.0, float(np.abs(v).max()))
        if span <= floor and span > STALL_RATIO * prev_span:
            return total, span, dmin, dmax, True, True
        prev_span = span


def rvi_solve(model, penalty):
    """Relative value iteration from zero values, reference state 0.

    Returns the greedy policy of the settled values and the midpoint of
    the final difference bracket scaled back to unit time.
    """
    arrays, lam = uniformized_arrays(model, penalty)
    v = np.zeros(model.n_states)
    _, _, dmin, dmax, _, _ = iterate_until_settled(arrays, v, RVI_TOLERANCE, RVI_MAX_SWEEPS)
    return MaintenancePolicy(model, greedy_choice(*arrays, v)), lam * 0.5 * (dmin + dmax)


# Plain-loop value iteration, one state and one arc at a time.  Same
# argument list as the vectorized kernels above (the tuple of
# uniformized_arrays, then v); the arithmetic is done in the same order,
# so the two must agree bit for bit.


def rvi_loop(
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
    """Relative value iteration sweeps in place; (iters, span, dmin, dmax)."""
    n = v.shape[0]
    post_val = np.empty(n)
    new_v = np.empty(n)
    iters = 0
    span = math.inf
    dmin = dmax = 0.0
    while iters < max_iter:
        iters += 1
        for u in range(n):
            acc = 0.0
            for k in range(trn_off[u], trn_off[u + 1]):
                acc += rate_scaled[k] * v[trn_tgt[k]]
            post_val[u] = cost_scaled[u] + acc
        dmin = math.inf
        dmax = -math.inf
        for s in range(n):
            best = math.inf
            for k in range(act_off[s], act_off[s + 1]):
                u = act_posts[k]
                best = min(best, post_val[u] + self_keep[u] * v[s])
            new_v[s] = best
            dmin = min(dmin, best - v[s])
            dmax = max(dmax, best - v[s])
        span = dmax - dmin
        ref_val = new_v[0]
        for s in range(n):
            v[s] = new_v[s] - ref_val
        if span < tol * max(1.0, abs(0.5 * (dmin + dmax))):
            break
    return iters, span, dmin, dmax


def greedy_loop(
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
    """Index of the first minimizing action per state."""
    n = v.shape[0]
    post_val = np.empty(n)
    for u in range(n):
        acc = 0.0
        for k in range(trn_off[u], trn_off[u + 1]):
            acc += rate_scaled[k] * v[trn_tgt[k]]
        post_val[u] = cost_scaled[u] + acc
    choice = np.empty(n, dtype=np.int64)
    for s in range(n):
        best = math.inf
        pick = 0
        for k in range(act_off[s], act_off[s + 1]):
            u = act_posts[k]
            q = post_val[u] + self_keep[u] * v[s]
            if q < best:
                best = q
                pick = k - act_off[s]
        choice[s] = pick
    return choice


def policy_gain_by_iteration(
    model,
    policy,
    penalty: float,
    tolerance: float = RVI_TOLERANCE,
    max_iterations: int = RVI_MAX_SWEEPS,
):
    """Gain of a fixed policy via the same value-iteration machinery.

    Restricts each state's action list to the policy's choice and runs
    the sweeps; useful as an independent check against the balance-
    equation evaluation for unichain policies.
    """
    arrays, lam = uniformized_arrays(model, penalty)
    n = model.n_states
    restricted = (
        np.arange(n + 1, dtype=np.int64),
        policy.post_ids,
        np.arange(n, dtype=np.int64),
    ) + arrays[3:]
    v = np.zeros(n)
    iters, span, dmin, dmax, converged, _ = iterate_until_settled(
        restricted, v, tolerance, max_iterations
    )
    return lam * 0.5 * (dmin + dmax), converged, int(iters)


# Dense policy evaluation, one state and one arc at a time: breadth-first
# search over dicts, a dense balance solve per recurrent class and a
# dense absorption solve on the embedded jump chain.  Cubic in the chain
# size, so only for the small chains of the test instances.


def _dense_chain(model, post_ids, start_post):
    """Reachable post-state chain (nodes, per-node {next: rate}), start first."""
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
        for nxt in merged:
            if nxt not in index:
                index[nxt] = len(nodes)
                nodes.append(nxt)
        adj.append({index[nxt]: r for nxt, r in merged.items()})
    return nodes, adj


def _dense_stationary(adj, members):
    """Balance equations of one recurrent class, last row replaced by sum 1."""
    size = len(members)
    local = {m: i for i, m in enumerate(members)}
    a = np.zeros((size, size))
    for m in members:
        for t, r in adj[m].items():
            a[local[t], local[m]] += r
            a[local[m], local[m]] -= r
    a[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    pi = np.maximum(np.linalg.solve(a, rhs), 0.0)
    return pi / pi.sum()


def evaluate_dense(model, policy, initial_state=0):
    """(g_o, g_f) of a policy from a start state, by dense linear algebra."""
    from scipy.sparse.csgraph import connected_components

    if isinstance(initial_state, (int, np.integer)):
        pre_id = int(initial_state)
    else:
        pre_id = model.state_id(tuple(initial_state))
    nodes, adj = _dense_chain(model, policy.post_ids, int(policy.post_ids[pre_id]))
    n = len(nodes)
    graph = np.zeros((n, n))
    for u, arcs in enumerate(adj):
        for t in arcs:
            graph[u, t] = 1.0
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    leaves = [False] * n_comp
    for u, arcs in enumerate(adj):
        for t in arcs:
            if labels[u] != labels[t]:
                leaves[labels[u]] = True
    gains = {}
    for c in range(n_comp):
        if not leaves[c]:
            members = [u for u in range(n) if labels[u] == c]
            pi = _dense_stationary(adj, members)
            ids = [nodes[u] for u in members]
            gains[c] = (
                float(pi @ model.cost_op[ids]),
                float(pi @ model.cost_fail[ids].astype(np.float64)),
            )
    if not leaves[labels[0]]:
        return gains[labels[0]]
    transients = [u for u in range(n) if leaves[labels[u]]]
    tindex = {u: i for i, u in enumerate(transients)}
    classes = sorted(gains)
    t_mat = np.zeros((len(transients), len(transients)))
    b_mat = np.zeros((len(transients), len(classes)))
    for u in transients:
        total = sum(adj[u].values())
        for t, r in adj[u].items():
            if t in tindex:
                t_mat[tindex[u], tindex[t]] += r / total
            else:
                b_mat[tindex[u], classes.index(labels[t])] += r / total
    absorb = np.linalg.solve(np.eye(len(transients)) - t_mat, b_mat)[tindex[0]]
    return (
        float(absorb @ [gains[c][0] for c in classes]),
        float(absorb @ [gains[c][1] for c in classes]),
    )


def gth_stationary(rates):
    """Stationary law of an irreducible generator by GTH elimination.

    ``rates[i][j]`` is the rate from i to j (the diagonal is ignored).
    Grassmann-Taksar-Heyman elimination forms every pivot as a sum of
    rates, never a difference, so each probability comes out to full
    relative precision however small it is.
    """
    a = [list(map(float, row)) for row in rates]
    n = len(a)
    for k in range(n - 1, 0, -1):
        total = sum(a[k][j] for j in range(k))
        for i in range(k):
            a[i][k] /= total
        for i in range(k):
            for j in range(k):
                if i != j:
                    a[i][j] += a[i][k] * a[k][j]
    pi = [1.0] + [0.0] * (n - 1)
    for k in range(1, n):
        pi[k] = sum(pi[i] * a[i][k] for i in range(k))
    total = sum(pi)
    return [p / total for p in pi]


def _solve_exact(a, b):
    """x with ``a x = b`` for a square list-of-rows matrix ``a`` of
    Fractions and right-hand sides ``b`` (one row per equation, one
    column per side), by Gauss-Jordan elimination on the first nonzero
    entry of each column; exact, so no pivot order is better than another."""
    rows = [list(ar) + list(br) for ar, br in zip(a, b)]
    n = len(rows)
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][k]
        rows[k] = [v / pivot for v in rows[k]]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                f = rows[i][k]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def chain_gains_exact(src, dst, rate, costs):
    """Gains and biases of every node of a chain, in exact rationals and
    rounded to floats once at the end; the shapes and the conventions of
    ``mdp_solve._chain_gains``.

    The float rates and costs are taken as the exact binary fractions
    they are.  Classes come from plain reachability: a node is recurrent
    when every node it reaches reaches it back, and its class is the set
    it reaches.  Each class's stationary law solves its balance
    equations with its first (lowest) node's weight set to 1; transient
    gains solve the absorption equations; every bias solves
    ``out_i h_i - sum_j rate(i->j) h_j = cost_i - gain_i`` with h = 0 at
    each class's first node.
    """
    m, k = costs.shape
    arcs = [{} for _ in range(m)]  # arcs[i][j]: total rate i -> j
    for i, j, r in zip(src.tolist(), dst.tolist(), rate.tolist()):
        arcs[i][j] = arcs[i].get(j, Fraction(0)) + Fraction(r)
    out = [sum(row.values(), Fraction(0)) for row in arcs]
    cost = [[Fraction(v) for v in row] for row in costs.tolist()]
    reach = []
    for i in range(m):
        seen, stack = {i}, [i]
        while stack:
            for v in arcs[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach.append(frozenset(seen))
    recurrent = [all(i in reach[j] for j in reach[i]) for i in range(m)]

    def system(rows, cols):
        # out_i [i == j] - rate(i -> j) for i in rows, j in cols
        return [[(out[i] if i == j else 0) - arcs[i].get(j, 0) for j in cols] for i in rows]

    gain = [None] * m
    firsts = set()
    for cls in {reach[i] for i in range(m) if recurrent[i]}:
        first = min(cls)
        firsts.add(first)
        free = sorted(cls - {first})
        # balance of free j: out_j pi_j - sum_{i free} rate(i->j) pi_i = rate(first->j)
        a = [list(col) for col in zip(*system(free, free))]
        x = _solve_exact(a, [[arcs[first].get(j, 0)] for j in free])
        pi = {first: Fraction(1), **{j: row[0] for j, row in zip(free, x)}}
        total = sum(pi.values())
        g = [sum(pi[i] * cost[i][c] for i in cls) / total for c in range(k)]
        for i in cls:
            gain[i] = g
    trans = [i for i in range(m) if not recurrent[i]]
    into = [
        [sum(r * gain[j][c] for j, r in arcs[t].items() if recurrent[j]) for c in range(k)]
        for t in trans
    ]
    for t, g in zip(trans, _solve_exact(system(trans, trans), into)):
        gain[t] = g
    free = [i for i in range(m) if i not in firsts]
    rhs = [[cost[i][c] - gain[i][c] for c in range(k)] for i in free]
    bias = [[0] * k for _ in range(m)]
    for i, h in zip(free, _solve_exact(system(free, free), rhs)):
        bias[i] = h
    return np.array(gain, dtype=np.float64), np.array(bias, dtype=np.float64)


def threshold_type_law(alpha, tau, copies, threshold):
    """Stationary law of one type under "repair all once ``threshold`` wait".

    Post-decision states (repairing, damaged) keep fewer than
    ``threshold`` damaged copies waiting; the failure that brings the
    waiting count to ``threshold`` sends every waiting copy to repair.
    Returns {(repairing, damaged): probability}.
    """
    states = [
        (s1, s2)
        for s2 in range(threshold)
        for s1 in range(copies - s2 + 1)
    ]
    index = {s: i for i, s in enumerate(states)}
    rates = [[0.0] * len(states) for _ in states]
    for (s1, s2), i in index.items():
        healthy = copies - s1 - s2
        if healthy > 0:
            nxt = (s1, s2 + 1) if s2 + 1 < threshold else (s1 + s2 + 1, 0)
            rates[i][index[nxt]] += healthy * alpha
        if s1 > 0:
            rates[i][index[(s1 - 1, s2)]] += s1 * tau
    return dict(zip(states, gth_stationary(rates)))


def improving_actions(model, penalty, policy, gains, bias, rtol=1e-9):
    """Certificate check of a solve, one state and one arc at a time.

    ``gains`` and ``bias`` must solve the policy's own equations at every
    pre-decision state s with u = policy's post-state:
      sum_t rate(u->t) (gains_t - gains_s) = 0,
      cost_u - gains_s + sum_t rate(u->t) (bias_t - bias_s) = 0,
    and no action u' may do better: neither a negative first sum, nor,
    where that sum ties at 0, a second one below 0.  Each comparison
    allows ``rtol`` times the sum of the magnitudes of its terms.
    Returns the (state, action index, reason) triples that fail.
    """
    toff, ttgt, trate = model.trn_offsets, model.trn_targets, model.trn_rates
    failures = []
    for s in range(model.n_states):
        g_s, h_s = float(gains[s]), float(bias[s])
        for k in range(model.act_offsets[s], model.act_offsets[s + 1]):
            u = int(model.act_posts[k])
            cost = float(model.cost_op[u]) + penalty * float(model.cost_fail[u])
            g_sum = g_scale = 0.0
            h_sum = 0.0
            h_scale = abs(cost) + abs(g_s)
            for j in range(toff[u], toff[u + 1]):
                t = int(ttgt[j])
                g_sum += trate[j] * (gains[t] - g_s)
                g_scale += trate[j] * (abs(gains[t]) + abs(g_s))
                h_sum += trate[j] * (bias[t] - h_s)
                h_scale += trate[j] * (abs(bias[t]) + abs(h_s))
            slack_g, slack_h = rtol * g_scale, rtol * h_scale
            h_test = cost - g_s + h_sum
            action = k - model.act_offsets[s]
            if u == policy.post_ids[s]:
                if abs(g_sum) > slack_g or abs(h_test) > slack_h:
                    failures.append((s, action, "evaluation"))
            elif g_sum < -slack_g:
                failures.append((s, action, "gain"))
            elif g_sum <= slack_g and h_test < -slack_h:
                failures.append((s, action, "bias"))
    return failures


# --- reference simulation loop ------------------------------------------
# The event loop simulate_policy ran before it compiled the chain to
# Python lists: a linear search over each state's arcs on numpy scalars,
# fed by a uniform buffer that is refilled in doubling chunks, with the
# clock restarted at each refill.  Same streams and two uniforms per
# event, so its sample paths are the library's, up to the rounding of
# the restarted clock.

SIM_CHUNK_START = 4096
SIM_CHUNK_MAX = 1 << 20


def sim_loop(
    start_post,
    t_limit,
    policy_post,
    trn_off,
    trn_tgt,
    trn_rate,
    outflow,
    cost_op,
    cost_fail,
    uniforms,
):
    """Advance one simulated batch until its time limit or buffer end.

    Returns (cost integral, failure-time integral, events, failure
    entries, current post-state, time reached, buffer position,
    exhausted flag).
    """
    t = 0.0
    acc_o = 0.0
    acc_f = 0.0
    cur = start_post
    pos = 0
    events = 0
    fails = 0
    exhausted = False
    while t < t_limit:
        total = outflow[cur]
        if total <= 0.0:
            acc_o += (t_limit - t) * cost_op[cur]
            acc_f += (t_limit - t) * cost_fail[cur]
            t = t_limit
            break
        if pos + 2 > uniforms.shape[0]:
            exhausted = True
            break
        dt = -math.log1p(-uniforms[pos]) / total
        pos += 1
        if t + dt >= t_limit:
            acc_o += (t_limit - t) * cost_op[cur]
            acc_f += (t_limit - t) * cost_fail[cur]
            t = t_limit
            break
        acc_o += dt * cost_op[cur]
        acc_f += dt * cost_fail[cur]
        t += dt
        x = uniforms[pos] * total
        pos += 1
        nxt = trn_tgt[trn_off[cur + 1] - 1]
        acc_rate = 0.0
        for k in range(trn_off[cur], trn_off[cur + 1]):
            acc_rate += trn_rate[k]
            if x < acc_rate:
                nxt = trn_tgt[k]
                break
        newpost = policy_post[nxt]
        if cost_fail[newpost] == 1 and cost_fail[cur] == 0:
            fails += 1
        cur = newpost
        events += 1
    return acc_o, acc_f, events, fails, cur, t, pos, exhausted


def sim_arrays(model, policy):
    """The arrays :func:`sim_loop` takes after its start and time limit."""
    return (
        policy.post_ids,
        model.trn_offsets,
        model.trn_targets,
        model.trn_rates,
        model.outflow,
        model.cost_op,
        model.cost_fail,
    )


def run_batch(arrays, start_post, t_limit, rng):
    """One replication; refills the uniform buffer as the loop drains it."""
    acc_o = acc_f = 0.0
    events = fails = 0
    cur = start_post
    remaining = t_limit
    chunk = SIM_CHUNK_START
    while True:
        uniforms = rng.random(chunk)
        d_o, d_f, d_ev, d_fail, cur, t, _, exhausted = sim_loop(
            cur, remaining, *arrays, uniforms
        )
        acc_o += d_o
        acc_f += d_f
        events += d_ev
        fails += d_fail
        remaining -= t
        if not exhausted:
            break
        chunk = min(chunk * 2, SIM_CHUNK_MAX)
    return acc_o, acc_f, events, fails


def simulate_reference(model, policy, horizon, batches=20, seed=0):
    """Per-batch (g_o, g_f) means, events and failure entries of the old loop."""
    arrays = sim_arrays(model, policy)
    start = int(policy.post_ids[model.start_id(0)])
    t_batch = float(horizon) / batches
    means = []
    events = fails = 0
    for child in np.random.SeedSequence(seed).spawn(batches):
        rng = np.random.Generator(np.random.Philox(child))
        acc_o, acc_f, d_ev, d_fail = run_batch(arrays, start, t_batch, rng)
        means.append((acc_o / t_batch, acc_f / t_batch))
        events += d_ev
        fails += d_fail
    return means, events, fails


# --- per-event compiled loop ----------------------------------------------
# The replication loop simulate_policy ran before it went path first: the
# same compiled jump chain, but each event's sojourn, cost integrals and
# failure entry are priced inside the scalar loop, with math.log1p.  It
# reads the same two uniforms per event, so its events, failure entries
# and final post-states are the library's; its cost integrals differ
# only where np.log1p and math.log1p round one ulp apart.


def compile_nodes(model, policy):
    """The policy's jump chain as one Python tuple per node.

    Each node holds its outflow, its two cost rates, its cumulative arc
    rates summed left to right in arc order (self-loops kept), and its
    successor post-states composed through ``policy.post_ids``, all as
    Python floats, ints and lists.  The successor list repeats its last
    arc once, so a draw that rounds past the last cumulative rate takes
    the last arc.
    """
    off = model.trn_offsets.tolist()
    rates = model.trn_rates.tolist()
    post = policy.post_ids[model.trn_targets].tolist()
    nodes = []
    for lo, hi, total, c_o, c_f in zip(
        off,
        off[1:],
        model.outflow.tolist(),
        model.cost_op.tolist(),
        model.cost_fail.tolist(),
    ):
        arcs = post[lo:hi]
        nodes.append((total, c_o, c_f, list(itertools.accumulate(rates[lo:hi])), arcs + arcs[-1:]))
    return nodes


def replicate_per_event(nodes, cur, t_end, rng, chunk=CHUNK_START):
    """One replication from post-state ``cur`` over ``[0, t_end)``.

    Two uniforms per event, drawn from ``rng`` in chunks that double up
    to ``CHUNK_CAP``; the path does not depend on the chunking.  An
    absorbing state accrues its costs to ``t_end``.  Returns (cost
    integral, failure-time integral, events, failure entries, final
    post-state).
    """
    log1p = math.log1p
    t = acc_o = acc_f = 0.0
    events = fails = 0
    u = []
    pos = last = 0  # an event needs u[pos] and u[pos + 1], so pos < last
    total, c_o, c_f, cum, succ = nodes[cur]
    while total > 0.0:
        if pos >= last:
            u = u[pos:] + rng.random(chunk).tolist()
            pos, last = 0, len(u) - 1
            chunk = min(2 * chunk, CHUNK_CAP)
        dt = -log1p(-u[pos]) / total
        t_next = t + dt
        if t_next >= t_end:
            break
        acc_o += dt * c_o
        acc_f += dt * c_f
        t = t_next
        cur = succ[bisect_right(cum, u[pos + 1] * total)]
        pos += 2
        was_failed = c_f
        total, c_o, c_f, cum, succ = nodes[cur]
        if c_f > was_failed:
            fails += 1
        events += 1
    acc_o += (t_end - t) * c_o
    acc_f += (t_end - t) * c_f
    return acc_o, acc_f, events, fails, cur
