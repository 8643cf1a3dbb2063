"""Independent reference computations used by the test suite.

Everything here is deliberately written from first principles (direct
enumeration, independence arguments, quadratic scans) rather than by
calling the library's own vectorized routines, so agreement between the
two is meaningful.
"""

import itertools
import math

import numpy as np

from parmaint.ctmdp import build_model
from parmaint.mdp_solve import MaintenancePolicy
from parmaint.model import ComponentType, make_instance


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


# Plain-loop value iteration, one state and one arc at a time.  Same
# argument list as the vectorized kernels in parmaint.mdp_solve (the
# tuple of _uniformized_arrays, then v); the arithmetic is done in the
# same order, so the two must agree bit for bit.


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
