"""Continuous-time Markov decision model of a parallel machine group.

States track, per component type, how many copies are under repair and
how many are damaged but not being repaired; the remaining installed
copies are the healthy ones.  Repair decisions are impulsive: starting
repairs moves damaged copies to repairing instantly, so the pair
(state, action) behaves exactly like the post-decision state with the
zero action.  Transitions and cost rates therefore live on post-decision
states, while action lists live on pre-decision states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from parmaint.model import Instance

__all__ = [
    "DEFAULT_STATE_CEILING",
    "StateSpaceError",
    "CtmdpModel",
    "WeakCommunicationReport",
    "build_model",
    "check_weakly_communicating",
]

DEFAULT_STATE_CEILING = 5_000_000

# A system state is one (repairing, damaged) pair per component type.
SystemState = tuple


class StateSpaceError(RuntimeError):
    """State space exceeds the configured ceiling; carries a sizing report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


def _pair_list(m: int):
    """Lexicographic (repairing, damaged) pairs with at most m copies."""
    return [(s1, s2) for s1 in range(m + 1) for s2 in range(m - s1 + 1)]


def _pair_index(m: int, s1: int, s2: int) -> int:
    # pairs with first entry < s1 number sum_{t<s1}(m+1-t)
    return s1 * (m + 1) - s1 * (s1 - 1) // 2 + s2


def _check_state(state, bounds):
    if len(state) != len(bounds):
        raise ValueError(f"state has {len(state)} rows for {len(bounds)} types")
    for (s1, s2), m in zip(state, bounds):
        if s1 < 0 or s2 < 0 or s1 + s2 > m:
            raise ValueError(f"state row {(s1, s2)} violates copy bound {m}")


@dataclass(eq=False)
class CtmdpModel:
    """Solver-ready arrays for one design's decision model.

    Action lists are stored per pre-decision state as post-decision state
    ids (impulsive semantics); transitions, cost rates and total outflow
    are stored per post-decision state in CSR layout.
    """

    instance: Instance
    design: tuple
    bounds: np.ndarray  # per-type copy caps of this model (the design)
    repair_interruption: bool
    states: np.ndarray  # (n, 2N) int16, lexicographic
    act_offsets: np.ndarray  # (n+1,) int64
    act_posts: np.ndarray  # post-state id per (state, action), action-lex order
    trn_offsets: np.ndarray  # (n+1,) int64
    trn_targets: np.ndarray
    trn_rates: np.ndarray
    cost_op: np.ndarray  # operational cost rate per post-state
    cost_fail: np.ndarray  # failure indicator per post-state
    outflow: np.ndarray

    @property
    def n_states(self) -> int:
        return self.states.shape[0]

    @property
    def n_types(self) -> int:
        return self.states.shape[1] // 2

    @property
    def n_state_actions(self) -> int:
        return int(self.act_posts.shape[0])

    @property
    def max_outflow(self) -> float:
        return float(self.outflow.max()) if self.n_states else 0.0

    def state_rows(self, sid: int) -> SystemState:
        row = self.states[sid]
        return tuple((int(row[2 * i]), int(row[2 * i + 1])) for i in range(self.n_types))

    def state_id(self, state) -> int:
        """Mixed-radix position of a state in the lexicographic order."""
        _check_state(state, self.bounds)
        code = 0
        for (s1, s2), m in zip(state, self.bounds):
            t = (m + 1) * (m + 2) // 2
            code = code * t + _pair_index(int(m), s1, s2)
        return int(code)

    def start_id(self, state) -> int:
        """Id of a starting state given by id in ``[0, n)`` or by its rows."""
        if isinstance(state, (int, np.integer)):
            if not 0 <= state < self.n_states:
                raise ValueError(
                    f"initial state {int(state)} outside [0, {self.n_states})"
                )
            return int(state)
        return self.state_id(tuple(state))

    def action_indices(self, actions) -> np.ndarray:
        """Index of each state's action in its lexicographic action list.

        ``actions`` holds one row of repair counts per type for every
        state, in state order; the list counts them mixed radix, type 0
        most significant, ``damaged + 1`` values per type.  A row of the
        wrong length, or with a count outside ``0..damaged``, raises
        ``ValueError`` naming its state.
        """
        width = self.n_types
        wrong = np.flatnonzero(np.fromiter(map(len, actions), np.int64) != width)
        if wrong.size:
            sid = int(wrong[0])
            raise ValueError(
                f"state {self.state_string(sid)}: action has "
                f"{len(actions[sid])} entries for {width} types"
            )
        acts = np.asarray(actions, dtype=np.int64)
        radix = self.states[:, 1::2].astype(np.int64) + 1
        bad = np.flatnonzero(((acts < 0) | (acts >= radix)).any(axis=1))
        if bad.size:
            sid = int(bad[0])
            raise ValueError(
                f"state {self.state_string(sid)}: action "
                f"{','.join(map(str, acts[sid]))} repairs outside 0..damaged copies"
            )
        choice = np.zeros(self.n_states, dtype=np.int64)
        for i in range(width):
            choice = choice * radix[:, i] + acts[:, i]
        return choice

    def action_vector(self, sid: int, post_id: int):
        pre = self.states[sid]
        post = self.states[post_id]
        return tuple(int(post[2 * i] - pre[2 * i]) for i in range(self.n_types))

    def state_string(self, sid: int) -> str:
        return "|".join(f"{s1},{s2}" for s1, s2 in self.state_rows(sid))


def _build_state_array(bounds):
    """Vectorized mixed-radix decode of the full box space."""
    n_types = len(bounds)
    tables = [np.array(_pair_list(m), dtype=np.int16) for m in bounds]
    sizes = np.array([t.shape[0] for t in tables], dtype=np.int64)
    total = int(np.prod(sizes))
    strides = np.ones(n_types, dtype=np.int64)
    for i in range(n_types - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    ids = np.arange(total, dtype=np.int64)
    states = np.empty((total, 2 * n_types), dtype=np.int16)
    for i in range(n_types):
        idx = (ids // strides[i]) % sizes[i]
        states[:, 2 * i : 2 * i + 2] = tables[i][idx]
    return states, strides, sizes


def _model_costs(instance, bounds, states):
    n, n_types = states.shape[0], len(bounds)
    repair = np.zeros(n)
    usage = np.zeros(n)
    failed = np.ones(n, dtype=bool)
    for i in range(n_types):
        comp = instance.components[i]
        s1 = states[:, 2 * i].astype(np.int64)
        s2 = states[:, 2 * i + 1].astype(np.int64)
        healthy = bounds[i] - s1 - s2
        repair += comp.repair_cost * s1
        first = failed & (healthy > 0)
        usage[first] = comp.usage_cost
        failed &= ~first
    return usage + repair, failed.astype(np.uint8)


def _model_transitions(instance, bounds, states, strides, repair_interruption):
    """CSR transition arrays; per state ordered by (type, failure, repair)."""
    n, n_types = states.shape[0], len(bounds)
    ids = np.arange(n, dtype=np.int64)
    srcs, tgts, rates = [], [], []
    for i in range(n_types):
        comp = instance.components[i]
        s1 = states[:, 2 * i].astype(np.int64)
        s2 = states[:, 2 * i + 1].astype(np.int64)
        healthy = bounds[i] - s1 - s2
        mask = healthy > 0
        if mask.any():
            srcs.append(ids[mask])
            tgts.append(ids[mask] + strides[i])
            rates.append(healthy[mask] * comp.alpha)
        mask = s1 > 0
        if mask.any():
            back = (bounds[i] - s1[mask] + 2) * strides[i]
            srcs.append(ids[mask])
            tgts.append(ids[mask] - back)
            rates.append(s1[mask] * comp.tau)
            if repair_interruption:
                srcs.append(ids[mask])
                tgts.append(ids[mask] - back + strides[i])
                rates.append(s1[mask] * comp.alpha)
    if srcs:
        src = np.concatenate(srcs)
        tgt = np.concatenate(tgts)
        rate = np.concatenate(rates)
    else:
        src = np.zeros(0, dtype=np.int64)
        tgt = np.zeros(0, dtype=np.int64)
        rate = np.zeros(0)
    order = np.argsort(src, kind="stable")
    src, tgt, rate = src[order], tgt[order], rate[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    offsets = np.cumsum(offsets)
    outflow = np.zeros(n)
    np.add.at(outflow, src, rate)
    return offsets, tgt, rate, outflow


def build_model(
    instance: Instance,
    design,
    *,
    repair_interruption: bool = False,
    ceiling: int | None = DEFAULT_STATE_CEILING,
) -> CtmdpModel:
    """Build the decision model of one fixed design."""
    design = tuple(int(x) for x in design)
    if len(design) != instance.n_types or any(x < 0 for x in design):
        raise ValueError(f"bad design {design} for {instance.n_types} types")
    bounds = np.array(design, dtype=np.int64)
    states, strides, sizes = _build_state_array(bounds)
    total = states.shape[0]
    if ceiling is not None and total > ceiling:
        raise StateSpaceError(
            f"design {design} yields {total} states, over the ceiling "
            f"of {ceiling}",
            report={"per_type": list(map(int, sizes)), "total": total, "ceiling": ceiling},
        )
    cost_op, cost_fail = _model_costs(instance, bounds, states)
    trn_off, trn_tgt, trn_rate, outflow = _model_transitions(
        instance, bounds, states, strides, repair_interruption
    )
    act_off, act_posts = _build_actions(bounds, states, strides)
    return CtmdpModel(
        instance=instance,
        design=design,
        bounds=bounds,
        repair_interruption=repair_interruption,
        states=states,
        act_offsets=act_off,
        act_posts=act_posts,
        trn_offsets=trn_off,
        trn_targets=trn_tgt,
        trn_rates=trn_rate,
        cost_op=cost_op,
        cost_fail=cost_fail,
        outflow=outflow,
    )


def _build_actions(bounds, states, strides):
    """Per-state post-id lists in action-lexicographic order."""
    n = states.shape[0]
    n_types = len(bounds)
    # per type, per pair index: post pair indices for each repair count
    post_lists = []
    for i in range(n_types):
        m = int(bounds[i])
        per_pair = []
        for s1, s2 in _pair_list(m):
            per_pair.append(
                [_pair_index(m, s1 + a, s2 - a) for a in range(s2 + 1)]
            )
        post_lists.append(per_pair)

    counts = np.ones(n, dtype=np.int64)
    for i in range(n_types):
        counts *= states[:, 2 * i + 1].astype(np.int64) + 1
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    posts = np.empty(offsets[-1], dtype=np.int64)
    stride_of = [int(s) for s in strides]
    pos = 0
    for sid in range(n):
        row = states[sid]
        options = []
        for i in range(n_types):
            m = int(bounds[i])
            pidx = _pair_index(m, int(row[2 * i]), int(row[2 * i + 1]))
            # pre-scale by the stride so a post id is just a sum
            options.append([p * stride_of[i] for p in post_lists[i][pidx]])
        for combo in itertools.product(*options):
            posts[pos] = sum(combo)
            pos += 1
    return offsets, posts


@dataclass(frozen=True)
class WeakCommunicationReport:
    weakly_communicating: bool
    transient_ids: tuple
    n_core_classes: int
    all_repairing_id: int


def _union_edges(model: CtmdpModel):
    """Directed edges of the union graph over every state-action pair."""
    n = model.n_states
    act_pre = np.repeat(
        np.arange(n, dtype=np.int64), np.diff(model.act_offsets)
    )
    posts = model.act_posts
    cnt = np.diff(model.trn_offsets)[posts]
    src = np.repeat(act_pre, cnt)
    starts = model.trn_offsets[posts]
    total = int(cnt.sum())
    if total == 0:
        return src[:0], src[:0]
    rep_starts = np.repeat(starts, cnt)
    seq = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(cnt) - cnt, cnt
    )
    tgt = model.trn_targets[rep_starts + seq]
    return src, tgt


def check_weakly_communicating(model: CtmdpModel) -> WeakCommunicationReport:
    """Structure check: one communicating core plus universally-transient rest.

    Communication existence between states is decided on the union graph
    of all state-action transitions: a cycle-free path there can always
    be realized by a single stationary policy.  States with no incoming
    union edges can never be revisited, hence are transient under every
    policy; the all-repairing state is the canonical example.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    n = model.n_states
    all_rep = model.state_id(tuple((int(m), 0) for m in model.bounds))
    if n == 1:
        return WeakCommunicationReport(True, (), 1, all_rep)

    src, tgt = _union_edges(model)
    indeg = np.bincount(tgt, minlength=n)
    transient = np.nonzero(indeg == 0)[0]
    graph = coo_matrix(
        (np.ones(len(src)), (src, tgt)), shape=(n, n)
    ).tocsr()
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
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
