"""Continuous-time Markov decision model of a parallel machine group.

States track, per component type, how many copies are under repair and
how many are damaged but not being repaired; the remaining installed
copies are the healthy ones.  Repair decisions are impulsive: starting
repairs moves damaged copies to repairing instantly, so the pair
(state, action) behaves exactly like the post-decision state with the
zero action.  Transitions and cost rates therefore live on post-decision
states, while action lists live on pre-decision states.

The state space is a box.  Each type's (repairing, damaged) pairs with
at most ``m`` copies are numbered lexicographically by ``_pair_index``,
and a state's id is mixed radix over the types, type 0 most significant.
Every move changes one type's pair, so it moves the state id by that
type's stride times a difference of ``_pair_index``: the state table,
the transitions and the action lists are all built from that one
formula, with array code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from parmaint.model import Instance

__all__ = [
    "DEFAULT_STATE_CEILING",
    "DEFAULT_PAIR_CEILING",
    "StateSpaceError",
    "CtmdpModel",
    "WeakCommunicationReport",
    "build_model",
    "check_weakly_communicating",
]

DEFAULT_STATE_CEILING = 5_000_000
# a build peaks at up to ~57 B a state-action pair (design (400,): 10.8 M
# pairs, +591 MB RSS), so this ceiling allows about 1.1 GB
DEFAULT_PAIR_CEILING = 20_000_000

# A system state is one (repairing, damaged) pair per component type.
SystemState = tuple


class StateSpaceError(RuntimeError):
    """State space exceeds the configured ceiling; carries a sizing report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


def _pair_index(m, s1, s2):
    """Lexicographic position of the pair (s1, s2) among the pairs with at
    most m copies; elementwise on arrays."""
    # pairs with first entry < s1 number sum_{t<s1}(m+1-t)
    return s1 * (m + 1) - s1 * (s1 - 1) // 2 + s2


def _pair_count(m):
    """Number of pairs with at most m copies."""
    return (m + 1) * (m + 2) // 2


def _moved(m, s1, s2, d1, d2):
    """Change of the pair index when (s1, s2) moves to (s1 + d1, s2 + d2)."""
    return _pair_index(m, s1 + d1, s2 + d2) - _pair_index(m, s1, s2)


def _pair_table(m: int) -> np.ndarray:
    """The pairs with at most m copies as int64 rows, in index order."""
    s1 = np.repeat(np.arange(m + 1), np.arange(m + 1, 0, -1))
    s2 = np.arange(s1.size) - _pair_index(m, s1, 0)
    return np.stack([s1, s2], axis=1)


def _runs(lengths, starts):
    """``starts[j], starts[j] + 1, ...``, ``lengths[j]`` of them, for each
    run j in turn, concatenated as one int32 array (all lengths >= 1)."""
    out = np.ones(lengths.sum(), dtype=np.int32)
    # a run's head steps from the previous run's last entry to its start
    ends = starts + lengths - 1
    out[np.cumsum(lengths) - lengths] = starts - np.concatenate(([0], ends[:-1]))
    return np.cumsum(out, dtype=np.int32, out=out)


@dataclass(eq=False)
class CtmdpModel:
    """Solver-ready arrays for one design's decision model.

    Action lists are stored per pre-decision state as post-decision state
    ids (impulsive semantics); transitions, cost rates and total outflow
    are stored per post-decision state in CSR layout, with each
    transition's source alongside.
    """

    instance: Instance
    design: tuple  # per-type copy counts, which bound each type's pairs
    states: np.ndarray  # (n, 2N) int16, lexicographic
    act_offsets: np.ndarray  # (n+1,) int64
    act_posts: np.ndarray  # post-state id per (state, action), action-lex order
    trn_offsets: np.ndarray  # (n+1,) int64
    trn_sources: np.ndarray  # int64 source state of each transition
    trn_targets: np.ndarray
    trn_rates: np.ndarray
    cost_op: np.ndarray  # operational cost rate per post-state
    cost_fail: np.ndarray  # failure indicator per post-state
    outflow: np.ndarray
    levels: np.ndarray  # (n,) int64 count of down copies (repairing + damaged)

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
        return float(self.outflow.max())

    def state_rows(self, sid: int) -> SystemState:
        row = self.states[sid]
        return tuple((int(row[2 * i]), int(row[2 * i + 1])) for i in range(self.n_types))

    def state_id(self, state) -> int:
        """Mixed-radix position of a state, given as one (repairing,
        damaged) pair per type, in the lexicographic order.  A state of
        the wrong length, a row that is no pair, or a pair outside its
        type's copy bound raises ``ValueError`` naming it."""
        if len(state) != len(self.design):
            raise ValueError(f"state has {len(state)} rows for {len(self.design)} types")
        sid = 0
        for pair, m in zip(state, self.design):
            if len(pair) != 2:
                raise ValueError(f"state row {tuple(pair)} is not a pair")
            s1, s2 = pair
            if not (0 <= s1 <= m and 0 <= s2 <= m - s1):
                raise ValueError(f"state row {(s1, s2)} violates copy bound {m}")
            sid = sid * _pair_count(m) + _pair_index(m, s1, s2)
        return int(sid)

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
        try:
            acts = np.asarray(actions, dtype=np.int64)
        except OverflowError:  # a count past int64, which the range check names
            acts = np.asarray(actions, dtype=object)
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

    def state_string(self, sid: int) -> str:
        return "|".join(f"{s1},{s2}" for s1, s2 in self.state_rows(sid))


def _build_state_array(design, sizes):
    """Vectorized mixed-radix decode of the full box space."""
    strides = np.ones(len(design), dtype=np.int64)
    strides[:-1] = np.cumprod(sizes[:0:-1])[::-1]
    ids = np.arange(int(np.prod(sizes)), dtype=np.int64)
    states = np.empty((ids.size, 2 * len(design)), dtype=np.int16)
    for i, m in enumerate(design):
        states[:, 2 * i : 2 * i + 2] = _pair_table(m)[(ids // strides[i]) % sizes[i]]
    return states, strides


def _model_costs(instance, design, states):
    n = states.shape[0]
    repair = np.zeros(n)
    usage = np.zeros(n)
    failed = np.ones(n, dtype=bool)
    for i, m in enumerate(design):
        comp = instance.components[i]
        s1 = states[:, 2 * i].astype(np.int64)
        s2 = states[:, 2 * i + 1].astype(np.int64)
        healthy = m - s1 - s2
        repair += comp.repair_cost * s1
        first = failed & (healthy > 0)
        usage[first] = comp.usage_cost
        failed &= ~first
    return usage + repair, failed.astype(np.uint8)


def _model_transitions(instance, design, states, strides):
    """CSR transition arrays; per state ordered by (type, failure, repair).

    Each type contributes two columns of candidate moves, a healthy copy
    failing and a repair completing; the live ones, read row by row,
    are the CSR entries.
    """
    ids = np.arange(states.shape[0], dtype=np.int64)
    live, targets, rates = [], [], []
    for i, m in enumerate(design):
        comp = instance.components[i]
        s1 = states[:, 2 * i].astype(np.int64)
        s2 = states[:, 2 * i + 1].astype(np.int64)
        healthy = m - s1 - s2
        for alive, d1, d2, rate in (
            (healthy > 0, 0, 1, healthy * comp.alpha),
            (s1 > 0, -1, 0, s1 * comp.tau),
        ):
            live.append(alive)
            targets.append(ids + _moved(m, s1, s2, d1, d2) * strides[i])
            rates.append(rate)
    live = np.stack(live, axis=1)
    offsets = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(live.sum(axis=1), out=offsets[1:])
    # a rate is zero wherever its move is not live, so summing the
    # columns in order adds each state's rates in CSR order
    outflow = np.zeros(ids.size)
    for rate in rates:
        outflow += rate
    return offsets, np.stack(targets, axis=1)[live], np.stack(rates, axis=1)[live], outflow


def _build_actions(design, states, strides, sizes):
    """Per-state post-id lists in action-lexicographic order.

    Expands every state's list type by type, type 0 first, so the last
    type's repair count varies fastest.  Each row carries the post id
    reached so far; since a repair moves only its own type's pair, type
    i's pair index in that id is still the pre-decision state's.
    """
    counts = np.prod(states[:, 1::2].astype(np.int64) + 1, axis=1)
    offsets = np.zeros(states.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    posts = np.arange(states.shape[0], dtype=np.int64)
    for i, m in enumerate(design):
        # per pair of this type: its repair counts a = 0..damaged, laid
        # out in runs from first[pair], with the id shift each one makes
        s1, s2 = _pair_table(m).T
        width = s2 + 1
        first = np.cumsum(width) - width
        repairs = _runs(width, np.zeros_like(width))
        shift = _moved(m, np.repeat(s1, width), np.repeat(s2, width), repairs, -repairs)
        # in the smallest signed type that holds every id difference, as
        # the gathered copy below is as long as the expanded list
        shift = (shift * strides[i]).astype(np.min_scalar_type(-states.shape[0]))
        pair = posts // strides[i] % sizes[i]
        reps = width[pair]
        slot = _runs(reps, first[pair])
        posts = np.repeat(posts, reps)
        posts += shift[slot]
    return offsets, posts


def build_model(instance: Instance, design) -> CtmdpModel:
    """Build the decision model of one design (``Instance.check_design``).
    Its states and state-action pairs are counted in Python ints before any
    array is made; more than ``DEFAULT_STATE_CEILING`` states or
    ``DEFAULT_PAIR_CEILING`` pairs raise ``StateSpaceError``, which names
    the design in catalog order."""
    design = instance.check_design(design)
    sizes = [_pair_count(m) for m in design]
    total = math.prod(sizes)
    # a pair (s1, s2) has s2 + 1 actions, (m+1)(m+2)(m+3)/6 over a type's pairs
    pairs = math.prod((m + 1) * (m + 2) * (m + 3) // 6 for m in design)
    ceiling, pair_ceiling = DEFAULT_STATE_CEILING, DEFAULT_PAIR_CEILING
    if total > ceiling or pairs > pair_ceiling:
        raise StateSpaceError(
            f"design {instance.to_catalog(design)} yields {total} states and "
            f"{pairs} state-action pairs, over the ceiling of {ceiling} states "
            f"or {pair_ceiling} pairs",
            report={"per_type": sizes, "total": total, "ceiling": ceiling,
                    "pairs": pairs, "pair_ceiling": pair_ceiling},
        )
    states, strides = _build_state_array(design, sizes)
    cost_op, cost_fail = _model_costs(instance, design, states)
    trn_off, trn_tgt, trn_rate, outflow = _model_transitions(
        instance, design, states, strides
    )
    act_off, act_posts = _build_actions(design, states, strides, sizes)
    return CtmdpModel(
        instance=instance,
        design=design,
        states=states,
        act_offsets=act_off,
        act_posts=act_posts,
        trn_offsets=trn_off,
        trn_sources=np.repeat(np.arange(len(states), dtype=np.int64), np.diff(trn_off)),
        trn_targets=trn_tgt,
        trn_rates=trn_rate,
        cost_op=cost_op,
        cost_fail=cost_fail,
        outflow=outflow,
        levels=states.sum(axis=1, dtype=np.int64),
    )


@dataclass(frozen=True)
class WeakCommunicationReport:
    weakly_communicating: bool
    transient_ids: tuple
    n_core_classes: int
    all_repairing_id: int


def check_weakly_communicating(model: CtmdpModel) -> WeakCommunicationReport:
    """Structure check: one communicating core plus universally-transient rest.

    Weak communication (Puterman, *Markov Decision Processes*, 1994,
    sec. 8.3) is decided on the layered graph of all actions, 2n nodes:
    each state points to the post-decision state of each of its actions,
    and each post-decision state to its transition targets.  A path
    between states there is a path of the union of all policies, and a
    cycle-free one is realized by one stationary policy.  Every state is
    the post-decision state of its own zero action, so the states no
    transition enters are exactly those never revisited, transient under
    every policy (the all-repairing state, for one).  The rest is the
    core, whose classes are the strong components on the pre-decision
    half.  Every transition enters the core, so a reverse search from a
    one-class core ends after two layers: the post-decision states with a
    transition, then the states with an action into one.  It must reach
    every transient state.
    """
    from parmaint.mdp_solve import _strong_components  # which imports this module

    n = model.n_states
    all_rep = model.state_id(tuple((m, 0) for m in model.design))
    if n == 1:
        return WeakCommunicationReport(True, (), 1, all_rep)

    # node i < n is state i, node n + u post-state u; int32 ids keep the peak low
    arcs = np.concatenate([np.diff(model.act_offsets), np.diff(model.trn_offsets)])
    src = np.repeat(np.arange(2 * n, dtype=np.int32), arcs)
    dst = np.concatenate([model.act_posts + n, model.trn_targets], dtype=np.int32, casting="unsafe")
    _, labels = _strong_components(2 * n, src, dst, np.ones(src.size, dtype=np.int8))

    entered = np.zeros(n, dtype=bool)
    entered[model.trn_targets] = True
    transient = np.flatnonzero(~entered)
    core_labels = np.unique(labels[:n][entered])
    ok = core_labels.size == 1
    if ok:
        moves = np.diff(model.trn_offsets) > 0
        reaches = np.logical_or.reduceat(moves[model.act_posts], model.act_offsets[:-1])
        ok = bool(reaches[transient].all())
    return WeakCommunicationReport(
        weakly_communicating=bool(ok),
        transient_ids=tuple(transient.tolist()),
        n_core_classes=int(core_labels.size),
        all_repairing_id=all_rep,
    )
