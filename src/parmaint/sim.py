"""Discrete-event validation of analytic long-run cost pairs.

Simulates the policy-induced jump chain on post-decision states with
competing exponential clocks (the direct method), as independently
replicated batches on split counter-based streams, and reports
batch-means estimates with standard errors.  A replication runs path
first: a scalar loop over the compiled chain (Python lists per node)
walks the jumps one chunk of uniforms at a time, picking each arc by
bisection, and numpy then prices the chunk: sojourns, clock, horizon
cut, cost integrals and failure entries.  Failure rates far below
1/horizon cannot be estimated tightly; reports carry a flag when fewer
than 100 failure entries were observed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = ["SimReport", "simulate_policy"]

MIN_FAILURE_ENTRIES = 100
# horizon * max outflow bounds the expected event count of a run; above
# this it would not finish in any useful time
SIM_EVENT_CEILING = 1e10
# replications per run, each on its own seeded stream; their means give
# the estimates and their spread the standard errors
BATCHES = 20
# uniforms per replication come in chunks that double up to the cap, two
# per event; the loop walks one chunk's jumps at a time, so a replication
# walks fewer than CHUNK_CAP / 2 jumps past its horizon
CHUNK_START = 64
CHUNK_CAP = 8192


@dataclass(frozen=True)
class SimReport:
    """Batch-means estimates of (cost rate, failure rate) for a policy."""

    g_o: float
    g_f: float
    se_g_o: float
    se_g_f: float
    horizon: float
    batches: int
    seed: int
    events: int
    failure_entries: int

    @property
    def rare_failure(self) -> bool:
        """Too few failure entries for a trustworthy g_f estimate."""
        return self.failure_entries < MIN_FAILURE_ENTRIES


def _compile(model, policy):
    """The policy's jump chain as one (total, cum, succ) node per post-state.

    Node i holds post-state i's outflow, its cumulative arc rates in arc
    order (self-loops kept) and its successor post-states composed
    through ``policy.post_ids``, as Python floats, ints and lists.  The
    successor list repeats its last arc once, so a draw that rounds past
    the last cumulative rate takes the last arc; an absorbing node has
    no successors.
    """
    off = model.trn_offsets.tolist()
    rates = model.trn_rates.tolist()
    post = policy.post_ids[model.trn_targets].tolist()
    nodes = []
    for lo, hi, total in zip(off, off[1:], model.outflow.tolist()):
        arcs = post[lo:hi]
        nodes.append((total, list(accumulate(rates[lo:hi])), arcs + arcs[-1:]))
    return nodes


def _replicate(model, nodes, cur, t_end, rng):
    """One replication from post-state ``cur`` over ``[0, t_end)``.

    Each chunk of uniforms (two per event: sojourn, then jump) is walked
    first, stopping at an absorbing node; its clock is one cumulative sum
    seeded with the carried time, cut before the first event at or past
    ``t_end``, so kept event i moves from ``path[i]`` to ``path[i + 1]``
    at ``clock[i + 1]``.  Nothing is drawn at an absorbing node or past
    the horizon.  The cost integrals are sequential sums seeded with the
    values carried over, so neither the events nor the integrals depend
    on the chunk sizes; an absorbing state accrues its costs to
    ``t_end``.  Returns (cost integral, failure-time integral, events,
    failure entries, final post-state).
    """
    c_o, c_f = model.cost_op, model.cost_fail
    t = acc_o = acc_f = 0.0
    events = fails = 0
    u = np.empty(0)
    chunk = CHUNK_START
    while nodes[cur][2]:
        u = np.concatenate((u, rng.random(chunk)))
        chunk = min(2 * chunk, CHUNK_CAP)
        path = [cur]
        for x in u[1::2].tolist():
            total, cum, succ = nodes[cur]
            if not succ:
                break
            cur = succ[bisect_right(cum, x * total)]
            path.append(cur)
        n = len(path) - 1
        path = np.fromiter(path, np.intp, n + 1)
        dt = -np.log1p(-u[: 2 * n : 2]) / model.outflow[path[:-1]]
        clock = np.cumsum(np.concatenate(([t], dt)))
        kept = int(np.searchsorted(clock[1:], t_end, "left"))
        path, dt = path[: kept + 1], dt[:kept]
        stay = path[:-1]
        acc_o = np.cumsum(np.concatenate(([acc_o], dt * c_o[stay])))[-1]
        acc_f = np.cumsum(np.concatenate(([acc_f], dt * c_f[stay])))[-1]
        failed = c_f[path]
        fails += int(np.count_nonzero(failed[1:] > failed[:-1]))
        events += kept
        t, cur = clock[kept], path[-1]
        if kept < n:
            break
        u = u[2 * n :]  # an odd chunk leaves one uniform for the next
    acc_o += (t_end - t) * c_o[cur]
    acc_f += (t_end - t) * c_f[cur]
    return float(acc_o), float(acc_f), events, fails, int(cur)


def _batch_runs(model, policy, horizon, seed):
    """The batches of a run from state 0: ``horizon`` split into
    ``BATCHES`` replications, each on its own Philox stream spawned from
    ``seed``.  Returns the per-batch g_o and g_f means as arrays and the
    per-batch event and failure-entry counts."""
    nodes = _compile(model, policy)
    start_post = int(policy.post_ids[0])
    t_batch = float(horizon) / BATCHES
    runs = [
        _replicate(model, nodes, start_post, t_batch, np.random.Generator(np.random.Philox(child)))
        for child in np.random.SeedSequence(seed).spawn(BATCHES)
    ]
    acc_o, acc_f, events, fails, _ = zip(*runs)
    return np.array(acc_o) / t_batch, np.array(acc_f) / t_batch, events, fails


def simulate_policy(model, policy, horizon: float, seed: int = 0) -> SimReport:
    """Estimate a policy's long-run cost pair by simulation.

    The horizon is split into ``BATCHES`` independent replications from
    state 0 (every copy working), each on its own spawned stream, so
    identical inputs give identical output and batch standard errors are
    honest.
    An absorbing state legally accrues its costs to the end of the
    batch.  A horizon whose bound on the expected event count (horizon
    times the model's largest outflow) exceeds ``SIM_EVENT_CEILING`` is
    rejected up front, as is a policy of another model.
    """
    if policy.model is not model:
        raise ValueError("policy belongs to another model")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    bound = horizon * model.max_outflow
    if bound > SIM_EVENT_CEILING:
        raise ValueError(
            f"horizon {horizon:g} allows up to {bound:.3g} expected events "
            f"(horizon times the largest outflow), over the ceiling of "
            f"{SIM_EVENT_CEILING:.3g}"
        )
    means_o, means_f, events, fails = _batch_runs(model, policy, horizon, seed)
    se_o = float(means_o.std(ddof=1) / math.sqrt(BATCHES))
    se_f = float(means_f.std(ddof=1) / math.sqrt(BATCHES))
    return SimReport(
        g_o=float(means_o.mean()),
        g_f=float(means_f.mean()),
        se_g_o=se_o,
        se_g_f=se_f,
        horizon=float(horizon),
        batches=BATCHES,
        seed=seed,
        events=sum(events),
        failure_entries=sum(fails),
    )
