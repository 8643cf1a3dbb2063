"""Discrete-event validation of analytic long-run cost pairs.

Simulates the policy-induced jump chain on post-decision states with
competing exponential clocks (the direct method), as independently
replicated batches on split counter-based streams, and reports
batch-means estimates with standard errors.  The chain is compiled once
per call into one tuple of Python floats and lists per node (outflow,
cost rates, cumulative arc rates, successor post-states); each
replication is one scalar loop over them that keeps an absolute clock,
draws two uniforms per event and picks the arc by bisection.  Failure rates far below 1/horizon cannot be
estimated tightly; reports carry a flag when fewer than 100 failure
entries were observed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = ["SimReport", "simulate_policy", "trace_events"]

MIN_FAILURE_ENTRIES = 100
# horizon * max outflow bounds the expected event count of a run; above
# this it would not finish in any useful time
SIM_EVENT_CEILING = 1e10
# each batch gets its own seeded stream, allocated before the run; a
# count past this is a typo, not a run
MAX_BATCHES = 10_000
# uniforms per replication come in chunks that double up to the cap, so
# the float lists stay small
CHUNK_START = 4096
CHUNK_CAP = 1 << 16


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
    batch_g_o: tuple
    batch_g_f: tuple

    @property
    def rare_failure(self) -> bool:
        """Too few failure entries for a trustworthy g_f estimate."""
        return self.failure_entries < MIN_FAILURE_ENTRIES

    @property
    def ln_g_f(self) -> float:
        if self.g_f <= 0.0:
            return -math.inf
        return math.log(self.g_f)


def _compile(model, policy):
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
        nodes.append((total, c_o, c_f, list(accumulate(rates[lo:hi])), arcs + arcs[-1:]))
    return nodes


def _replicate(nodes, cur, t_end, rng, chunk=CHUNK_START):
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


def simulate_policy(
    model,
    policy,
    horizon: float,
    batches: int = 20,
    seed: int = 0,
    initial_state: int = 0,
) -> SimReport:
    """Estimate a policy's long-run cost pair by simulation.

    The horizon is split into ``batches`` independent replications from
    the initial state, each on its own spawned stream, so identical
    inputs give identical output and batch standard errors are honest.
    An absorbing state legally accrues its costs to the end of the
    batch.  A horizon whose bound on the expected event count (horizon
    times the model's largest outflow) exceeds ``SIM_EVENT_CEILING`` is
    rejected up front.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if not 2 <= batches <= MAX_BATCHES:
        raise ValueError(f"batches must lie in [2, {MAX_BATCHES}], got {batches}")
    bound = horizon * model.max_outflow
    if bound > SIM_EVENT_CEILING:
        raise ValueError(
            f"horizon {horizon:g} allows up to {bound:.3g} expected events "
            f"(horizon times the largest outflow), over the ceiling of "
            f"{SIM_EVENT_CEILING:.3g}"
        )
    nodes = _compile(model, policy)
    start_post = int(policy.post_ids[model.start_id(initial_state)])
    t_batch = float(horizon) / batches
    children = np.random.SeedSequence(seed).spawn(batches)
    means_o = np.zeros(batches)
    means_f = np.zeros(batches)
    events = fails = 0
    for b in range(batches):
        rng = np.random.Generator(np.random.Philox(children[b]))
        acc_o, acc_f, d_ev, d_fail, _ = _replicate(nodes, start_post, t_batch, rng)
        means_o[b] = acc_o / t_batch
        means_f[b] = acc_f / t_batch
        events += d_ev
        fails += d_fail
    se_o = float(means_o.std(ddof=1) / math.sqrt(batches))
    se_f = float(means_f.std(ddof=1) / math.sqrt(batches))
    return SimReport(
        g_o=float(means_o.mean()),
        g_f=float(means_f.mean()),
        se_g_o=se_o,
        se_g_f=se_f,
        horizon=float(horizon),
        batches=batches,
        seed=seed,
        events=events,
        failure_entries=fails,
        batch_g_o=tuple(means_o),
        batch_g_f=tuple(means_f),
    )


def trace_events(model, policy, horizon: float, seed: int = 0, limit: int = 1000, initial_state: int = 0):
    """First ``limit`` simulated events as (time, state, next state) rows.

    Companion to :func:`simulate_policy` for eyeballing sample paths: it
    steps the same compiled chain on the stream of the first replication
    of ``simulate_policy`` with the same seed, so its rows are that
    replication's opening events.
    """
    nodes = _compile(model, policy)
    child = np.random.SeedSequence(seed).spawn(1)[0]
    rng = np.random.Generator(np.random.Philox(child))
    rows = []
    cur = int(policy.post_ids[model.start_id(initial_state)])
    t = 0.0
    while len(rows) < limit:
        total, _, _, cum, succ = nodes[cur]
        if total <= 0.0:
            break
        u_time, u_jump = rng.random(2).tolist()
        t += -math.log1p(-u_time) / total
        if t >= horizon:
            break
        nxt = succ[bisect_right(cum, u_jump * total)]
        rows.append((t, model.state_string(cur), model.state_string(nxt)))
        cur = nxt
    return rows
