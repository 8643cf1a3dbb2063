"""Discrete-event validation of analytic long-run cost pairs.

Simulates the policy-induced chain on post-decision states with
competing exponential clocks, as independently replicated batches on
split counter-based streams, and reports batch-means estimates with
standard errors.  Failure rates far below 1/horizon cannot be estimated
tightly; reports carry a flag when fewer than 100 failure entries were
observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SimReport", "simulate_policy", "trace_events"]

MIN_FAILURE_ENTRIES = 100
# horizon * max outflow bounds the expected event count of a run; above
# this it would not finish in any useful time
SIM_EVENT_CEILING = 1e10
CHUNK_START = 4096
CHUNK_MAX = 1 << 20


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


def _batch_arrays(model, policy):
    return (
        policy.post_ids,
        model.trn_offsets,
        model.trn_targets,
        model.trn_rates,
        model.outflow,
        model.cost_op,
        model.cost_fail,
    )


def _sim_loop(
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


def _run_batch(arrays, start_post, t_limit, rng):
    """One replication; refills the uniform buffer as the kernel drains it."""
    acc_o = acc_f = 0.0
    events = fails = 0
    cur = start_post
    remaining = t_limit
    chunk = CHUNK_START
    while True:
        uniforms = rng.random(chunk)
        d_o, d_f, d_ev, d_fail, cur, t, _, exhausted = _sim_loop(
            cur, remaining, *arrays, uniforms
        )
        acc_o += d_o
        acc_f += d_f
        events += d_ev
        fails += d_fail
        remaining -= t
        if not exhausted:
            break
        chunk = min(chunk * 2, CHUNK_MAX)
    return acc_o, acc_f, events, fails


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
    if batches < 2:
        raise ValueError(f"need at least 2 batches, got {batches}")
    bound = horizon * model.max_outflow
    if bound > SIM_EVENT_CEILING:
        raise ValueError(
            f"horizon {horizon:g} allows up to {bound:.3g} expected events "
            f"(horizon times the largest outflow), over the ceiling of "
            f"{SIM_EVENT_CEILING:.3g}"
        )
    arrays = _batch_arrays(model, policy)
    start_post = int(policy.post_ids[model.start_id(initial_state)])
    t_batch = float(horizon) / batches
    children = np.random.SeedSequence(seed).spawn(batches)
    means_o = np.zeros(batches)
    means_f = np.zeros(batches)
    events = fails = 0
    for b in range(batches):
        rng = np.random.Generator(np.random.Philox(children[b]))
        acc_o, acc_f, d_ev, d_fail = _run_batch(arrays, start_post, t_batch, rng)
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

    Pure-python companion to :func:`simulate_policy` for eyeballing
    sample paths; uses its own stream and is not meant for estimation.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    rows = []
    cur = int(policy.post_ids[model.start_id(initial_state)])
    t = 0.0
    toff, ttgt, trate = model.trn_offsets, model.trn_targets, model.trn_rates
    while t < horizon and len(rows) < limit:
        total = model.outflow[cur]
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t >= horizon:
            break
        x = rng.random() * total
        nxt = int(ttgt[toff[cur + 1] - 1])
        acc = 0.0
        for k in range(toff[cur], toff[cur + 1]):
            acc += trate[k]
            if x < acc:
                nxt = int(ttgt[k])
                break
        newpost = int(policy.post_ids[nxt])
        rows.append((t, model.state_string(cur), model.state_string(newpost)))
        cur = newpost
    return rows
