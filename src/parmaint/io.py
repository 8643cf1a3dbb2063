"""Readers and writers for the toolkit's text artifacts.

All numeric output uses 12 significant digits so files compare stably
across runs and platforms.  Design columns are always written in the
order of the user's catalog, labeled ``x_<label>``, and front files are
read back in that order.  See FORMATS.md at the repository root for the
full format reference.
"""

from __future__ import annotations

import math
from itertools import repeat

import numpy as np

from parmaint.app import ParetoFront, SolutionPoint
from parmaint.mdp_solve import MaintenancePolicy

__all__ = [
    "fmt",
    "write_static_table",
    "write_front",
    "read_front",
    "write_plot_data",
    "write_gain_report",
    "write_policy",
    "read_policy",
    "write_sim_report",
    "write_compare_report",
]


def fmt(x) -> str:
    """12-significant-digit text for a number; '-' for missing.  A signed
    zero is written as 0."""
    if x is None:
        return "-"
    x = float(x) + 0.0
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.12g" % x


def _parse_opt(tok: str):
    return None if tok == "-" else float(tok)


def _design_header(instance) -> list:
    labels = [None] * instance.n_types
    for slot, lab in enumerate(instance.labels):
        labels[instance.catalog_order[slot]] = f"x_{lab}"
    return labels


def _write_table(path, comments, columns, rows) -> None:
    """``# `` comment lines, the header, then one line of tokens per row."""
    with open(path, "w") as fh:
        fh.writelines(f"# {comment}\n" for comment in comments)
        fh.write(" ".join(columns) + "\n")
        fh.writelines(" ".join(row) + "\n" for row in rows)


def _write_report(path, title, items) -> None:
    """The ``# `` title line, then one ``key = text`` line per item."""
    with open(path, "w") as fh:
        fh.write(f"# {title}\n")
        fh.writelines(f"{key} = {text}\n" for key, text in items)


def _read_table(path, kind, accepts):
    """The notes, header tokens and data lines of a table file; a header
    that ``accepts`` rejects raises ``ValueError``."""
    notes, lines = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# note: "):
                notes.append(line[len("# note: ") :])
            elif line and not line.startswith("#"):
                lines.append(line)
    header = lines[0].split() if lines else []
    if not accepts(header):
        raise ValueError(f"{path} has no {kind} header")
    return notes, header, lines[1:]


# ---------------------------------------------------------------- static table


def write_static_table(path, instance, solutions) -> None:
    """Static front rows: design counts, cost pair, and origin tag."""
    rows = (
        [*map(str, instance.to_catalog(s.design)), fmt(s.g_o), fmt(s.ln_g_f), s.tag]
        for s in solutions
    )
    cols = _design_header(instance) + ["g_o", "ln_g_f", "tag"]
    _write_table(path, ["parmaint static front"], cols, rows)


# ----------------------------------------------------------------------- front


def write_front(path, instance, front) -> None:
    """Front rows: provenance, design counts, penalty, cost pair."""
    rows = (
        [p.provenance, *map(str, instance.to_catalog(p.design))]
        + [fmt(p.penalty), fmt(p.g_o), fmt(p.ln_g_f)]
        for p in front.points
    )
    comments = ["parmaint front"] + [f"note: {note}" for note in front.notes]
    cols = ["provenance"] + _design_header(instance) + ["p", "g_o", "ln_g_f"]
    _write_table(path, comments, cols, rows)


def read_front(path) -> ParetoFront:
    """Load a front file; designs stay in the file's catalog order."""
    notes, header, lines = _read_table(
        path, "front", lambda h: h[:1] == ["provenance"] and h[-3:] == ["p", "g_o", "ln_g_f"]
    )
    n = len(header) - 4  # provenance, p, g_o, ln_g_f
    points = []
    for line in lines:
        toks = line.split()
        if len(toks) != n + 4:
            raise ValueError(f"bad front row: {line!r}")
        try:
            design = tuple(int(t) for t in toks[1 : n + 1])
            penalty, g_o, ln_g_f = _parse_opt(toks[n + 1]), float(toks[n + 2]), float(toks[n + 3])
        except ValueError as exc:
            raise ValueError(f"bad front row {line!r}: {exc}") from None
        if not math.isfinite(g_o) or math.isnan(ln_g_f):
            raise ValueError(f"bad front values: {line!r}")
        points.append(SolutionPoint(g_o, ln_g_f, design, toks[0], penalty))
    return ParetoFront(points=tuple(points), notes=tuple(notes))


def write_plot_data(path, instance, front) -> None:
    """Per-design series of (g_o, ln_g_f) rows for external plotting."""
    series = {}
    for p in front.points:
        series.setdefault(instance.to_catalog(p.design), []).append(p)
    with open(path, "w") as fh:
        fh.write("# parmaint plot data: g_o ln_g_f per design series\n")
        for design in sorted(series):
            fh.write(f"\n# series: {','.join(str(c) for c in design)}\n")
            for p in sorted(series[design], key=lambda q: (q.g_o, -q.ln_g_f)):
                fh.write(f"{fmt(p.g_o)} {fmt(p.ln_g_f)}\n")


# ---------------------------------------------------------------- gain reports


def write_gain_report(path, instance, design, penalty, gain) -> None:
    counts = " ".join(map(str, instance.to_catalog(design)))
    items = [("design", counts), ("penalty", fmt(penalty))]
    items += [(key, fmt(getattr(gain, key))) for key in ("g_o", "g_f", "ln_g_f")]
    _write_report(path, "parmaint gain report", items)


# --------------------------------------------------------------------- policy


def write_policy(path, model, policy) -> None:
    """One row per state: the state and the repairs the policy starts."""
    states = model.states
    repairs = states[policy.post_ids, 0::2] - states[:, 0::2]
    n = model.n_types
    state, action = "|".join(["{},{}"] * n), ",".join(["{}"] * n)
    pairs = zip(states.tolist(), repairs.tolist())
    rows = ((state.format(*s), action.format(*a)) for s, a in pairs)
    key = "state = s_repairing,s_damaged per type; action = repairs per type"
    _write_table(path, ["parmaint policy", key], ["state", "action"], rows)


# a count outside int64 is outside every model, and names its row as such
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def _policy_row(line, model):
    """The state counts, flattened, and the action of one policy row."""
    toks = line.split()
    if len(toks) != 2:
        raise ValueError(f"bad policy row: {line!r}")
    try:
        pairs = toks[0].split("|")
        counts = list(map(int, toks[0].replace("|", ",").split(",")))
        if (
            len(pairs) != model.n_types
            or set(map(str.count, pairs, repeat(","))) != {1}
            or not _INT64_MIN <= min(counts) <= max(counts) <= _INT64_MAX
        ):
            # raises, naming the misshapen part or the count
            model.state_id([[int(v) for v in pair.split(",")] for pair in pairs])
        action = list(map(int, toks[1].split(",")))
    except ValueError as exc:
        raise ValueError(f"bad policy row {line!r}: {exc}") from None
    return counts, action


def read_policy(path, model) -> MaintenancePolicy:
    """The policy of a file ``write_policy`` wrote for this model.

    Every state needs exactly one row, and its action may repair at most
    the state's damaged copies of each type; anything else raises
    ``ValueError`` naming the row or state: malformed tokens first,
    then, in file order, a state outside the model or a repeated state.
    """
    _, _, lines = _read_table(path, "policy", lambda h: h == ["state", "action"])
    rows = [_policy_row(line, model) for line in lines]
    ids = model.state_ids([counts for counts, _ in rows])
    later = np.ones(ids.size, dtype=bool)
    later[np.unique(ids, return_index=True)[1]] = False  # rows after their state's first
    bad = np.flatnonzero((ids < 0) | later)
    if bad.size:
        row = int(bad[0])
        if ids[row] >= 0:
            raise ValueError(f"policy file repeats state {model.state_string(int(ids[row]))}")
        counts = rows[row][0]
        try:
            model.state_id(list(zip(counts[0::2], counts[1::2])))  # raises
        except ValueError as exc:
            raise ValueError(f"bad policy row {lines[row]!r}: {exc}") from None
    row_of = np.full(model.n_states, -1, dtype=np.int64)
    row_of[ids] = np.arange(ids.size)
    if ids.size < model.n_states:
        missing = int(np.flatnonzero(row_of < 0)[0])
        raise ValueError(f"policy file misses state {model.state_string(missing)}")
    return MaintenancePolicy(model, model.action_indices([rows[i][1] for i in row_of.tolist()]))


# ---------------------------------------------------------------- sim reports


def write_sim_report(path, report) -> None:
    floats = ("g_o", "se_g_o", "g_f", "se_g_f", "horizon")
    ints = ("batches", "seed", "events", "failure_entries")
    items = [(key, fmt(getattr(report, key))) for key in floats]
    items += [(key, str(getattr(report, key))) for key in ints]
    items.append(("rare_failure", "yes" if report.rare_failure else "no"))
    _write_report(path, "parmaint simulation report", items)


# ------------------------------------------------------------ compare reports


def write_compare_report(path, report) -> None:
    """Per-point verdicts of one front judged against another.

    Design counts pass through in the order of the compared fronts,
    which front files keep in catalog order.
    """
    n = len(report.entries[0].point.design) if report.entries else 0
    cols = (
        ["status", "provenance"]
        + [f"x_{i + 1}" for i in range(n)]
        + ["p", "g_o", "ln_g_f", "distance", "dom_provenance", "dom_p", "dom_g_o", "dom_ln_g_f"]
    )
    comments = ["parmaint front comparison", f"tolerance = {fmt(report.tolerance)}"]
    comments += [f"{s} = {report.count(s)}" for s in ("matched", "dominated", "absent")]
    rows = []
    for e in report.entries:
        p, d = e.point, e.dominator
        row = [e.status, p.provenance, *map(str, p.design)]
        row += [fmt(p.penalty), fmt(p.g_o), fmt(p.ln_g_f), fmt(e.distance)]
        row += ["-"] * 4 if d is None else [d.provenance, fmt(d.penalty), fmt(d.g_o), fmt(d.ln_g_f)]
        rows.append(row)
    _write_table(path, comments, cols, rows)
