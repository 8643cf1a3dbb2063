"""Component catalogs and problem instances.

An instance is a catalog of machine component types (failure/repair
rates and the various costs) together with linear purchase constraints
``A x <= b`` on the number of copies installed per type; each type
needs a positive coefficient in some row, which gives it a finite copy
bound.  Internally components are kept sorted by ascending usage cost
so that position in the catalog is also usage priority; the original
catalog order is retained for reporting.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "ComponentType",
    "Instance",
    "InstanceError",
    "derive_failure_rate",
    "load_instance",
    "make_instance",
    "instance_document",
    "write_instance",
]

STATIC_DELTA = 0.1  # inflation delta of the penalized static objective
ROW_TOL = 1e-9  # a design fits a constraint row when it overshoots by at most this


class InstanceError(ValueError):
    """Raised when an instance document fails validation."""


def derive_failure_rate(reliability: float, repair_rate: float) -> float:
    """Failure rate of a unit with given steady-state availability.

    A single always-repaired unit alternates between working and being
    repaired; its long-run fraction of time in working order is
    ``tau / (tau + alpha)``.  Given that availability and the repair
    rate ``tau``, the failure rate is ``alpha = tau (1 - p) / p``.
    """
    if not 0.0 < reliability < 1.0:
        raise InstanceError(f"reliability must lie in (0, 1), got {reliability}")
    if repair_rate <= 0.0:
        raise InstanceError(f"repair rate must be positive, got {repair_rate}")
    return repair_rate * (1.0 - reliability) / reliability


@dataclass(frozen=True)
class ComponentType:
    """One machine type from the purchase catalog."""

    alpha: float  # failure rate of a working unit
    tau: float  # repair completion rate of a unit under repair
    usage_cost: float  # cost rate while a unit of this type is the one in use
    repair_cost: float  # cost rate per unit of this type under repair
    install_cost: float  # purchase price (knapsack coefficient)
    weight: float  # weight (second knapsack coefficient)
    label: str = ""

    def __post_init__(self):
        if self.alpha <= 0.0 or not math.isfinite(self.alpha):
            raise InstanceError(f"failure rate must be positive, got {self.alpha}")
        if self.tau <= 0.0 or not math.isfinite(self.tau):
            raise InstanceError(f"repair rate must be positive, got {self.tau}")
        for name in ("usage_cost", "repair_cost", "install_cost", "weight"):
            val = getattr(self, name)
            if val < 0.0 or not math.isfinite(val):
                raise InstanceError(f"{name} must be non-negative, got {val}")

    @property
    def unavailability(self) -> float:
        return self.alpha / (self.tau + self.alpha)


@dataclass(frozen=True, eq=False)
class Instance:
    """A validated catalog plus purchase constraints, in canonical order.

    ``components`` are sorted by ascending usage cost (ties keep catalog
    order), so lower index means higher usage priority.  ``constraints``
    columns follow the same order.  ``catalog_order[i]`` gives the
    original catalog position of canonical slot ``i``.
    """

    components: tuple[ComponentType, ...]
    constraints: np.ndarray  # shape (R, N), non-negative
    constraint_bounds: np.ndarray  # shape (R,), non-negative
    constraint_names: tuple[str, ...]
    catalog_order: tuple[int, ...]
    copy_bounds: tuple[int, ...]

    @property
    def n_types(self) -> int:
        return len(self.components)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.components)

    def q_vector(self) -> np.ndarray:
        return np.array([c.unavailability for c in self.components])

    def ln_q_vector(self) -> np.ndarray:
        return np.log(self.q_vector())

    def usage_costs(self) -> np.ndarray:
        return np.array([c.usage_cost for c in self.components])

    def repair_costs(self) -> np.ndarray:
        return np.array([c.repair_cost for c in self.components])

    def check_design(self, design) -> tuple[int, ...]:
        """The design as a tuple of Python ints, so later checks stay exact;
        ``InstanceError`` names a wrong length or a count that is not a
        non-negative ``numbers.Integral`` (``1.5``, ``'2'``, ``-1``)."""
        if len(design) != self.n_types:
            raise InstanceError(f"design needs {self.n_types} counts, got {len(design)}")
        if not all(isinstance(c, numbers.Integral) and c >= 0 for c in design):
            raise InstanceError(f"design {tuple(design)} needs non-negative integer counts")
        return tuple(map(int, design))

    def is_feasible(self, design) -> bool:
        """Whether a design (canonical-order copy counts) fits the budget:
        every count within its type's copy bound, compared as Python ints,
        and then every row.  A design ``check_design`` rejects does not fit."""
        try:
            x = self.check_design(design)
        except InstanceError:
            return False
        if any(count > bound for count, bound in zip(x, self.copy_bounds)):
            return False
        slack = self.constraint_bounds.astype(float)
        for i, count in enumerate(x):  # the order dop's design listing subtracts in
            slack = slack - count * self.constraints[:, i]
        return bool(np.all(slack >= -ROW_TOL))

    def to_catalog(self, design) -> tuple[int, ...]:
        """Reorder canonical copy counts back to catalog positions."""
        out = [0] * self.n_types
        for slot, count in enumerate(design):
            out[self.catalog_order[slot]] = int(count)
        return tuple(out)

    def from_catalog(self, counts) -> tuple[int, ...]:
        """Canonical copy counts from catalog-ordered ones (``check_design``)."""
        counts = self.check_design(counts)
        return tuple(counts[pos] for pos in self.catalog_order)

    def _catalog_view(self):
        """Components and constraint columns back in catalog order."""
        slots = np.argsort(self.catalog_order)  # catalog position -> slot
        return [self.components[i] for i in slots], self.constraints[:, slots]

    def modified(self, usage_costs=None, repair_costs=None, rate_multipliers=None):
        """A new instance with catalog-ordered parameter overrides applied.

        ``rate_multipliers`` scales both alpha and tau of each type, which
        rescales that type's local time without moving its availability.
        The result is re-canonicalized, since usage-cost edits can change
        the priority order.
        """
        catalog, a_catalog = self._catalog_view()
        for name, values in (("usage_cost", usage_costs), ("repair_cost", repair_costs)):
            if values is None:
                continue
            if len(values) != self.n_types:
                raise InstanceError(f"need {self.n_types} values for {name}")
            catalog = [replace(c, **{name: float(v)}) for c, v in zip(catalog, values)]
        if rate_multipliers is not None:
            if len(rate_multipliers) != self.n_types:
                raise InstanceError(f"need {self.n_types} rate multipliers")
            for m in rate_multipliers:
                if m <= 0 or not math.isfinite(m):
                    raise InstanceError(f"rate multipliers must be positive, got {m}")
            catalog = [
                replace(c, alpha=c.alpha * float(m), tau=c.tau * float(m))
                for c, m in zip(catalog, rate_multipliers)
            ]
        return make_instance(
            catalog, a_catalog, self.constraint_bounds, self.constraint_names
        )


def make_instance(components, constraints, bounds, names=None) -> Instance:
    """Validate and canonicalize a catalog given in catalog order."""
    comps = list(components)
    if not comps:
        raise InstanceError("instance has an empty component catalog")
    n = len(comps)
    a = np.asarray(constraints, dtype=float)
    if a.ndim != 2 or a.shape[1] != n:
        raise InstanceError(
            f"constraint matrix must have one column per component type, "
            f"got shape {a.shape} for {n} types"
        )
    b = np.asarray(bounds, dtype=float).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise InstanceError(
            f"got {a.shape[0]} constraint rows but {b.shape[0]} bounds"
        )
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise InstanceError("constraint coefficients must be finite and non-negative")
    if np.any(b < 0) or not np.all(np.isfinite(b)):
        raise InstanceError("constraint bounds must be finite and non-negative")
    if names is None:
        names = tuple(f"row{j}" for j in range(a.shape[0]))
    names = tuple(str(s) for s in names)
    if len(names) != a.shape[0]:
        raise InstanceError("one name per constraint row required")

    comps = [
        replace(c, label=c.label or str(pos + 1)) for pos, c in enumerate(comps)
    ]
    labels = [c.label for c in comps]
    if len(set(labels)) != len(labels):
        raise InstanceError(f"duplicate component labels: {labels}")
    for comp in comps:
        if any(ch.isspace() for ch in comp.label):
            raise InstanceError(f"component label {comp.label!r} contains whitespace")
        if comp.unavailability == 0.0:  # ln q = -inf would poison every closed form
            raise InstanceError(f"component type {comp.label!r} has unavailability rounding to 0")

    # stable sort by usage cost: canonical index == usage priority
    order = sorted(range(n), key=lambda i: (comps[i].usage_cost, i))
    comps_sorted = tuple(comps[i] for i in order)
    a_sorted = a[:, order]

    copy_bounds = []
    for i, comp in enumerate(comps_sorted):
        rows = np.nonzero(a_sorted[:, i] > 0)[0]
        if not rows.size:
            raise InstanceError(
                f"component type {comp.label!r} is not limited by any constraint row"
            )
        limits = [float(b[j]) / float(a_sorted[j, i]) for j in rows]
        for j, limit in zip(rows, limits):
            if limit == math.inf:
                raise InstanceError(
                    f"constraint {names[j]!r} bound over the coefficient of "
                    f"component type {comp.label!r} overflows a float"
                )
        copy_bounds.append(min(math.floor(limit + 1e-12) for limit in limits))

    a_sorted.setflags(write=False)
    b.setflags(write=False)
    return Instance(
        components=comps_sorted,
        constraints=a_sorted,
        constraint_bounds=b,
        constraint_names=names,
        catalog_order=tuple(order),
        copy_bounds=tuple(copy_bounds),
    )


_COMPONENT_KEYS = {
    "p",
    "alpha",
    "tau",
    "usage_cost",
    "repair_cost",
    "install_cost",
    "weight",
}


def _number(value, record: str, field: str) -> float:
    """A numeric field of an instance record as a float.

    Only JSON numbers are accepted; anything else, numeric text,
    ``null``, booleans, lists and mappings included, and an integer too
    large for a float raise an InstanceError naming the record and the
    field.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise InstanceError(f"{record} field {field!r} is too large for a float") from None
    raise InstanceError(f"{record} field {field!r} must be a number, got {value!r}")


def _component_from_record(rec: dict, position: int) -> ComponentType:
    if not isinstance(rec, dict):
        raise InstanceError(f"component {position + 1} must be a mapping, got {rec!r}")
    unknown = set(rec) - _COMPONENT_KEYS - {"label"}
    if unknown:
        raise InstanceError(f"unknown component fields {sorted(unknown)}")
    record = f"component {rec.get('label', position + 1)!r}"
    missing = {"tau", "usage_cost", "repair_cost", "install_cost", "weight"} - set(rec)
    if missing:
        raise InstanceError(f"{record} is missing fields {sorted(missing)}")
    tau = _number(rec["tau"], record, "tau")
    p = rec.get("p")
    alpha = rec.get("alpha")
    if p is None and alpha is None:
        raise InstanceError(
            f"{record} needs either a failure rate (alpha) or a reliability (p)"
        )
    if alpha is not None:
        alpha = _number(alpha, record, "alpha")
    if p is not None:
        derived = derive_failure_rate(_number(p, record, "p"), tau)
        if alpha is not None and not math.isclose(alpha, derived, rel_tol=1e-9):
            raise InstanceError(
                f"{record} gives both alpha={alpha} and p={p}, which disagree"
            )
        alpha = derived
    return ComponentType(
        alpha=alpha,
        tau=tau,
        usage_cost=_number(rec["usage_cost"], record, "usage_cost"),
        repair_cost=_number(rec["repair_cost"], record, "repair_cost"),
        install_cost=_number(rec["install_cost"], record, "install_cost"),
        weight=_number(rec["weight"], record, "weight"),
        label=str(rec.get("label", "")),
    )


def _instance_from_document(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise InstanceError(f"expected a mapping document, got {type(doc).__name__}")
    comps = doc.get("components")
    if not comps:
        raise InstanceError("document has no components")
    rows = doc.get("constraints", [])
    if not isinstance(comps, list) or not isinstance(rows, list):
        raise InstanceError("components and constraints must be lists")
    components = [_component_from_record(rec, i) for i, rec in enumerate(comps)]
    n = len(components)
    a = np.zeros((len(rows), n))
    b = np.zeros(len(rows))
    names = []
    for j, row in enumerate(rows):
        if not isinstance(row, dict):
            raise InstanceError(f"constraint row {j} must be a mapping, got {row!r}")
        coeffs = row.get("coefficients")
        if coeffs is None or "bound" not in row:
            raise InstanceError(f"constraint row {j} needs coefficients and a bound")
        record = f"constraint {row.get('name', j)!r}"
        if not isinstance(coeffs, list):
            raise InstanceError(f"{record} coefficients must be a list, got {coeffs!r}")
        if len(coeffs) != n:
            raise InstanceError(
                f"{record} has {len(coeffs)} coefficients for {n} component types"
            )
        a[j] = [_number(v, record, f"coefficients[{k}]") for k, v in enumerate(coeffs)]
        b[j] = _number(row["bound"], record, "bound")
        names.append(str(row.get("name", f"row{j}")))
    return make_instance(components, a, b, names)


def load_instance(source) -> Instance:
    """Load an instance from a JSON file's path or an already-parsed
    document (``{"components": [...], "constraints": [...]}``)."""
    if isinstance(source, dict):
        return _instance_from_document(source)
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InstanceError(f"cannot read instance file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer past the interpreter's digit limit
        raise InstanceError(f"{path}: invalid JSON: {exc}") from exc
    return _instance_from_document(doc)


def instance_document(instance: Instance) -> dict:
    """Catalog-ordered plain document for an instance (JSON-ready)."""
    comps, a = instance._catalog_view()
    return {
        "components": [
            {
                "label": c.label,
                "alpha": c.alpha,
                "tau": c.tau,
                "usage_cost": c.usage_cost,
                "repair_cost": c.repair_cost,
                "install_cost": c.install_cost,
                "weight": c.weight,
            }
            for c in comps
        ],
        "constraints": [
            {
                "name": instance.constraint_names[j],
                "coefficients": list(a[j]),
                "bound": float(instance.constraint_bounds[j]),
            }
            for j in range(a.shape[0])
        ],
    }


def write_instance(instance: Instance, path) -> None:
    """Write ``instance`` as a JSON document ``load_instance`` reads back exactly."""
    Path(path).write_text(json.dumps(instance_document(instance), indent=2) + "\n")
