"""Toolkit for sizing and maintaining parallel redundant systems.

Builds continuous-time Markov decision models of multi-type parallel
machine groups, optimizes the static purchase decision and the dynamic
repair policy, and produces bi-objective (operational cost rate vs.
log failure rate) Pareto fronts by heuristic, exact, and simulation
routes.
"""

from parmaint.model import (
    ComponentType,
    Instance,
    derive_failure_rate,
    load_instance,
)
from parmaint.ctmdp import CtmdpModel, build_model
from parmaint.mdp_solve import (
    GainPair,
    MaintenancePolicy,
    evaluate_policy,
    fully_active_policy,
    solve_average_cost,
)
from parmaint.dop import (
    StaticSolution,
    dop_objectives,
    probability_chain_values,
    solve_eps_delta_dop,
    solve_fdop,
    sp1_sweep,
)
from parmaint.app import (
    ParetoFront,
    SolutionPoint,
    emulating_policy,
    non_dom_filter,
    non_nested_designs,
    run_app,
    sp2,
)
from parmaint.exact import (
    compare_fronts,
    enumerate_feasible_designs,
    exact_front,
)
from parmaint.sim import SimReport, simulate_policy, trace_events

__version__ = "0.1.0"

__all__ = [
    "ComponentType",
    "Instance",
    "derive_failure_rate",
    "load_instance",
    "CtmdpModel",
    "build_model",
    "GainPair",
    "MaintenancePolicy",
    "evaluate_policy",
    "fully_active_policy",
    "solve_average_cost",
    "StaticSolution",
    "dop_objectives",
    "probability_chain_values",
    "solve_eps_delta_dop",
    "solve_fdop",
    "sp1_sweep",
    "ParetoFront",
    "SolutionPoint",
    "emulating_policy",
    "non_dom_filter",
    "non_nested_designs",
    "run_app",
    "sp2",
    "compare_fronts",
    "enumerate_feasible_designs",
    "exact_front",
    "SimReport",
    "simulate_policy",
    "trace_events",
]
