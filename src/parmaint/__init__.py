"""Toolkit for sizing and maintaining parallel redundant systems.

Builds continuous-time Markov decision models of multi-type parallel
machine groups, optimizes the static purchase decision and the dynamic
repair policy, and produces bi-objective (operational cost rate vs.
log failure rate) Pareto fronts by heuristic, exact, and simulation
routes.  Each name is imported from its submodule.
"""

__version__ = "0.1.0"
