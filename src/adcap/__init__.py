"""Probabilistic available delivery capability for three-phase feeders.

Submodules: feeder (model, per-unit bases, branch blocks), stochastic (input
models), powerflow (admittance matrix, branch currents, Newton kernel),
continuation (margin tracing), chaos (polynomial chaos machinery),
assessment/report (pipelines and outputs), cli.
"""

__version__ = "0.1.0"
