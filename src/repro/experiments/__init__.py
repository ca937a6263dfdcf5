"""Per-table/figure reproductions of the paper's evaluation.

Each module exposes ``run() -> ExperimentResult``; ``python -m repro
experiments`` runs them through :mod:`repro.experiments.runner`, and
DESIGN.md has the experiment index.
"""

from repro.experiments.common import ExperimentResult, Metric

__all__ = ["ExperimentResult", "Metric"]
