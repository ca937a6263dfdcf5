"""Neural ALU experiment (paper section VIII.C, Fig 19)."""

from repro.nalu.cost import (
    CostComparison,
    GE_DIGITAL,
    PAPER_AREA_RATIOS,
    compare_all,
    compare_operation,
    nalu_area_ge,
    total_alu_comparison,
)
from repro.nalu.model import NALUCell, NALUNetwork
from repro.nalu.training import (
    NALUResult,
    TASKS,
    make_dataset,
    run_all_tasks,
    train_task,
    train_tasks,
)

__all__ = [
    "NALUCell",
    "NALUNetwork",
    "NALUResult",
    "TASKS",
    "make_dataset",
    "train_task",
    "train_tasks",
    "run_all_tasks",
    "CostComparison",
    "GE_DIGITAL",
    "PAPER_AREA_RATIOS",
    "compare_all",
    "compare_operation",
    "nalu_area_ge",
    "total_alu_comparison",
]
