"""Analytic performance model (paper §3.3, Figs. 5, 6, 9-16).

Predicts per-step time, memory, throughput, and the
(curvature+inversion)/bubble ratio for any combination of

* Transformer architecture (Table 3: BERT/T5/OPT, Base/Large),
* hardware (NVIDIA P100, V100, RTX3090),
* pipeline schedule (GPipe, 1F1B, Chimera), and
* PipeFisher vs naive K-FAC vs K-FAC+skip execution strategies.
"""

from repro.perfmodel.hardware import Hardware, P100, V100, RTX3090, HARDWARE
from repro.perfmodel.arch import TransformerArch, ARCHITECTURES
from repro.perfmodel.costs import WorkCosts, StageCosts, compute_stage_costs
from repro.perfmodel.memory import MemoryModel, MemoryBreakdown
from repro.perfmodel.model import PipelinePerfModel, PerfReport

__all__ = [
    "Hardware",
    "P100",
    "V100",
    "RTX3090",
    "HARDWARE",
    "TransformerArch",
    "ARCHITECTURES",
    "WorkCosts",
    "StageCosts",
    "compute_stage_costs",
    "MemoryModel",
    "MemoryBreakdown",
    "PipelinePerfModel",
    "PerfReport",
]
