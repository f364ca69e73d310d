"""The §3.3 analytic performance model.

Computes, for any (architecture, hardware, schedule, B_micro, D, N_micro):

* ``T_pipe = C_f T_f + C_b T_b`` and ``T_bubble = T_pipe - N(T_f + T_b)``;
* throughput (sequences/s) for four execution strategies —
  vanilla pipeline, PipeFisher (bubble filling; overhead = T_prec only),
  "K-FAC + skip" (naive K-FAC skipped to PipeFisher's refresh frequency),
  and naive K-FAC every step;
* the (curvature+inversion)/bubble ratio = pipeline steps needed per
  curvature refresh;
* the memory breakdown, with or without activation recomputation.

Critical-path constants (Table 1): for ``N_micro = D``,
``C_f = C_b = 2D - 1`` for GPipe and 1F1B (with flush), and
``C_f = D, C_b = 2D - 2`` for Chimera.  For ``N_micro > D`` the extra
micro-batches add ``(N - D)`` forward and backward slots on the critical
path in every scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.perfmodel.arch import TransformerArch
from repro.perfmodel.calibration import host_overhead
from repro.perfmodel.costs import StageCosts, compute_stage_costs
from repro.perfmodel.hardware import Hardware
from repro.perfmodel.memory import MemoryBreakdown, MemoryModel
from repro.pipeline.spec import get_spec, schedule_specs


def _critical_paths() -> dict:
    """(C_f, C_b) at N_micro = D per schedule, from the registry.

    Schedules whose spec declares no analytic critical path (interleaved)
    are excluded — the simulator covers them instead.
    """
    return {
        name: spec.critical_path
        for name, spec in schedule_specs().items()
        if spec.critical_path is not None
    }


@dataclass(frozen=True)
class PerfReport:
    """All §3.3 quantities for one configuration (times in seconds)."""

    t_fwd: float
    t_bwd: float
    t_pipe: float
    t_bubble: float
    t_curv_total: float      # N_micro * T_curv (fits into bubbles)
    t_inv: float             # T_inv (fits into bubbles)
    t_prec: float            # per-step overhead of PipeFisher
    ratio: float             # (curv+inv) / bubble
    refresh_steps: int       # ceil(ratio): steps per curvature refresh
    throughput_pipeline: float
    throughput_pipefisher: float
    throughput_kfac_skip: float
    throughput_kfac_naive: float
    memory: MemoryBreakdown

    @property
    def speedup_vs_kfac_skip(self) -> float:
        """PipeFisher throughput over K-FAC+skip (Fig. 6 bottom row)."""
        return self.throughput_pipefisher / self.throughput_kfac_skip


class PipelinePerfModel:
    """Performance model for one (arch, hardware, schedule) family.

    Parameters
    ----------
    arch, hardware:
        Architecture (Table 3 row) and device model.
    schedule:
        Any registered schedule whose spec declares an analytic critical
        path (``"gpipe"``, ``"1f1b"``, ``"chimera"``, ``"zb1f1b"``).
    layers_per_stage:
        Transformer blocks per pipeline stage (1 in the perf-model figures).
    include_overhead:
        Include the calibrated uncolored host overhead in step time.  The
        paper's Fig. 5/6 model excludes it (pure work model); the
        throughput points in Fig. 7/Table 2 include it.
    """

    def __init__(
        self,
        arch: TransformerArch,
        hardware: Hardware,
        schedule: str = "chimera",
        layers_per_stage: int = 1,
        include_overhead: bool = False,
        factor_blocks: int = 1,
    ) -> None:
        spec = get_spec(schedule)  # unknown names raise, listing all
        if spec.critical_path is None:
            raise ValueError(
                f"unknown schedule {schedule!r}; choose from "
                f"{sorted(_critical_paths())}"
            )
        self._spec = spec
        self.arch = arch
        self.hardware = hardware
        self.schedule = schedule
        self.layers_per_stage = layers_per_stage
        self.include_overhead = include_overhead
        #: Appendix A.2's K-block-diagonal factor approximation.
        self.factor_blocks = factor_blocks

    # -- core quantities -------------------------------------------------------

    def stage_costs(self, b_micro: int) -> StageCosts:
        return compute_stage_costs(
            self.arch,
            self.hardware,
            b_micro,
            layers_per_stage=self.layers_per_stage,
            overhead_s=host_overhead(self.schedule),
            factor_blocks=self.factor_blocks,
        )

    def pipe_time(self, b_micro: int, depth: int, n_micro: int,
                  recompute: bool = False) -> tuple[float, float, float]:
        """Return ``(T_fwd, T_bwd_effective, T_pipe)`` for one step.

        Activation recomputation adds one forward to every backward slot.
        """
        if n_micro < depth:
            raise ValueError(
                f"n_micro ({n_micro}) must be >= pipeline depth ({depth})"
            )
        costs = self.stage_costs(b_micro)
        t_f = costs.t_fwd
        t_b = costs.t_bwd + (t_f if recompute else 0.0)
        cf, cb = self._spec.critical_path(depth)
        extra = n_micro - depth
        t_pipe = (cf + extra) * t_f + (cb + extra) * t_b
        if self.include_overhead:
            t_pipe += costs.t_overhead
        return t_f, t_b, t_pipe

    # -- full report -------------------------------------------------------------

    def report(
        self,
        b_micro: int,
        depth: int,
        n_micro: int | None = None,
        recompute: bool = False,
    ) -> PerfReport:
        """Evaluate every §3.3 quantity for one configuration."""
        n_micro = depth if n_micro is None else n_micro
        costs = self.stage_costs(b_micro)
        t_f, t_b, t_pipe = self.pipe_time(b_micro, depth, n_micro, recompute)
        t_bubble = t_pipe - n_micro * (t_f + t_b)
        if self.include_overhead:
            t_bubble -= costs.t_overhead  # overhead is not usable bubble
        t_curv_total = n_micro * costs.t_curv
        t_inv = costs.t_inv
        t_prec = costs.t_prec
        ratio = (t_curv_total + t_inv) / max(t_bubble, 1e-12)
        refresh = max(1, math.ceil(ratio))

        seqs = n_micro * b_micro
        thr_pipe = seqs / t_pipe
        t_pf = t_pipe + t_prec
        thr_pf = seqs / t_pf
        # K-FAC + skip: curvature+inversion every `refresh` steps, not hidden.
        t_skip = t_pipe + t_prec + (t_curv_total + t_inv) / refresh
        thr_skip = seqs / t_skip
        # Naive K-FAC: all K-FAC work every step, not hidden.
        t_naive = t_pipe + t_prec + t_curv_total + t_inv
        thr_naive = seqs / t_naive

        stages_per_device = self._spec.stages_per_device(1)
        mem = MemoryModel(
            self.arch,
            layers_per_stage=self.layers_per_stage,
            stages_per_device=stages_per_device,
        ).breakdown(b_micro, n_micro, recompute=recompute)

        return PerfReport(
            t_fwd=t_f,
            t_bwd=t_b,
            t_pipe=t_pipe,
            t_bubble=t_bubble,
            t_curv_total=t_curv_total,
            t_inv=t_inv,
            t_prec=t_prec,
            ratio=ratio,
            refresh_steps=refresh,
            throughput_pipeline=thr_pipe,
            throughput_pipefisher=thr_pf,
            throughput_kfac_skip=thr_skip,
            throughput_kfac_naive=thr_naive,
            memory=mem,
        )

    def sweep(
        self,
        b_micro_values: list[int],
        depth_values: list[int],
        n_micro_factor: int = 1,
        recompute: bool = False,
    ) -> dict[tuple[int, int], PerfReport]:
        """Grid of reports keyed by ``(b_micro, depth)`` (Figs. 5, 6, 9-16).

        ``n_micro_factor`` sets N_micro = factor * D (the paper sweeps
        factors 1, 2, 3).
        """
        out: dict[tuple[int, int], PerfReport] = {}
        for b in b_micro_values:
            for d in depth_values:
                out[(b, d)] = self.report(
                    b, d, n_micro=n_micro_factor * d, recompute=recompute
                )
        return out
