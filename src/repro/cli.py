"""Command-line reproduction runner: ``python -m repro.cli [experiment]``.

Runs one (or all) of the paper's experiments and prints the same rows and
series the paper reports — the no-pytest path to the results.

Examples::

    python -m repro.cli fig3
    python -m repro.cli table2
    python -m repro.cli all          # everything except the slow fig7
    python -m repro.cli fig7         # the convergence run (~40 s)

The declarative campaign layer has its own subcommand family::

    python -m repro.cli campaign list
    python -m repro.cli campaign run zb --run-dir runs/zb --shard 1/3
    python -m repro.cli campaign diff zb
    python -m repro.cli campaign regen-goldens

(see :mod:`repro.campaign.cli`).

The capacity-planning service runs as its own subcommand::

    python -m repro.cli serve --port 8080 --state-dir runs/service

(see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial


def _fig1() -> None:
    from repro.experiments.fig1 import format_fig1, run_fig1

    print(format_fig1(run_fig1()))


def _fig3() -> None:
    from repro.experiments.fig3 import format_fig3, run_fig3

    print(format_fig3(run_fig3()))


def _fig4() -> None:
    from repro.experiments.fig4 import format_fig4, run_fig4

    print(format_fig4(run_fig4()))


def _fig5() -> None:
    from repro.experiments.perfmodel_figs import format_perf_figure, run_fig5

    print(format_perf_figure(run_fig5()))


def _fig6() -> None:
    from repro.experiments.perfmodel_figs import format_perf_figure, run_fig6_sweep

    out = run_fig6_sweep(b_micro_values=(1, 4, 16, 64), depth_values=(4, 8, 16))
    for key in (("P100", 1), ("V100", 1), ("RTX3090", 1)):
        print(format_perf_figure(out[key]))
        print()


def _fig7() -> None:
    from repro.experiments.fig7 import format_fig7, run_fig7

    print("training NVLAMB and K-FAC (this takes ~40 s) ...")
    print(format_fig7(run_fig7()))


def _fig8() -> None:
    from repro.experiments.fig8 import run_fig8

    r = run_fig8()
    print(f"{'step':>6s} {'NVLAMB':>10s} {'K-FAC':>10s}")
    for step in (1, 300, 600, 1000, 2000, 4000, 7038):
        print(f"{step:6d} {r.nvlamb_lr[step - 1]:10.6f} {r.kfac_lr[step - 1]:10.6f}")
    print(f"crossover at step {r.crossover_step} (paper: ~2,000)")


def _interleaved() -> None:
    from repro.experiments.interleaved import (
        format_interleaved_sweep,
        run_interleaved_sweep,
    )

    print(format_interleaved_sweep(run_interleaved_sweep()))


def _zb() -> None:
    from repro.experiments.zb import format_zb_sweep, run_zb_sweep

    print(format_zb_sweep(run_zb_sweep()))


def _schedule(schedule: str = "zb1f1b") -> None:
    from repro.experiments.zb import format_schedule_panel, run_schedule_panel

    print(format_schedule_panel(run_schedule_panel(schedule)))


def _robustness() -> None:
    from repro.experiments.robustness import format_robustness, run_robustness

    print(format_robustness(run_robustness()))


def _fig9_10() -> None:
    from repro.experiments.perfmodel_figs import format_perf_figure, run_fig9_10

    for arch in ("BERT-Base", "BERT-Large"):
        for sched in ("gpipe", "chimera"):
            print(format_perf_figure(run_fig9_10(arch, sched)))
            print()


def _table2() -> None:
    from repro.experiments.table2 import format_table2, run_table2

    print(format_table2(run_table2()))


def _table3() -> None:
    from repro.experiments.table3 import format_table3, run_table3

    print(format_table3(run_table3()))


EXPERIMENTS = {
    "fig1": _fig1,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9-10": _fig9_10,
    "table2": _table2,
    "table3": _table3,
    "interleaved": _interleaved,
    "zb": _zb,
    "schedule": _schedule,
    "robustness": _robustness,
}

#: "all" excludes the training run, which dominates wall-clock time.
FAST = [k for k in EXPERIMENTS if k != "fig7"]


def _serve(argv: list[str]) -> int:
    """``python -m repro.cli serve``: run the capacity-planning service."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli serve",
        description="Serve the capacity-planner HTTP API "
                    "(POST /plan, POST /sweep, GET /jobs/<id>, "
                    "GET /results/<hash>, GET /metrics).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8351)
    parser.add_argument("--state-dir", default=None,
                        help="directory for the durable result store and job "
                             "queue (omit for a purely in-memory server)")
    parser.add_argument("--inline-limit", type=int, default=None,
                        help="grids up to this many units answer inline; "
                             "bigger grids become jobs")
    parser.add_argument("--worker-jobs", type=int, default=1,
                        help="worker processes per queued job (needs "
                             "--state-dir; 1 = in-process)")
    parser.add_argument("--budget", type=int, default=None,
                        help="total unit budget; requests that would exceed "
                             "it get HTTP 429 (cache hits are free)")
    parser.add_argument("--engine-pool", type=int, default=None,
                        help="engine slots for concurrent cold-miss "
                             "evaluation (default 4; 1 = the old "
                             "single-lock behavior)")
    parser.add_argument("--token", default=None,
                        help="require 'Authorization: Bearer <token>' on "
                             "every request (default: no auth)")
    args = parser.parse_args(argv)

    from repro.service import PlanningService, ServiceServer
    from repro.service.app import DEFAULT_INLINE_LIMIT

    service = PlanningService(
        state_dir=args.state_dir,
        inline_limit=(args.inline_limit if args.inline_limit is not None
                      else DEFAULT_INLINE_LIMIT),
        worker_jobs=args.worker_jobs,
        budget_units=args.budget,
        engine_pool=args.engine_pool,
        token=args.token,
    )
    server = ServiceServer(service, host=args.host, port=args.port)
    state = args.state_dir if args.state_dir else "in-memory"
    auth = "bearer token" if args.token else "none"
    print(f"capacity planner serving on {server.url} (state: {state}, "
          f"engines: {len(service.pool)}, auth: {auth})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
        server.httpd.server_close()
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["campaign"]:
        # The campaign family has its own parser (run/list/status/diff/...);
        # dispatch before the experiment parser sees the arguments.
        from repro.campaign.cli import main as campaign_main
        from repro.campaign.registry import load_builtin_campaigns

        load_builtin_campaigns()
        return campaign_main(argv[1:])
    if argv[:1] == ["serve"]:
        return _serve(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Reproduce PipeFisher (MLSys 2023) tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which paper artifact to regenerate ('all' = everything but fig7)",
    )
    from repro.pipeline.spec import schedule_names

    parser.add_argument(
        "--schedule",
        choices=schedule_names(),  # derived from the schedule registry
        default="zb1f1b",
        help="pipeline schedule for the 'schedule' experiment "
        "(any registered ScheduleSpec)",
    )
    args = parser.parse_args(argv)

    # Bind CLI options once, keeping the dispatch table zero-argument.
    runners = dict(EXPERIMENTS)
    runners["schedule"] = partial(_schedule, args.schedule)

    targets = FAST if args.experiment == "all" else [args.experiment]
    for name in targets:
        print(f"\n{'=' * 70}\n{name.upper()}\n{'=' * 70}")
        runners[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
