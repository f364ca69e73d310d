"""``python -m repro.cli campaign <command>`` — the campaign workflows.

Commands::

    campaign list                      # registered campaigns + unit counts
    campaign run NAME [--run-dir D] [--shard i/n] [--jobs N] [--no-resume] [-v]
    campaign status --run-dir D        # completion state of a run DB
    campaign diff NAME [--run-dir D] [--rtol R] [--atol A]
                                       # per-value deltas vs the golden
    campaign regen-goldens [NAME ...]  # first-class golden regeneration
    campaign merge --out D SRC ...     # merge shard run DBs

``run`` resumes by default: units already recorded done in the run DB
are served from it without re-execution.  ``diff`` with ``--run-dir``
compares recorded values; without it, the campaign executes ephemerally
first.  Exit codes: 0 ok/match, 1 diff found, 2 usage or incomplete DB.
"""

from __future__ import annotations

import argparse
import sys

from repro.campaign.goldens import (
    count_values,
    diff_payloads,
    read_golden,
    write_golden,
)
from repro.campaign.registry import (
    campaign_names,
    get_campaign,
    golden_payload,
)
from repro.campaign.rundb import DONE, RunDB, merge_run_dbs
from repro.campaign.runner import CampaignRunner, parse_shard


def _cmd_list(args) -> int:
    print(f"{'campaign':16s} {'units':>6s} {'golden':>12s}  title")
    for name in campaign_names():
        entry = get_campaign(name)
        spec = entry.spec
        golden = spec.golden if spec.golden else "-"
        print(f"{name:16s} {len(spec.units()):6d} {golden:>12s}  {spec.title}")
        for artifact in spec.artifacts:
            print(f"{'':16s} {'':6s} {'':12s}  - {artifact}")
    return 0


def _cmd_run(args) -> int:
    entry = get_campaign(args.name)
    shard = parse_shard(args.shard) if args.shard else (0, 1)
    if args.jobs is not None and args.jobs > 1:
        if args.shard:
            print("error: --jobs cannot be combined with --shard",
                  file=sys.stderr)
            return 2
        if not args.run_dir:
            print("error: --jobs requires --run-dir (the parent records "
                  "the workers' units in the run DB)", file=sys.stderr)
            return 2
    runner = CampaignRunner(run_dir=args.run_dir)

    def progress(unit, record, reused):
        if args.verbose:
            status = record.get("status", "?")
            src = "db" if reused else "run"
            print(f"  [{src}] {unit.kind} {record['key']} {status} "
                  f"({record.get('elapsed_s', 0.0):.3f}s)")

    result = runner.run(entry.spec, shard=shard,
                        resume=not args.no_resume, on_unit=progress,
                        jobs=args.jobs)
    s = result.summary()
    total = len(entry.spec.units())
    print(f"campaign {args.name}: executed {s['executed']}, "
          f"reused {s['reused']}/{s['units']} "
          f"(campaign total {total} units) in {s['elapsed_s']:.2f}s")
    eng = s["engine"]
    print(f"  engine: {eng['runs']} runs, {eng['timing_hits']} timing hits, "
          f"{eng['reexecutions']} re-executions; "
          f"template cache {eng['templates_hits']}h/{eng['templates_misses']}m/"
          f"{eng['templates_evictions']}e, "
          f"stage-cost cache {eng['stage_costs_hits']}h/"
          f"{eng['stage_costs_misses']}m/{eng['stage_costs_evictions']}e")
    if eng.get("native_evals") or eng.get("mc_batched_replicates"):
        print(f"  native: {eng.get('native_evals', 0)} native evals, "
              f"{eng.get('mc_batched_replicates', 0)} batched MC replicates")
    phases = _phase_seconds(eng)
    if any(phases.values()):
        print("  phases: " + ", ".join(
            f"{name} {secs:.3f}s" for name, secs in sorted(phases.items())))
    if args.run_dir:
        print(f"  run DB: {args.run_dir}")
    return 0


def _phase_seconds(engine: dict) -> dict:
    """The ``phase_<name>_s`` keys of an engine-counter dict, by phase."""
    return {k[len("phase_"):-len("_s")]: v for k, v in engine.items()
            if k.startswith("phase_") and k.endswith("_s")}


def _cmd_status(args) -> int:
    db = RunDB.open(args.run_dir)
    meta = db.read_meta()
    if meta is None:
        print(f"{args.run_dir}: not a campaign run dir (no meta.json)")
        return 2
    name = meta["campaign"]
    counts = db.status_counts()
    done = counts.get("done", 0)
    try:
        total = len(get_campaign(name).spec.units())
    except KeyError:
        total = None
    shards = sorted({tuple(r.get("shard", [1, 1]))
                     for r in db.records.values()})
    print(f"campaign {name} at {args.run_dir}")
    if total is not None:
        print(f"  done {done}/{total} units "
              f"({done / total:.0%})" if total else "  empty campaign")
    for status, n in sorted(counts.items()):
        print(f"  {status}: {n}")
    seed_done: dict = {}
    for rec in db.records.values():
        seed = rec.get("params", {}).get("seed")
        if seed is not None and rec.get("status") == DONE:
            seed_done[seed] = seed_done.get(seed, 0) + 1
    if seed_done:
        print(f"  replicates by seed ({len(seed_done)} seed(s)):")
        for seed in sorted(seed_done):
            print(f"    seed {seed}: {seed_done[seed]} done")
    phase_totals: dict = {}
    for rec in db.records.values():
        if rec.get("status") != DONE:
            continue
        for phase, secs in _phase_seconds(rec.get("engine", {})).items():
            phase_totals[phase] = phase_totals.get(phase, 0.0) + secs
    if phase_totals:
        print("  engine phase seconds: " + ", ".join(
            f"{name} {secs:.3f}" for name, secs
            in sorted(phase_totals.items())))
    if db.skipped_lines:
        print(f"  tolerated {db.skipped_lines} truncated/corrupt line(s)")
    print(f"  shards seen: {', '.join(f'{i}/{n}' for i, n in shards) or '-'}")
    return 0


def _diff_one(name: str, values, rtol: float = 0.0,
              atol: float = 0.0) -> int:
    entry = get_campaign(name)
    if entry.spec.golden is None:
        print(f"{name}: no golden binding — skipped")
        return 0
    expected = read_golden(entry.spec.golden)
    if expected is None:
        print(f"{name}: golden {entry.spec.golden}.json missing "
              f"(generate with 'campaign regen-goldens {name}')")
        return 2
    try:
        payload = golden_payload(name, values=values)
    except ValueError as exc:
        print(f"{name}: {exc}")
        return 2
    deltas = diff_payloads(expected, payload, rtol=rtol, atol=atol)
    if not deltas:
        how = ("bit-exact" if rtol == 0.0 and atol == 0.0
               else f"within rtol={rtol:g} atol={atol:g}; "
                    f"non-float values exact")
        print(f"{name}: matches golden {entry.spec.golden}.json "
              f"({count_values(expected)} values, {how})")
        return 0
    print(f"{name}: {len(deltas)} value(s) diverge from "
          f"{entry.spec.golden}.json:")
    for d in deltas[:50]:
        print(f"  {d.describe()}")
    if len(deltas) > 50:
        print(f"  ... and {len(deltas) - 50} more")
    return 1


def _cmd_diff(args) -> int:
    values = None
    if args.run_dir:
        db = RunDB.open(args.run_dir)
        meta = db.read_meta()
        if meta is None:
            print(f"{args.run_dir}: not a campaign run dir")
            return 2
        if meta["campaign"] != args.name:
            print(f"{args.run_dir} holds campaign {meta['campaign']!r}, "
                  f"not {args.name!r}")
            return 2
        values = db.values()
    return _diff_one(args.name, values, rtol=args.rtol, atol=args.atol)


def _cmd_regen_goldens(args) -> int:
    names = args.names or [
        n for n in campaign_names() if get_campaign(n).spec.golden is not None
    ]
    runner = CampaignRunner(run_dir=args.run_dir)
    for name in names:
        entry = get_campaign(name)
        if entry.spec.golden is None:
            print(f"{name}: no golden binding — skipped")
            continue
        result = runner.run(entry.spec)
        payload = golden_payload(name, values=result.values())
        path = write_golden(entry.spec.golden, payload)
        print(f"{name}: wrote {path} "
              f"({result.summary()['executed']} units executed, "
              f"{result.summary()['reused']} reused)")
    if args.run_dir:
        print(f"regeneration logged in run DB: {args.run_dir}")
    return 0


def _cmd_merge(args) -> int:
    out = merge_run_dbs(args.sources, args.out)
    counts = out.status_counts()
    print(f"merged {len(args.sources)} run DB(s) into {args.out}: "
          f"{counts.get('done', 0)} done, "
          f"{sum(counts.values()) - counts.get('done', 0)} other")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli campaign",
        description="Declarative experiment campaigns: run, resume, shard, "
                    "and diff against goldens.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="registered campaigns")

    p_run = sub.add_parser("run", help="run (or resume) a campaign")
    p_run.add_argument("name")
    p_run.add_argument("--run-dir", default=None,
                       help="persistent run DB directory (enables resume)")
    p_run.add_argument("--shard", default=None, metavar="i/n",
                       help="run only every n-th unit (1-based, e.g. 1/3)")
    p_run.add_argument("--no-resume", action="store_true",
                       help="re-execute units even if recorded done")
    p_run.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="execute units in N worker processes "
                            "(requires --run-dir; excludes --shard)")
    p_run.add_argument("-v", "--verbose", action="store_true",
                       help="one progress line per unit")

    p_status = sub.add_parser("status", help="completion state of a run DB")
    p_status.add_argument("--run-dir", required=True)

    p_diff = sub.add_parser("diff", help="compare against committed goldens")
    p_diff.add_argument("name")
    p_diff.add_argument("--run-dir", default=None,
                        help="diff recorded values instead of re-running")
    p_diff.add_argument("--rtol", type=float, default=0.0,
                        help="relative tolerance for float leaves "
                             "(default 0.0: bit-exact)")
    p_diff.add_argument("--atol", type=float, default=0.0,
                        help="absolute tolerance for float leaves "
                             "(default 0.0: bit-exact)")

    p_regen = sub.add_parser(
        "regen-goldens",
        help="regenerate committed goldens (first-class replacement for "
             "the REPRO_REGEN_GOLDENS=1 env var)")
    p_regen.add_argument("names", nargs="*",
                         help="campaigns to regenerate (default: all bound)")
    p_regen.add_argument("--run-dir", default=None,
                         help="log the regeneration runs in this run DB")

    p_merge = sub.add_parser("merge", help="merge shard run DBs")
    p_merge.add_argument("sources", nargs="+")
    p_merge.add_argument("--out", required=True)

    return parser


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "status": _cmd_status,
    "diff": _cmd_diff,
    "regen-goldens": _cmd_regen_goldens,
    "merge": _cmd_merge,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
