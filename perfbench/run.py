"""Run one benchmark workload; the last stdout line is the JSON result.

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 15 --trace 0

Run from the repository root (the program is imported from ``src/``).
``--trace 0`` measures ``--seconds`` untraced and prints the end-to-end
metrics.  ``--trace 1`` measures half the time untraced, then wraps the
layers' public calls and measures the other half traced; it prints the
per-layer metrics, and writes every span to ``perfbench/out/``.
Times are scaled to a reference host speed (see ``hostspeed.py``).
Diagnostics (environment, unscaled times, absolute layer seconds, check
failures) go to stderr.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import faulthandler
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Hermetic scratch space (state dirs, run dirs); removed after each run.
WORK = HERE / ".work"
#: Span dumps of traced runs.
OUT = HERE / "out"

WORKLOADS = ("plan_cold", "plan_warm", "robustness", "kfac_train")
#: Set-up runs per benchmark run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Host-speed samples taken between set-ups (and before the first and
#: after the last); each set-up is scaled by the ones on either side.
SETUP_SAMPLES = 10
#: A set-up moves about half as much as the kernel (in log terms: a
#: fitted slope of 0.55, r 0.71, over 15 set-ups), as process start and
#: file reads do not slow with the interpreter; so it is scaled by this
#: power of the kernel's scale.  Of the powers 0, 0.5 and 1, 0.5 gave the
#: lowest spread over 12-15 set-ups of each of three workloads.
SETUP_SCALE_POWER = 0.5
#: Workloads whose operation times are scaled by the host-speed kernel.
#: ``kfac_train`` is not: its steps are large multi-threaded BLAS calls
#: whose time does not follow the kernel's (see README).
CALIBRATED = ("plan_cold", "plan_warm", "robustness")
#: Untimed operations before the timed window (at least one runs).
WARMUP_S = 1.5
#: A run still going after this many seconds is aborted.
WATCHDOG_S = 170


def _log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def _factory(workload: str):
    """The workload's class; importing it imports the program's modules."""
    if workload in ("plan_cold", "plan_warm"):
        import wl_plan

        return functools.partial(wl_plan.PlanLoad,
                                 warm=workload == "plan_warm")
    if workload == "robustness":
        import wl_robustness

        return wl_robustness.RobustnessLoad
    import wl_kfac

    return wl_kfac.KfacTrainLoad


def setup_once(workload: str, seed: int, work_dir: str, t0: float) -> float:
    """Import, load the native core and build the workload; seconds since t0.

    Runs in a child that exits right after, so the workload is not
    closed: its only thread (a server's) is a daemon and ends with it.
    """
    make = _factory(workload)
    from repro.sweep import native

    native.available()
    make(seed, Path(work_dir)).setup()
    return time.perf_counter() - t0


def _setup_in_child(workload: str, seed: int, work_dir: Path) -> float:
    """One set-up as a user pays it, in a fresh interpreter."""
    code = ("import sys, time; t0 = time.perf_counter(); import run; "
            "print(run.setup_once(sys.argv[1], int(sys.argv[2]), "
            "sys.argv[3], t0))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(HERE), str(SRC))))
    out = subprocess.run(
        [sys.executable, "-c", code, workload, str(seed), str(work_dir)],
        cwd=ROOT, env=env, check=True, timeout=120, capture_output=True,
        text=True)
    return float(out.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    from harness import closed_loop, fingerprint
    import metrics
    import tracing

    make = _factory(workload)
    from repro.sweep import native

    # Compiles the native core if this source hash has no build yet:
    # users pay that once, so it happens before anything is timed.
    _log(json.dumps({"environment": fingerprint(str(ROOT),
                                                native.available())}))
    for _ in range(SETUP_SAMPLES):  # the kernel's first calls run cold
        hostspeed.sample()
    host = [[hostspeed.sample() for _ in range(SETUP_SAMPLES)]]
    setups = []
    for i in range(SETUP_REPEATS):
        setups.append(_setup_in_child(workload, seed, work / f"setup{i}"))
        host.append([hostspeed.sample() for _ in range(SETUP_SAMPLES)])
    scaled_setups = [
        t * hostspeed.scale(host[i] + host[i + 1]) ** SETUP_SCALE_POWER
        for i, t in enumerate(setups)]
    _log(json.dumps({"setup_s": {"measured": setups,
                                 "scaled": scaled_setups}}))

    load = make(seed, work / "run")
    load.setup()
    loop = functools.partial(closed_loop, load,
                             calibrate=workload in CALIBRATED)
    tracer = None
    try:
        getattr(load, "prime", lambda: None)()
        # Caches fill and first-call costs settle before timing; the
        # warm-up's operations still count as attempted (and failed).
        windows = [loop(WARMUP_S)]
        stats = getattr(load, "window_stats", dict)
        stats()
        if not trace:
            window = loop(seconds)
            windows.append(window)
        else:
            untraced = loop(seconds / 2)
            rates = stats()
            tracer = tracing.Tracer()
            before = metrics.counters(load)
            load.instrument(tracer)
            try:
                window = loop(seconds / 2)
            finally:
                tracer.unwrap()
            after = metrics.counters(load)
            counts = stats()
            windows += [untraced, window]
        # Before the checks: the python reference they run is not the
        # workload's memory.
        e2e = metrics.end_to_end(statistics.median(scaled_setups),
                                 window.scaled())
        measured = metrics.end_to_end(statistics.median(setups), window)
        t = time.perf_counter()
        checked, check_failures = load.check()
        _log(json.dumps({"check_s": time.perf_counter() - t}))
    finally:
        load.close()

    attempted = sum(w.attempted for w in windows) + checked
    failed = sum(w.failed for w in windows) + len(check_failures)
    failures = list(load.mismatches) + check_failures
    for w in windows:
        failures += w.errors
    for line in failures[:20]:
        _log("FAILED:", line)

    _log(json.dumps({"end_to_end": e2e, "unscaled": measured,
                     "host_scale": (hostspeed.scale(window.cal_s)
                                    if window.cal_s else None),
                     "host_samples": len(window.cal_s),
                     "ops": window.completed, "window_s": window.wall_s}))
    if not trace:
        values = e2e
    else:
        table = tracing.layer_table(tracer.spans)
        values = metrics.per_layer(
            tracer.spans, before, after,
            window, untraced, counts, rates, attempted, failed)
        _log(json.dumps({"layers_s": table, "untraced": {
            "ops_per_s": untraced.ops_per_s, **rates}}))
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metrics.UNITS[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        _log(f"error: the program's sources are missing ({SRC / 'repro'}); "
             f"run from a full checkout")
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # A hung operation must fail the run, not stall it: dump every
    # thread's stack and exit non-zero.
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
