"""The bubble filler far from time 0.

Above ~8.2e3 s one ulp of a double exceeds 1e-12, so a cursor ``st``
plus a remainder ``rem`` of a few 1e-12 s can round back to ``st``.  The
filler must still finish every item there, in the python reference and
in the native core, and the two must stay bit-identical.
"""

import json
import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.perfmodel.hardware import P100
from repro.pipefisher.runner import PipeFisherRun
from repro.sweep import SweepEngine, native
from repro.sweep import batch as sweep_batch
from repro.sweep.retime import fill_compiled, simulate_compiled
from tests.sweep.test_engine_equivalence import CASES

SCHEDULE_CASES = ("gpipe", "1f1b", "chimera", "interleaved", "zb1f1b")
SEEDS = 8
SRC = Path(__file__).resolve().parents[2] / "src"

#: This unit's fill reaches step 21 at st ~1.73e4 s with 1.37e-12 s of an
#: item left, where st + rem == st.  It used to spin there forever.
_UNIT_SCRIPT = """
import json
from repro.perfmodel.arch import OPT_350M
from repro.perfmodel.hardware import V100
from repro.pipefisher.runner import PipeFisherRun
from repro.sweep import SweepEngine, native

run = PipeFisherRun(schedule="interleaved", arch=OPT_350M, hardware=V100,
                    b_micro=128, depth=16, n_micro=64, layers_per_stage=2)
direct = run.execute()
engine = SweepEngine()
swept = engine.run(run)
items = [i for q in direct.assignment.queues.values() for i in q.items]
print(json.dumps({
    "native": native.available(),
    "native_evals": engine.stats()["native_evals"],
    "step_time": [direct.pipefisher_step_time, swept.pipefisher_step_time],
    "refresh_steps": [direct.refresh_steps, swept.refresh_steps],
    "all_assigned": all(i.assigned for i in items),
    "last_end": max(i.end for i in items),
}))
"""


@pytest.mark.parametrize("no_native", [False, True],
                         ids=["native", "no-native"])
def test_far_from_zero_unit_finishes(no_native):
    """Run in a child process with a timeout, so a livelock fails the
    test instead of hanging the suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop(native.DISABLE_ENV, None)
    if no_native:
        env[native.DISABLE_ENV] = "1"
    proc = subprocess.run([sys.executable, "-c", _UNIT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["step_time"][0] == out["step_time"][1]
    assert out["refresh_steps"][0] == out["refresh_steps"][1] > 21
    assert out["all_assigned"]
    assert out["last_end"] > 1.7e4
    if no_native:
        assert not out["native"]
    assert out["native_evals"] == int(out["native"])


@pytest.fixture
def deadline():
    """Fail, instead of hanging the suite, if a python fill livelocks."""
    def expire(signum, frame):
        raise TimeoutError("fill still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _point(name):
    run = PipeFisherRun(hardware=P100, **CASES[name])
    return SweepEngine().compiled_point(run)


def _far_tables(point, seed):
    """Jittered pf/K-FAC duration tables scaled so that one step spans
    1e3-1e5 s: step ``k`` of the fill then runs at offset ``k * span``."""
    rng = random.Random(seed)
    nominal = simulate_compiled(point.template.pf_graph, point.pf_durs)
    scale = 10 ** rng.uniform(3, 5) / nominal.makespan
    pf = tuple(d * scale * rng.uniform(0.5, 2.0) for d in point.pf_durs)
    q = tuple(d * scale * rng.uniform(0.5, 2.0) for d in point.qdurs)
    return pf, q


@pytest.mark.parametrize("name", SCHEDULE_CASES)
def test_fill_finishes_every_item_far_from_zero(name, deadline):
    point = _point(name)
    queues = point.template.queues.devices
    last_end = 0.0
    for seed in range(SEEDS):
        pf, q = _far_tables(point, seed)
        sim = simulate_compiled(point.template.pf_graph, pf)
        fill = fill_compiled(point.template, sim, q)
        for dev, per_item in fill.segments.items():
            for code, segs in zip(queues[dev].codes, per_item):
                assert segs and all(s <= e for s, e in segs)
                placed = sum(e - s for s, e in segs)
                end = segs[-1][1]
                assert q[code] - placed <= 1e-12 + len(segs) * math.ulp(end)
                last_end = max(last_end, end)
    assert last_end > 8.2e3


@pytest.mark.skipif(not native.available(),
                    reason="native core unavailable")
@pytest.mark.parametrize("name", SCHEDULE_CASES)
def test_native_fill_matches_reference_far_from_zero(name, deadline):
    point = _point(name)
    template = point.template
    tables = [_far_tables(point, seed) for seed in range(SEEDS)]
    gb = sweep_batch.simulate_graph_batch(template.pf_graph,
                                          [pf for pf, _ in tables])
    assert gb is not None and all(gb.ok(i) for i in range(SEEDS))
    fb = sweep_batch.fill_graph_batch(template, gb, [q for _, q in tables])
    assert fb is not None and all(fb.ok(i) for i in range(SEEDS))
    for i, (pf, q) in enumerate(tables):
        ref = fill_compiled(template, simulate_compiled(template.pf_graph,
                                                        pf), q)
        got = fb.fill(i, float(gb.makespan[i]))
        assert ref.span == got.span
        assert dict(ref.device_steps) == dict(got.device_steps)
        assert ref.segments == got.segments
