"""``robustness``: one stochastic layer, used the two ways the repo uses it.

One operation is one robustness query over BERT-Base on P100 (depth 8,
16 micro-batches), for seeds drawn from the benchmark seed:

1. ``CampaignRunner`` runs a generated ``robustness_spec`` (5 schedules
   x ``CAMPAIGN_SEEDS`` replicate seeds) into a fresh run dir, once per
   stochastic model.  Each unit re-times one seed through the python
   ``simulate_compiled`` and appends one run-DB record.
2. A resume pass over the same run dirs, which must execute 0 units.
3. ``monte_carlo(batch=True)`` over the same points with ``MC_SEEDS``
   seeds (a superset of the campaign's), which re-times whole seed
   blocks through the native fault-replay core.

Half the points use the default 5% straggler model (no faults), half a
preemption-heavy model under which every replicate restarts.  HTTP is
not involved.
"""

from __future__ import annotations

import contextlib
import random
from time import perf_counter

from repro.campaign.rundb import RunDB
from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import canonical_json
from repro.experiments.robustness import robustness_spec
from repro.perfmodel.arch import ARCHITECTURES
from repro.perfmodel.hardware import HARDWARE
from repro.pipefisher.runner import PipeFisherRun
from repro.pipeline.spec import schedule_names
from repro.stochastic import mc
from repro.stochastic import units as stochastic_units
from repro.stochastic.model import StochasticModel
from repro.sweep import batch as sweep_batch
from repro.sweep.engine import SweepEngine

POINT = {"arch_name": "BERT-Base", "hardware": "P100", "b_micro": 32,
         "depth": 8, "n_micro": 16, "layers_per_stage": 1}
MODELS = (
    ("straggler", StochasticModel(straggler_count=1, straggler_slowdown=1.05)),
    ("preempt", StochasticModel(jitter_sigma=0.02, preemption_rate=1.0)),
)
#: Replicate seeds per schedule on the campaign path, per query.  Queries
#: are kept small so a run has over a hundred of them and its p95 rests
#: on more than two or three samples.
CAMPAIGN_SEEDS = 2
#: Replicate seeds per point on the Monte Carlo path (a superset).
MC_SEEDS = 24


class RobustnessLoad:
    def __init__(self, seed: int, work_dir) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        self.engine = SweepEngine()
        self.tracer = None
        self._rng = random.Random(self.seed)
        self._queries = 0
        self.mismatches: list = []
        #: Per query: (campaign_s, units, mc_s, replicates, resume reused).
        self.phases: list = []
        self.runs = {
            (name, schedule): PipeFisherRun(
                schedule=schedule, arch=ARCHITECTURES[POINT["arch_name"]],
                hardware=HARDWARE[POINT["hardware"]],
                b_micro=POINT["b_micro"], depth=POINT["depth"],
                n_micro=POINT["n_micro"],
                layers_per_stage=POINT["layers_per_stage"])
            for name, _ in MODELS
            for schedule in schedule_names()
        }

    def close(self) -> None:
        pass

    def op(self) -> bool:
        n = self._queries
        self._queries += 1
        seeds = self._rng.sample(range(1 << 30), MC_SEEDS)
        campaign_seeds = seeds[:CAMPAIGN_SEEDS]
        t0 = perf_counter()
        results = {}
        for name, model in MODELS:
            spec = robustness_spec(model=model, seeds=campaign_seeds, **POINT)
            runner = CampaignRunner(engine=self.engine,
                                    run_dir=self.work_dir / f"q{n}-{name}")
            results[name] = (spec, runner.run(spec))
        t1 = perf_counter()
        with (self.tracer.span("campaign.resume") if self.tracer
              else contextlib.nullcontext()):
            reused = self._resume(n, results)
        if reused is None:
            return False
        t2 = perf_counter()
        replicates = {}
        for name, model in MODELS:
            for (mname, schedule), run in self.runs.items():
                if mname == name:
                    out = mc.monte_carlo(run, model, seeds, engine=self.engine,
                                         batch=True)
                    replicates[(name, schedule)] = out.replicates
        t3 = perf_counter()
        units = sum(len(r.executed) for _, r in results.values())
        self.phases.append((t1 - t0, units, t3 - t2,
                            sum(len(v) for v in replicates.values()), reused))
        return self._same_records(n, results, replicates)

    def _resume(self, n: int, results: dict):
        """Re-run each campaign into its run dir; units reused, or None."""
        reused = 0
        for name, (spec, _) in results.items():
            again = CampaignRunner(engine=self.engine,
                                   run_dir=self.work_dir / f"q{n}-{name}")
            resumed = again.run(spec)
            if resumed.executed:
                self.mismatches.append(
                    f"query {n}: resume re-executed {len(resumed.executed)} "
                    f"units")
                return None
            reused += len(resumed.reused)
        return reused

    def _same_records(self, n: int, results: dict, replicates: dict) -> bool:
        """Campaign replicate records must equal the MC records, bit for bit."""
        for name, (spec, result) in results.items():
            values = result.values()
            for unit in spec.units():
                p = unit.params_dict()
                by_seed = {r["seed"]: r for r in replicates[(name, p["schedule"])]}
                if canonical_json(values[unit.key]) != \
                        canonical_json(by_seed[p["seed"]]):
                    self.mismatches.append(
                        f"query {n}: {name}/{p['schedule']} seed {p['seed']}: "
                        f"campaign record differs from monte_carlo")
                    return False
        return True

    def check(self) -> tuple:
        """All checks run inside each operation; nothing is left to redo."""
        return 0, []

    def instrument(self, tracer) -> None:
        self.tracer = tracer
        tracer.wrap(CampaignRunner, "run", "campaign.run")
        tracer.wrap(RunDB, "open", "rundb.open")
        tracer.wrap(RunDB, "append", "rundb.append")
        tracer.wrap(stochastic_units, "run_replicate", "stochastic.replicate")
        tracer.wrap(self.engine, "compiled_point", "sweep.compiled_point")
        tracer.wrap(self.engine, "nominal_evaluation",
                    "sweep.nominal_evaluation")
        tracer.wrap(mc, "monte_carlo", "stochastic.monte_carlo")
        tracer.wrap(mc, "replicate_batch", "stochastic.replicate_batch")
        tracer.wrap(mc, "sample_perturbation",
                    "stochastic.sample_perturbation")
        tracer.wrap(mc, "simulate_compiled", "pipeline.simulate_compiled")
        tracer.wrap(sweep_batch, "simulate_graph_batch",
                    "sweep.native_batch")

    def engines(self) -> list:
        return [self.engine]

    def window_stats(self) -> dict:
        """Rates and counts over the queries since the previous call."""
        rows, self.phases = self.phases, []
        campaign_s = sum(r[0] for r in rows)
        mc_s = sum(r[2] for r in rows)
        units = sum(r[1] for r in rows)
        reps = sum(r[3] for r in rows)
        return {
            "campaign.units_executed": units,
            "campaign.units_per_s": units / campaign_s if campaign_s else 0.0,
            "campaign.resume_hit_rate": (sum(r[4] for r in rows) / units
                                         if units else 0.0),
            "stochastic.replicates_per_s": reps / mc_s if mc_s else 0.0,
            "mc_replicates": reps,
        }
