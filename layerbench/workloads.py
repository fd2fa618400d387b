"""The benchmark's workloads and the pass that runs one of them.

Each workload has a single scenario shape and varies only seeds: a
pass is one :class:`repro.campaigns.CampaignMatrix` whose ``replicates``
axis changes nothing but the derived scenario seed, run through
:class:`repro.campaigns.CampaignRunner` with its defaults (``jobs``
aside) into a fresh store.  Every pass of a run repeats the same
matrix, so every pass must reproduce the same results digest.

Why these four (the full prediction table is in ``RECORD.md``):

* ``tcp-event`` -- the Fig. 12 TCP uplink on the event engine, long
  enough that the medium history reaches its 4096-entry prune cap: the
  only workload where the event queue, TCP and the O(history) overlap
  scans of ``WirelessChannel.conclude_transmission`` carry the load.
* ``slot-dense`` -- saturated 250-station cells on the slot engine:
  the fate path (``resolve_fate`` -> surrogate ``observe`` /
  ``frame_outcome``) is most of the time, with no overlap scans, no
  event queue and no TCP -- the bypass case for ``tcp-event``.
* ``video-sweep`` -- the ``video`` experiment with a fresh trace seed
  per scenario, so trace generation and the rateless codec actually
  run in the timed passes.
* ``campaign-sweep`` -- many tiny identical cells through a pooled
  runner: store appends and fsyncs, the resume scan, the report and
  pool dispatch, which are under 1% of a scenario elsewhere.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from probe import probe_once, probe_server

#: Seed whose pass digests are pinned in ``reference.json``.
DEFAULT_SEED = 1

#: Trace time the ``cell`` experiment generates beyond the horizon;
#: set-up generates the same trace lengths the scenarios will use.
CELL_TRACE_MARGIN_S = 0.1

#: Seed of the trace pool cells share.  It is part of the scenario
#: shape, not of the seeded inputs: with a pool of a few traces, one
#: channel realisation per seed would move a run's times more than
#: its scenario seeds do.
CELL_TRACE_SEED = 2009


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a scenario shape and its pass size."""

    name: str
    experiment: str
    #: Fixed parameters of every scenario (the single shape).
    base: Dict[str, Any]
    #: Distinct scenarios per pass (the ``replicates`` count).
    per_pass: int
    #: Worker processes; 0 means one per core (``os.cpu_count()``).
    jobs: int = 1
    #: Percentile reported as ``scenario_s_tail``.
    tail_percentile: int = 90

    @property
    def pooled(self) -> bool:
        return self.jobs != 1

    def workers(self) -> int:
        return self.jobs if self.jobs > 0 else max(os.cpu_count() or 1, 1)

    def matrix(self, seed: int):
        """The pass matrix for ``seed``: one shape, ``per_pass`` seeds."""
        from repro.campaigns import CampaignMatrix

        return CampaignMatrix(
            name=f"layerbench-{self.name}", experiment=self.experiment,
            base=self.base, replicates=self.per_pass, seed=int(seed),
            description=f"layerbench {self.name} pass")


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="tcp-event", experiment="cell",
        base={"workload": "tcp", "mac_engine": "event",
              "channel": "fading", "n_clients": 10, "duration": 0.8,
              "trace_pool": 2, "trace_seed": CELL_TRACE_SEED,
              "mean_snr_db": 16.0,
              "doppler_hz": 200.0, "protocol": "softrate",
              "phy_backend": "surrogate"},
        per_pass=6, tail_percentile=75),
    Workload(
        name="slot-dense", experiment="cell",
        base={"workload": "mac", "mac_engine": "slot",
              "channel": "fading", "n_clients": 250, "duration": 0.1,
              "trace_pool": 8, "trace_seed": CELL_TRACE_SEED,
              "mean_snr_db": 16.0,
              "doppler_hz": 200.0, "protocol": "softrate",
              "phy_backend": "surrogate"},
        per_pass=8, tail_percentile=80),
    Workload(
        name="video-sweep", experiment="video",
        base={"workload": "generated", "video_duration": 1.0,
              "scenario": "fading", "scheme": "both",
              "phy_backend": "surrogate"},
        per_pass=6, tail_percentile=60),
    Workload(
        name="campaign-sweep", experiment="cell",
        base={"workload": "tcp", "channel": "static", "n_clients": 1,
              "duration": 0.05, "trace_seed": CELL_TRACE_SEED,
              "protocol": "softrate", "phy_backend": "surrogate"},
        per_pass=64, jobs=0, tail_percentile=95),
)}


# -- set-up ---------------------------------------------------------------


def cold_setup(workload: Workload) -> None:
    """What a fresh campaign process pays before its first scenario:
    imports, the surrogate calibration load, and the trace pool the
    workload's cells share (generated through the public trace
    generators, with the lengths and seeds the cells use)."""
    from repro.experiments.api import get_experiment, load_all
    from repro.phy.backend import get_backend

    load_all()
    get_backend("surrogate")
    if workload.experiment != "cell":
        return
    from repro.traces.workloads import (simulation_traces,
                                        static_short_range_traces)

    params = get_experiment("cell").scenario(dict(workload.base)).params
    n_links = params["n_clients"] if params["trace_pool"] <= 0 \
        else min(params["trace_pool"], params["n_clients"])
    duration = params["duration"] + CELL_TRACE_MARGIN_S
    seeds = [params["trace_seed"]]
    if params["workload"] == "tcp":
        seeds.append(params["trace_seed"] + 500_009)
    for trace_seed in seeds:
        if params["channel"] == "fading":
            simulation_traces(params["doppler_hz"], n_links=n_links,
                              duration=duration,
                              mean_snr_db=params["mean_snr_db"],
                              seed=trace_seed)
        else:
            static_short_range_traces(
                n_links, duration=duration,
                mean_snr_db=params["mean_snr_db"], seed=trace_seed)


def warm(workload: Workload, seed: int) -> None:
    """In-process warm-up before any timed pass: one scenario of the
    pass shape whose seed lies outside the pass, so the program's
    in-process trace pool and lazy caches are filled the way a
    campaign process has them after its first cell."""
    from repro.experiments.api import execute_task, get_experiment

    spec = get_experiment(workload.experiment)
    params = dict(workload.base)
    params[spec.seed_param] = 10_000_019 + int(seed)
    execute_task(workload.experiment, spec.fn.__module__,
                 spec.scenario(params).params)


def slot_event_parity(seed: int) -> Tuple[int, int]:
    """Frame-log digests of one small saturated cell on the event and
    the slot engine; the slot workload refuses to run unless they
    agree (the slot engine's contract is bit-identical frame logs)."""
    from repro.experiments.api import execute_task

    digests = []
    for engine in ("event", "slot"):
        metrics = execute_task("cell", "repro.experiments.cell", {
            "workload": "mac", "mac_engine": engine,
            "channel": "fading", "n_clients": 6, "duration": 0.04,
            "trace_pool": 2, "trace_seed": 7919 * int(seed) + 3,
            "seed": int(seed), "phy_backend": "surrogate"})
        digests.append(int(metrics["frame_log_digest"]))
    return digests[0], digests[1]


# -- one pass -------------------------------------------------------------


class ProbeLog:
    """Bursts of raw probe times, taken while no scenario runs.

    A pooled workload runs on every core, while one probe measures one
    core; host slowdowns on this kind of machine often hit one core
    more than the other.  ``helpers`` extra processes therefore probe
    concurrently with the caller in every burst, so a burst samples as
    many cores as the pool uses.  Call :meth:`close` to stop them.

    Helpers are forked, not spawned: spawning starts multiprocessing's
    resource-tracker process, which nothing stops and which outlives
    the benchmark.
    """

    def __init__(self, helpers: int = 0):
        self.bursts: List[List[float]] = []
        self._pipes = []
        self._helpers = []
        context = multiprocessing.get_context("fork")
        for _ in range(helpers):
            ours, theirs = context.Pipe()
            process = context.Process(target=probe_server,
                                      args=(theirs,), daemon=True)
            process.start()
            self._pipes.append(ours)
            self._helpers.append(process)
        for pipe in self._pipes:        # wait until every helper runs
            pipe.send(1)
            pipe.recv()

    def close(self) -> None:
        """Stop the helper processes and wait for them to end."""
        for pipe in self._pipes:
            pipe.send(None)
        for process in self._helpers:
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()
        self._pipes, self._helpers = [], []

    @property
    def values(self) -> List[float]:
        return [v for burst in self.bursts for v in burst]

    def burst(self, count: int = 2) -> int:
        """Run ``count`` probes back to back, on every helper too;
        return the burst index."""
        count = max(count, 1)
        for pipe in self._pipes:
            pipe.send(count)
        values = [probe_once() for _ in range(count)]
        for pipe in self._pipes:
            values += pipe.recv()
        self.bursts.append(values)
        return len(self.bursts) - 1

    def factor(self, before: int, after: int, nominal: float) -> float:
        """Nominal over measured probe time for the interval between
        two bursts.  Host speed switches state within seconds, so the
        adjacent bursts describe the host the interval ran on.  A
        single-core burst takes the median, which drops a probe caught
        mid-switch; bursts across cores take the mean, the pool's
        average speed."""
        values = self.bursts[before] + self.bursts[after]
        average = statistics.mean if self._pipes else statistics.median
        return nominal / average(values)


@dataclass
class Segment:
    """Raw wall seconds between two probe bursts."""

    seconds: float
    #: Bursts around the segment.
    before: int
    after: int
    #: Whether the segment is one scenario (serial passes).
    scenario: bool = False


@dataclass
class PassResult:
    """Raw timings, correctness and failure counts of one pass."""

    digest: str
    attempted: int
    failed: int
    #: The pass's wall time, probes excluded, cut at probe bursts.
    segments: List[Segment]
    #: Wall seconds of the CampaignRunner.run call that executes,
    #: probes excluded.
    run_s: float
    #: Worker-busy seconds (sum of the records' ``elapsed_s``).
    busy_s: float
    #: Per-scenario ``elapsed_s`` of pooled passes, which run between
    #: the pass's first and last burst.
    pooled_elapsed: List[float]
    #: Seconds of the resume and report steps (campaign-sweep).
    resume_s: float = 0.0
    report_s: float = 0.0


def _results_digest(matrix, store,
                    summary_bytes: Optional[bytes]) -> str:
    """Exact digest of what a pass computed.

    Cells contribute their ``frame_log_digest`` and simulated frame
    count, video scenarios every ``*/digest`` metric, and the campaign
    sweep the bytes of its report summary.
    """
    h = hashlib.sha256()
    if summary_bytes is not None:
        h.update(summary_bytes)
        return h.hexdigest()[:16]
    records = store.load_records()
    for scenario in matrix.expand():
        record = records.get(scenario.scenario_id)
        h.update(f"{scenario.index}:{scenario.scenario_id}:".encode())
        if record is None:
            h.update(b"missing\n")
            continue
        exact = {k: v for k, v in record["metrics"].items()
                 if k.endswith("digest") or k == "n_frames"}
        h.update(repr(sorted(exact.items())).encode() + b"\n")
    return h.hexdigest()[:16]


def run_pass(workload: Workload, matrix, workdir: str, probes: ProbeLog,
             fault_plan=None) -> PassResult:
    """Run one pass of ``matrix`` into a fresh store under ``workdir``.

    Serial passes probe the host between scenarios, from the runner's
    progress callback, which fires while no scenario runs; each
    scenario is the wall time between two bursts.  Pooled passes
    cannot probe inside the run, because workers are busy while the
    parent dispatches, so they probe around the whole pass.
    """
    from repro.campaigns import CampaignRunner
    from repro.campaigns.checkpoint import CampaignStore

    cache = tempfile.mkdtemp(prefix="pass-", dir=workdir)
    try:
        # (time the callback started, its burst, time it returned)
        marks: List[Tuple[float, int, float]] = []

        def progress(_line: str) -> None:
            start = time.perf_counter()
            previous = start - marks[-1][2] if marks else 0.0
            # Probe for ~5% of the segment just ended, so long
            # scenarios get more host samples than short ones.
            count = min(max(round(0.05 * previous / 0.017), 2), 8)
            marks.append((start, probes.burst(count),
                          time.perf_counter()))

        serial = not workload.pooled
        runner = CampaignRunner(
            jobs=workload.workers(), cache_dir=cache,
            progress=progress if serial else None,
            fault_plan=fault_plan)
        first = None if serial else probes.burst()
        t0 = time.perf_counter()
        status = runner.run(matrix)
        t1 = time.perf_counter()
        summary_bytes = None
        resume_s = report_s = 0.0
        if workload.pooled:
            runner.run(matrix)              # resume: a read-only scan
            t2 = time.perf_counter()
            runner.report(matrix)
            t3 = time.perf_counter()
            last = probes.burst()
            resume_s, report_s = t2 - t1, t3 - t2
            with open(CampaignStore(matrix, cache_dir=cache)
                      .summary_path, "rb") as fh:
                summary_bytes = fh.read()
            segments = [Segment(t3 - t0, first, last)]
            run_s = t1 - t0
        else:
            # marks[0] is the runner's opening line; each later mark
            # closes one scenario (or reports a retry).
            segments = [Segment(marks[0][0] - t0, marks[0][1],
                                marks[0][1])]
            segments += [Segment(b[0] - a[2], a[1], b[1], True)
                         for a, b in zip(marks, marks[1:])]
            segments.append(Segment(t1 - marks[-1][2], marks[-1][1],
                                    marks[-1][1]))
            run_s = sum(seg.seconds for seg in segments)
        store = CampaignStore(matrix, cache_dir=cache)
        elapsed = [float(r.get("elapsed_s", 0.0))
                   for r in store.load_records().values()]
        digest = _results_digest(matrix, store, summary_bytes)
        total = matrix.total_scenarios()
        return PassResult(
            digest=digest, attempted=total,
            failed=total - status.completed, segments=segments,
            run_s=run_s, busy_s=sum(elapsed),
            pooled_elapsed=[] if serial else elapsed,
            resume_s=resume_s, report_s=report_s)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
