"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 layerbench/run.py --workload slot-dense --seed 3 \
        --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  Every host-time metric is divided by the reference probe
(``probe.py``) timed between scenarios and reported in the probe's
nominal seconds (``probe_nominal_s`` in ``reference.json``), so host
speed drift cancels while program changes do not.  Set-up times are
divided by the set-up probe instead (``setup_probe_nominal_s``).  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; on any failed scenario or digest mismatch the run prints
its reason to standard error, prints no result and exits 1.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from probe import setup_probe_once  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, PassResult,  # noqa: E402
                       ProbeLog, Segment, Workload, run_pass,
                       slot_event_parity, warm)

#: Fractions of the run at which a fresh-interpreter set-up is timed.
SETUP_MARKS = (0.0, 0.2, 0.4, 0.6, 0.8)

#: Passes every run makes at least, so digests compare across passes.
MIN_PASSES = 2


class BenchmarkError(RuntimeError):
    """A correctness check failed; the run reports no metrics."""


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0


class Run:
    """State of one benchmark run: probes, passes, set-up samples."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 workdir: str, reference: dict, fault_plan=None):
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.workdir = workdir
        self.nominal = float(reference["probe_nominal_s"])
        self.setup_nominal = float(reference["setup_probe_nominal_s"])
        self.pinned = reference.get("digests", {}).get(workload.name)
        self.fault_plan = fault_plan
        self.probes = ProbeLog(helpers=workload.workers() - 1)
        self.passes: List[PassResult] = []
        #: (set-up seconds, set-up probe seconds), both raw.
        self.setup_samples: List[Tuple[float, float]] = []
        self.matrix = None
        #: Whether host times are divided by the probe (off only to
        #: log the raw figures next to the normalised ones).
        self.normalise = True

    # -- phases -----------------------------------------------------------

    def prepare(self) -> None:
        """Untimed in-process set-up plus the slot/event parity gate."""
        warm(self.workload, self.seed)
        if self.workload.name == "slot-dense":
            event, slot = slot_event_parity(self.seed)
            if event != slot:
                raise BenchmarkError(
                    f"slot and event engines disagree on a small cell "
                    f"(frame-log digests {event} vs {slot})")
        self.matrix = self.workload.matrix(self.seed)

    def sample_setup(self) -> None:
        """Time a fresh interpreter doing the workload's set-up, then
        the set-up probe."""
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"),
             self.workload.name],
            cwd=ROOT, check=True, timeout=120,
            stdout=subprocess.DEVNULL)
        raw = time.perf_counter() - start
        self.setup_samples.append((raw, setup_probe_once()))

    def one_pass(self) -> PassResult:
        result = run_pass(self.workload, self.matrix, self.workdir,
                          self.probes, fault_plan=self.fault_plan)
        self.passes.append(result)
        print(f"layerbench: {self.workload.name} seed {self.seed} pass "
              f"{len(self.passes)} digest {result.digest} "
              f"failed {result.failed}/{result.attempted}",
              file=sys.stderr)
        return result

    def measure(self, with_setup: bool = True) -> None:
        """Passes (and spread-out set-up samples) for ``seconds``; a
        pass starts while at least half of it fits in the time left."""
        begin = time.perf_counter()
        marks = list(SETUP_MARKS) if with_setup else []
        last = 0.0
        while True:
            elapsed = time.perf_counter() - begin
            if marks and elapsed >= marks[0] * self.seconds:
                marks.pop(0)
                self.sample_setup()
                continue
            if len(self.passes) >= MIN_PASSES and not marks \
                    and elapsed + last / 2 > self.seconds:
                break
            start = time.perf_counter()
            self.one_pass()
            last = time.perf_counter() - start

    # -- results ----------------------------------------------------------

    def normalised(self, segment: Segment) -> float:
        if not self.normalise:
            return segment.seconds
        return segment.seconds * self.probes.factor(
            segment.before, segment.after, self.nominal)

    def pass_seconds(self, result: PassResult) -> float:
        """Probe-normalised wall time of one pass (probes excluded)."""
        return sum(self.normalised(seg) for seg in result.segments)

    def pass_factor(self, result: PassResult) -> float:
        """The pass's normalised over raw time."""
        raw = sum(seg.seconds for seg in result.segments)
        return self.pass_seconds(result) / raw

    def scenario_seconds(self) -> List[float]:
        out = []
        for result in self.passes:
            out += [self.normalised(seg) for seg in result.segments
                    if seg.scenario]
            # Pooled scenarios run on the workers' clocks inside the
            # pass, so they take the pass's factor.
            f = self.pass_factor(result)
            out += [elapsed * f for elapsed in result.pooled_elapsed]
        return out

    def verdict(self) -> Optional[str]:
        """Why the run is incorrect, or ``None`` when it is correct."""
        failed = sum(p.failed for p in self.passes)
        if failed:
            return f"{failed} scenario(s) failed"
        digests = {p.digest for p in self.passes}
        if len(digests) != 1:
            return f"pass digests differ across passes: {sorted(digests)}"
        if self.seed == DEFAULT_SEED and self.pinned is not None \
                and self.pinned not in digests:
            return (f"pass digest {digests.pop()} does not match the "
                    f"pinned reference {self.pinned}")
        return None

    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    def failed(self) -> int:
        return sum(p.failed for p in self.passes)

    def throughput(self) -> float:
        """Completed scenarios per probe-normalised second."""
        completed = sum(p.attempted - p.failed for p in self.passes)
        return completed / sum(self.pass_seconds(p) for p in self.passes)

    def end_to_end(self) -> Dict[str, dict]:
        samples = self.scenario_seconds()
        setup = [raw * self.setup_nominal / probe if self.normalise
                 else raw for raw, probe in self.setup_samples]
        return {
            "scenarios_per_s": metric(self.throughput(), "1/s"),
            "scenario_s_p50": metric(statistics.median(samples), "s"),
            "scenario_s_tail": metric(
                np.percentile(samples, self.workload.tail_percentile),
                "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }


# -- traced run -------------------------------------------------------------


def layer_metrics(run: Run, stats, result: PassResult) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (times probe-normalised)."""
    f = run.pass_factor(result)
    attempts = stats.counts.get("mac.attempts", 0)
    fates = stats.calls("sim.wireless.resolve_fate")
    outcomes = stats.calls("phy.backend.frame_outcome")
    adds = stats.calls("recovery.add")
    phy_self = stats.self_s("phy.backend.") * f
    run_wall = result.run_s
    jobs = run.workload.workers()
    out = {
        "sim.wireless.overlap_scan_s":
            stats.self_s("sim.wireless.conclude_transmission") * f,
        "sim.wireless.carrier_sense_s":
            (stats.self_s("sim.wireless.busy_window")
             + stats.self_s("sim.wireless.begin_transmission")) * f,
        "sim.wireless.resolve_fate_calls": fates,
        "sim.wireless.resolve_fate_self_s":
            stats.self_s("sim.wireless.resolve_fate") * f,
        "phy.backend.observe_calls": stats.calls("phy.backend.observe"),
        "phy.backend.self_s": phy_self,
        "phy.backend.us_per_call":
            phy_self / outcomes * 1e6 if outcomes else 0.0,
        "traces.calls": stats.calls("traces.generate_fading_trace",
                                    "traces.generate_video_trace"),
        "traces.self_s": stats.self_s("traces.") * f,
        "recovery.self_s": stats.self_s("recovery.") * f,
        "recovery.symbols_added": adds,
        "recovery.useful_symbol_ratio":
            stats.counts.get("recovery.rank_gains", 0) / adds
            if adds else 0.0,
        "recovery.decode_calls": stats.calls("recovery.decode"),
        "sim.eventsim.events": stats.calls("sim.eventsim.schedule_at"),
        "sim.eventsim.self_s": stats.self_s("sim.eventsim.") * f,
        "sim.tcp.self_s": stats.self_s("sim.tcp.") * f,
        "sim.mac.attempts": attempts,
        "sim.mac.retry_ratio":
            stats.counts.get("mac.retried", 0) / attempts
            if attempts else 0.0,
        "sim.mac.self_s": stats.self_s("sim.mac.") * f,
        "sim.slotmac.self_s": stats.self_s("sim.slotmac.") * f,
        "rateadapt.calls": stats.calls("rateadapt.choose_rate"),
        "rateadapt.self_s": stats.self_s("rateadapt.") * f,
        "rateadapt.rate_switches":
            stats.counts.get("rateadapt.switches", 0),
        "analysis.metrics.self_s": stats.self_s("analysis.metrics.") * f,
        "campaigns.store.append_calls":
            stats.calls("campaigns.store.append"),
        "campaigns.store.append_s":
            stats.total_s("campaigns.store.append") * f,
        "campaigns.store.fsyncs": stats.calls("campaigns.store.fsync"),
        "campaigns.store.scan_s":
            (stats.self_s("campaigns.store.scan")
             + stats.self_s("campaigns.store.load_records")
             + stats.self_s("campaigns.store.completed_ids")) * f,
        "campaigns.resume_s": result.resume_s * f,
        "campaigns.report_s": result.report_s * f,
        "campaigns.runner.dispatch_s":
            max(run_wall - result.busy_s / jobs, 0.0) * f,
        "campaigns.runner.worker_busy_ratio":
            result.busy_s / (jobs * run_wall),
        "experiments.scenario_self_s":
            stats.self_s("experiments.execute_task") * f,
    }
    for kind in ("clean", "collided", "postamble", "silent"):
        out[f"sim.wireless.fate_{kind}"] = stats.counts.get(
            f"fate.{kind}", 0)
    out["sim.wireless.delivered_ratio"] = \
        stats.counts.get("fate.delivered", 0) / fates if fates else 0.0
    return out


def unit_of(name: str) -> str:
    tail = name.rsplit(".", 1)[1]
    if tail.endswith("_s"):
        return "s"
    if tail.endswith("us_per_call"):
        return "us"
    if tail.endswith("ratio"):
        return "ratio"
    return "count"


def traced(run: Run) -> Dict[str, dict]:
    """Untraced and traced passes, alternating, for ``seconds``.

    The per-layer metrics are medians over the traced passes; the
    untraced passes between them give ``trace.overhead_ratio``.
    """
    from tracer import Tracer

    begin = time.perf_counter()
    tracer = Tracer()
    per_pass: List[Dict[str, float]] = []
    exact: List[Dict[str, int]] = []
    untraced: List[float] = []
    traced_seconds: List[float] = []
    while len(per_pass) < MIN_PASSES \
            or time.perf_counter() - begin < run.seconds:
        untraced.append(run.pass_seconds(run.one_pass()))
        tracer.install()
        try:
            mark = tracer.mark()
            result = run.one_pass()
            stats = tracer.since(mark)
        finally:
            tracer.uninstall()
        per_pass.append(layer_metrics(run, stats, result))
        exact.append(stats.exact())
        traced_seconds.append(run.pass_seconds(result))
    out_dir = os.path.join(ROOT, ".layerbench-out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{run.workload.name}.npz"))
    for i, counts in enumerate(exact[1:], start=2):
        if counts != exact[0]:
            changed = sorted(k for k in set(counts) | set(exact[0])
                             if counts.get(k) != exact[0].get(k))
            raise BenchmarkError(
                f"traced pass {i} counters differ from pass 1: "
                f"{changed[:8]}")
    metrics = {name: metric(statistics.median(p[name] for p in per_pass),
                            unit_of(name))
               for name in per_pass[0]}
    metrics["host.probe_s"] = metric(
        statistics.median(run.probes.values), "s")
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(traced_seconds) / statistics.median(untraced),
        "ratio")
    return metrics


# -- entry point ------------------------------------------------------------


def execute(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: str, fault_plan=None) -> Run:
    """Run the benchmark and return the run (metrics in ``run.result``)."""
    run = Run(workload, seed, seconds, workdir, load_reference(),
              fault_plan=fault_plan)
    try:
        run.prepare()
        if trace:
            run.result = traced(run)
        else:
            run.measure()
            run.normalise = False
            raw = run.end_to_end()
            run.normalise = True
            raw = {k: v["value"] for k, v in raw.items()}
            raw["setup_probe_s"] = statistics.median(
                probe for _, probe in run.setup_samples)
            print("layerbench: raw " + json.dumps(raw), file=sys.stderr)
            run.result = run.end_to_end()
    finally:
        run.probes.close()
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"layerbench: no program source under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(ROOT, ".layerbench-out",
                           f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = execute(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), workdir)
        problem = run.verdict()
    except BenchmarkError as exc:
        problem = str(exc)
        run = None
    finally:
        # Pool workers of pooled passes are terminated by the runner;
        # reap them so none outlives the benchmark.
        for child in multiprocessing.active_children():
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
        shutil.rmtree(workdir, ignore_errors=True)
    if problem is not None:
        counts = "" if run is None else \
            f" ({run.failed()} of {run.attempted()} scenarios failed)"
        print(f"layerbench: incorrect run{counts}: {problem}",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": run.attempted(),
                      "failed": run.failed(), "metrics": run.result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
