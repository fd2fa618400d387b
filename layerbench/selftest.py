"""Self-test of the benchmark itself.

Usage (from the repository root)::

    python3 layerbench/selftest.py

Checks, each printed as PASS/FAIL (exit code 1 if any fails):

* **sensitivity** -- slows ``SurrogatePhyBackend.frame_outcome`` from
  outside by a fixed busy loop on every other ``slot-dense`` pass.
  The slowed passes' ``scenarios_per_s`` must drop by roughly the
  predicted share (calls per pass times the loop's probe-normalised
  cost), while the raw probe median (``host.probe_s``) must move by
  less than a quarter of that drop: the probe cancels host drift, not
  program slowdowns.
* **failures** -- injects a ``raise`` fault through
  ``CampaignRunner(fault_plan=...)`` into a pooled and a serial pass;
  the fault must be counted in ``failed`` out of ``attempted`` and
  the run judged incorrect.
* **digest gate** -- a pinned digest that does not match makes the
  run incorrect.
* **bare directory** -- ``run.py`` in a directory holding only
  ``BENCHMARK.json`` and ``layerbench/`` exits non-zero and prints no
  result.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import Run, load_reference  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Segment  # noqa: E402

#: Busy-loop iterations added to every ``frame_outcome`` call.
BUSY_ITERATIONS = 400

RESULTS = []


def check(name: str, ok: bool, detail: str) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


def busy(iterations: int) -> float:
    """Interpreted integer work, the kind the probe times."""
    k = 7
    for _ in range(iterations):
        k = (k * 1103515245 + 12345) & 0x7FFFFFFF
    return k


def sensitivity(workdir: str, pairs: int = 6) -> None:
    """Alternate plain and slowed slot-dense passes in one run, so host
    drift hits both sides alike, and compare them."""
    from repro.phy.backend import SurrogatePhyBackend

    run = Run(WORKLOADS["slot-dense"], DEFAULT_SEED, 0.0, workdir,
              load_reference())
    run.prepare()
    # The loop's cost in probe-nominal seconds, timed between bursts.
    costs = []
    for _ in range(40):
        before = run.probes.burst(1)
        start = time.perf_counter()
        busy(BUSY_ITERATIONS)
        raw = time.perf_counter() - start
        costs.append(run.normalised(
            Segment(raw, before, run.probes.burst(1))))
    cost = statistics.median(costs)
    original = SurrogatePhyBackend.frame_outcome
    calls = [0]

    def slowed(self, *args, **kwargs):
        calls[0] += 1
        busy(BUSY_ITERATIONS)
        return original(self, *args, **kwargs)

    sides = {False: [], True: []}
    probes = {False: [], True: []}
    for _ in range(pairs):
        for slow in (False, True):
            first = len(run.probes.bursts)
            if slow:
                SurrogatePhyBackend.frame_outcome = slowed
            try:
                sides[slow].append(run.one_pass())
            finally:
                SurrogatePhyBackend.frame_outcome = original
            for burst in run.probes.bursts[first:]:
                probes[slow] += burst

    def rate(results):
        return sum(r.attempted for r in results) \
            / sum(run.pass_seconds(r) for r in results)

    base_rate, slow_rate = rate(sides[False]), rate(sides[True])
    base_pass = statistics.median(run.pass_seconds(r)
                                  for r in sides[False])
    per_pass = calls[0] / pairs
    scenarios = sides[True][0].attempted
    predicted = 1.0 - scenarios / (base_pass + per_pass * cost) \
        / base_rate
    measured = 1.0 - slow_rate / base_rate
    check("sensitivity.drop",
          abs(measured - predicted) <= 0.35 * predicted,
          f"scenarios_per_s {base_rate:.3f} -> {slow_rate:.3f}: "
          f"dropped {measured:.1%}, predicted {predicted:.1%} "
          f"({per_pass:.0f} frame_outcome calls/pass x "
          f"{cost * 1e6:.1f} nominal us)")
    probe_base = statistics.median(probes[False])
    probe_slow = statistics.median(probes[True])
    check("sensitivity.probe",
          abs(probe_slow / probe_base - 1.0) <= 0.25 * measured,
          f"host.probe_s {probe_base * 1e3:.2f} -> "
          f"{probe_slow * 1e3:.2f} ms")


def failures(workdir: str) -> None:
    from repro.campaigns.faults import FaultPlan, FaultSpec

    plan = FaultPlan(faults=(FaultSpec("raise", scenario_index=1,
                                       times=0),))
    for name in ("campaign-sweep", "slot-dense"):
        run = Run(WORKLOADS[name], DEFAULT_SEED, 1.0, workdir,
                  load_reference(), fault_plan=plan)
        try:
            run.prepare()
            run.one_pass()
        finally:
            run.probes.close()
        verdict = run.verdict()
        check(f"failures.{name}",
              run.failed() == 1
              and run.attempted() == WORKLOADS[name].per_pass
              and verdict is not None,
              f"failed {run.failed()} of {run.attempted()}, "
              f"verdict: {verdict}")


def digest_gate(workdir: str) -> None:
    run = Run(WORKLOADS["campaign-sweep"], DEFAULT_SEED, 1.0, workdir,
              load_reference())
    try:
        run.prepare()
        run.one_pass()
    finally:
        run.probes.close()
    clean = run.verdict()
    run.pinned = "0" * 16
    check("digest.gate", clean is None and run.verdict() is not None,
          f"pinned digest verdict {clean!r}; wrong pin: "
          f"{run.verdict()}")


def bare_directory(workdir: str) -> None:
    bare = tempfile.mkdtemp(prefix="bare-", dir=workdir)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "layerbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload",
         "slot-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check("bare.refuses", proc.returncode != 0 and not proc.stdout,
          f"exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    workdir = os.path.join(ROOT, ".layerbench-out",
                           f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        sensitivity(workdir)
        failures(workdir)
        digest_gate(workdir)
        bare_directory(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
