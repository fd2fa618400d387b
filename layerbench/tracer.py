"""In-memory span tracing of the program, installed from outside it.

The tracer wraps calls into each layer's functions and records one
span per call -- name, start, end, parent span and scenario -- in flat
arrays kept in memory and written out when the run ends.  A span's
self time is its duration minus the durations of its direct children,
so the self times of all spans add up to the traced wall time exactly
once.  Counters are taken at the same boundaries (fate kinds, rank
gains, retried attempts, rate switches), so the ratios are measured
where the work happens.

Nothing in ``repro`` is edited: functions and methods are swapped for
wrappers on install and restored on :meth:`Tracer.uninstall`.  Pool
workers forked while the tracer is installed run the wrappers too, but
their spans stay in the worker and are not recorded.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import weakref
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.scenario = array("i")
        self._stack: List[int] = []
        #: Sequence number of the scenario now executing (-1: none).
        self.scenario_seq = -1
        self.scenario_seeds: List[int] = []
        self.counts: Counter = Counter()
        self._restore: List[Tuple[Any, str, Any]] = []
        self._last_rate: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()

    # -- recording --------------------------------------------------------

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span ``name`` per call.

        ``before(args, kwargs)`` runs ahead of the call and its return
        value is handed to ``after(args, kwargs, result, token)``,
        which runs once the call returned; both run outside the span.
        """
        nid = self._name(name)
        names, starts, ends = self.name_id, self.start, self.end
        parents, scenarios, stack = self.parent, self.scenario, \
            self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            scenarios.append(tracer.scenario_seq)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, token)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` (a class or module) by a traced one."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **hooks))

    def patch_function(self, module: str, attr: str, name: str,
                       **hooks) -> None:
        """Trace a module-level function wherever ``repro`` imported
        it by name, so callers that bound it at import see the
        wrapper too."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            if mod.__dict__.get(attr) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, traced)

    def uninstall(self) -> None:
        """Put every patched attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- instrumentation of the program -----------------------------------

    def install(self) -> None:
        """Wrap the layer boundaries the per-layer metrics are built on."""
        from repro.analysis import metrics as analysis_metrics
        from repro.campaigns import checkpoint, runner
        from repro.phy.backend import PhyBackend, SurrogatePhyBackend
        from repro.rateadapt.base import RateAdapter
        from repro.recovery.rateless import (RatelessDecoder,
                                             RatelessEncoder)
        from repro.sim import eventsim, mac, slotmac, tcp, wireless

        counts = self.counts

        def scenario_start(args, kwargs):
            params = args[2] if len(args) > 2 else kwargs["params"]
            self.scenario_seq = len(self.scenario_seeds)
            self.scenario_seeds.append(int(params.get("seed", -1)))

        def scenario_end(args, kwargs, result, token):
            self.scenario_seq = -1

        self.patch(runner, "execute_task", "experiments.execute_task",
                   before=scenario_start, after=scenario_end)

        # Event engine and its clients.
        self.patch(eventsim.Simulator, "run_until",
                   "sim.eventsim.run_until")
        self.patch(eventsim.Simulator, "schedule_at",
                   "sim.eventsim.schedule_at")
        for attr in ("start", "on_ack", "_on_timeout"):
            self.patch(tcp.TcpSender, attr, f"sim.tcp.{attr}")
        self.patch(tcp.TcpReceiver, "on_data", "sim.tcp.on_data")

        def attempt(args, kwargs):
            counts["mac.attempts"] += 1
            if args[0]._retry > 0:
                counts["mac.retried"] += 1

        for attr in ("send", "_begin_contention", "_resume", "_tick",
                     "_conclude", "_frame_done"):
            self.patch(mac.Station, attr, f"sim.mac.{attr}")
        self.patch(mac.Station, "_transmit", "sim.mac._transmit",
                   before=attempt)
        self.patch(slotmac.SlotMacEngine, "run", "sim.slotmac.run")

        # Channel: overlap scans live in conclude_transmission's self
        # time, the fate taxonomy in resolve_fate's.
        def fate(args, kwargs, result, token):
            counts[f"fate.{result.kind}"] += 1
            if result.delivered:
                counts["fate.delivered"] += 1

        channel = wireless.WirelessChannel
        self.patch(channel, "conclude_transmission",
                   "sim.wireless.conclude_transmission")
        self.patch(channel, "resolve_fate", "sim.wireless.resolve_fate",
                   after=fate)
        self.patch(channel, "busy_window", "sim.wireless.busy_window")
        self.patch(channel, "begin_transmission",
                   "sim.wireless.begin_transmission")

        self.patch(PhyBackend, "observe", "phy.backend.observe")
        self.patch(SurrogatePhyBackend, "frame_outcome",
                   "phy.backend.frame_outcome")

        for attr in ("generate_fading_trace", "simulation_traces",
                     "walking_traces", "static_short_range_traces"):
            module = "repro.traces.generate" \
                if attr == "generate_fading_trace" \
                else "repro.traces.workloads"
            self.patch_function(module, attr, f"traces.{attr}")
        self.patch_function("repro.traces.video", "generate_video_trace",
                            "traces.generate_video_trace")

        def rank_before(args, kwargs):
            return args[0].rank

        def rank_after(args, kwargs, result, token):
            if args[0].rank > token:
                counts["recovery.rank_gains"] += 1

        self.patch(RatelessDecoder, "add", "recovery.add",
                   before=rank_before, after=rank_after)
        self.patch(RatelessDecoder, "decode", "recovery.decode")
        self.patch(RatelessEncoder, "symbol", "recovery.symbol")

        last_rate = self._last_rate

        def rate_chosen(args, kwargs, result, token):
            adapter = args[0]
            previous = last_rate.get(adapter)
            if previous is not None and previous != result:
                counts["rateadapt.switches"] += 1
            last_rate[adapter] = result

        adapters = [RateAdapter]
        for cls in adapters:
            adapters.extend(cls.__subclasses__())
        for cls in adapters:
            for attr in ("choose_rate", "on_feedback", "on_silent_loss",
                         "wants_rts"):
                member = cls.__dict__.get(attr)
                if member is None or getattr(
                        member, "__isabstractmethod__", False):
                    continue
                hooks = {"after": rate_chosen} \
                    if attr == "choose_rate" else {}
                self.patch(cls, attr, f"rateadapt.{attr}", **hooks)

        for attr in ("frame_log_digest", "rate_selection_accuracy",
                     "settling_time", "decodable_frame_rate",
                     "rebuffer_time", "deadline_miss_ratio"):
            self.patch_function(analysis_metrics.__name__, attr,
                                f"analysis.metrics.{attr}")

        self.patch(checkpoint.RecordWriter, "append",
                   "campaigns.store.append")
        for attr in ("scan", "load_records", "completed_ids"):
            self.patch(checkpoint.ResultStore, attr,
                       f"campaigns.store.{attr}")
        self.patch(os, "fsync", "campaigns.store.fsync")

    # -- analysis -----------------------------------------------------------

    def mark(self) -> Tuple[int, Counter]:
        """Position to slice spans and counters from (see :meth:`since`)."""
        return len(self.start), Counter(self.counts)

    def since(self, mark: Tuple[int, Counter]) -> "SpanStats":
        """Statistics of the spans and counts recorded after ``mark``."""
        first, counts = mark
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64)[first:n]
        end = np.frombuffer(self.end, dtype=np.float64)[first:n]
        name = np.frombuffer(self.name_id, dtype=np.int32)[first:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:n]
        duration = end - start
        inside = parent >= first
        child = np.zeros(n - first)
        np.add.at(child, parent[inside] - first, duration[inside])
        self_time = duration - child
        size = len(self.names)
        delta = Counter(self.counts)
        delta.subtract(counts)
        return SpanStats(
            names=list(self.names),
            calls=np.bincount(name, minlength=size),
            self_s=np.bincount(name, weights=self_time, minlength=size),
            total_s=np.bincount(name, weights=duration, minlength=size),
            counts={k: v for k, v in delta.items() if v})

    def write(self, path: str) -> None:
        """Write every span recorded so far as an ``.npz`` file."""
        n = len(self.start)
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, np.int32)[:n],
                 start=np.frombuffer(self.start, np.float64)[:n],
                 end=np.frombuffer(self.end, np.float64)[:n],
                 parent=np.frombuffer(self.parent, np.int32)[:n],
                 scenario=np.frombuffer(self.scenario, np.int32)[:n],
                 scenario_seeds=np.array(self.scenario_seeds,
                                         dtype=np.int64))


class SpanStats:
    """Per-span-name calls, self and inclusive seconds, plus counters."""

    def __init__(self, names, calls, self_s, total_s, counts):
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self._calls, self._self, self._total = calls, self_s, total_s
        self.counts = counts

    def calls(self, *names: str) -> int:
        return int(sum(self._calls[self._index[n]] for n in names
                       if n in self._index))

    def self_s(self, prefix: str) -> float:
        """Self seconds of every span whose name starts with ``prefix``."""
        return float(sum(self._self[i] for n, i in self._index.items()
                         if n.startswith(prefix)))

    def total_s(self, name: str) -> float:
        i = self._index.get(name)
        return 0.0 if i is None else float(self._total[i])

    def exact(self) -> Dict[str, int]:
        """The counts that must repeat exactly from pass to pass."""
        out = {f"calls.{n}": int(self._calls[i])
               for n, i in self._index.items()}
        out.update(self.counts)
        return out
