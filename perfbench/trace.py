"""Layer spans recorded from outside the program, for the traced run.

:class:`Tracer` wraps each layer's public entry points where their
callers find them -- module functions at every ``repro`` and
``perfbench`` module name bound to them, methods and properties on
their classes -- so nothing under ``src/`` changes. Each span records its name, start, end and
parent span; spans stay in memory and are written out when the run
ends. A layer's self time is its span less the spans nested in it.

Lazy getters (``ArrayProgram.intern``, the ``AnalysisEntry``
artifacts) are timed only when they compute; telling that from a cached
read means peeking at their private cache slots, so a rename there
breaks the traced run loudly rather than mis-attributing time.

Only the benchmark process is traced. A forked sweep worker inherits
the wrappers but turns them off at fork, so grid_mp yields parent-side
spans only; worker cost comes from ``RUSAGE_CHILDREN``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

from repro.core.crossing import resolve_backend
from repro.core.program import ArrayProgram
from repro.perf.analysis_cache import AnalysisCache, AnalysisEntry
from repro.sim.engine import Engine
from repro.sim.runtime import Simulator
from repro.sweep import reducers as reducers_mod
from repro.sweep.plan import SweepSession
from repro.sweep.planner import FrontierPlanner
from repro.witness.store import WitnessStore

from perfbench.workloads import percentile

# Span names, one per wrapped entry point.
CROSS_OFF = "core.cross_off"
LABELING = "core.labeling"
INTERN = "core.intern"
LOOKUP = "perf.lookup"
COMPUTE = "perf.compute"
SIM_INIT = "sim.init"
SIM_RUN = "sim.run"
ENGINE = "sim.engine"
DIAGNOSE = "sim.diagnose"
SESSION_INIT = "sweep.session_init"
STREAM = "sweep.stream"
SUMMARIZE = "sweep.summarize"
REDUCE = "sweep.reduce"
PLANNER = "planner.run"
FIND = "witness.find"
ADD = "witness.add"
MINE = "witness.mine"

# Span record layout: [name, start_ns, end_ns, parent_index, data].
_NAME, _START, _END, _PARENT, _DATA = range(5)


class Tracer:
    """Installs the wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._off)

    def _off(self) -> None:
        self.on = False

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn, *, when=None, tag=None, data=None):
        """``fn`` timed as span ``name``.

        ``when(args)`` limits the span to calls that do the layer's work
        (a lazy getter that computes); ``tag(args)`` is stored when the
        span opens and replaced by ``data(result, args, kwargs, tag)``
        when the call returns.
        """
        tracer, spans, stack = self, self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on or (when is not None and not when(args)):
                return fn(*args, **kwargs)
            span = [name, clock(), 0, stack[-1] if stack else -1, None]
            if tag is not None:
                span[_DATA] = tag(args)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if data is not None:
                span[_DATA] = data(result, args, kwargs, span[_DATA])
            return result

        return wrapper

    def _traced_rows(self, rows):
        """A row stream whose every ``next()`` is a :data:`STREAM` span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        try:
            while True:
                span = [STREAM, clock(), 0, stack[-1] if stack else -1, 0]
                stack.append(len(spans))
                spans.append(span)
                try:
                    row = next(rows)
                    span[_DATA] = 1
                except StopIteration:
                    return
                finally:
                    span[_END] = clock()
                    stack.pop()
                yield row
        finally:
            rows.close()

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, fn, name: str, **hooks) -> None:
        """Rebind ``fn`` at every module name bound to it, in ``repro`` and
        in the benchmark's own modules (which call the entry points too)."""
        wrapper = self._wrap(name, fn, **hooks)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] not in ("repro", "perfbench"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        self._set(cls, attr, self._wrap(name, cls.__dict__[attr], **hooks))

    def _patch_property(self, cls, attr: str, name: str, when) -> None:
        getter = cls.__dict__[attr].fget
        self._set(cls, attr, property(self._wrap(name, getter, when=when)))

    def install(self) -> None:
        from repro.core.crossing import cross_off
        from repro.core.labeling import constraint_labeling
        from repro.sim.deadlock import diagnose
        from repro.sweep.summary import summarize_result
        from repro.witness import mine_witness

        def crossing_data(result, args, kwargs, _tag):
            columnar = (
                kwargs.get("observer") is None
                and kwargs.get("pick") is None
                and resolve_backend(args[0], kwargs.get("backend")) == "columnar"
            )
            return (result.pairs_crossed, columnar)

        self._patch_function(
            cross_off, CROSS_OFF, data=crossing_data
        )
        self._patch_function(constraint_labeling, LABELING)
        self._patch_property(
            ArrayProgram, "intern", INTERN, when=lambda a: a[0]._intern is None
        )

        # A lookup served from memory is the one that bumps ``hits``.
        self._patch_method(
            AnalysisCache, "lookup", LOOKUP,
            tag=lambda a: a[0].hits,
            data=lambda r, a, k, hits_before: a[0].hits > hits_before,
        )
        for attr, slot in (
            ("routes", "_routes"),
            ("competing", "_competing"),
            ("labeling", "_labeling"),
        ):
            self._patch_property(
                AnalysisEntry, attr, COMPUTE,
                when=lambda a, slot=slot: getattr(a[0], slot) is None,
            )
        self._patch_property(
            AnalysisEntry, "capacities", COMPUTE,
            when=lambda a: not a[0]._has_capacities,
        )
        self._patch_method(
            AnalysisEntry, "ordered_groups", COMPUTE,
            when=lambda a: a[1] is not a[0]._labeling or a[0]._ordered_groups is None,
        )

        self._patch_method(Simulator, "__init__", SIM_INIT, tag=lambda a: id(a[0]))
        self._patch_method(
            Simulator, "run", SIM_RUN,
            data=lambda r, a, k, t: (id(a[0]), len(r.queue_stats)),
        )
        self._patch_method(
            Engine, "run", ENGINE,
            data=lambda r, a, k, t: a[0].events_processed,
        )
        self._patch_function(diagnose, DIAGNOSE)

        self._patch_method(SweepSession, "__init__", SESSION_INIT)
        stream = SweepSession.__dict__["stream"]
        tracer = self

        @functools.wraps(stream)
        def traced_stream(session):
            rows = stream(session)
            return tracer._traced_rows(rows) if tracer.on else rows

        self._set(SweepSession, "stream", traced_stream)
        self._patch_function(summarize_result, SUMMARIZE)
        for cls in vars(reducers_mod).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, reducers_mod.StreamReducer)
                and cls is not reducers_mod.StreamReducer
                and "update" in cls.__dict__
            ):
                self._patch_method(cls, "update", REDUCE)

        self._patch_method(
            FrontierPlanner, "run", PLANNER,
            data=lambda r, a, k, t: r.jobs_executed,
        )
        self._patch_method(WitnessStore, "find", FIND)
        self._patch_method(WitnessStore, "add", ADD)
        self._patch_function(mine_witness, MINE)

    def uninstall(self) -> None:
        self.on = False
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span[:4]) + "\n")

    def layer_metrics(self, window: tuple[int, int], workers: int, usage: dict) -> dict:
        """Per-layer metrics from the spans (see BENCHMARK.json ``per_layer``).

        ``window`` is the traced loop's ``(start_ns, end_ns)``;
        ``usage`` holds the loop's ``parent_cpu_s`` and ``worker_cpu_s``.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for span in spans:
            if span[_PARENT] >= 0:
                child_ns[span[_PARENT]] += span[_END] - span[_START]
        total = defaultdict(int)   # name -> summed duration, ns
        own = defaultdict(int)     # name -> summed self time, ns
        calls = defaultdict(int)
        for i, span in enumerate(spans):
            duration = span[_END] - span[_START]
            total[span[_NAME]] += duration
            own[span[_NAME]] += duration - child_ns[i]
            calls[span[_NAME]] += 1

        def seconds(ns):
            return ns / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        # sim: pair each Simulator's build with its run (ids are reused
        # only after a simulator is freed, i.e. after its run).
        job_of: dict[int, int] = {}  # simulator id -> index in job_ms
        job_ms: list[float] = []
        queues = []
        events = 0
        for span in spans:
            name, duration = span[_NAME], span[_END] - span[_START]
            if name == SIM_INIT:
                job_of[span[_DATA]] = len(job_ms)
                job_ms.append(duration / 1e6)
            elif name == SIM_RUN and span[_DATA] is not None:
                sim_id, n_queues = span[_DATA]
                if sim_id in job_of:
                    job_ms[job_of.pop(sim_id)] += duration / 1e6
                queues.append(n_queues)
            elif name == ENGINE and span[_DATA] is not None:
                events += span[_DATA]
        crossings = [s[_DATA] for s in spans if s[_NAME] == CROSS_OFF and s[_DATA]]
        pairs = sum(p for p, _ in crossings)
        lookups = [s for s in spans if s[_NAME] == LOOKUP]
        hits = sum(1 for s in lookups if s[_DATA] is True)
        planner_spans = {i for i, s in enumerate(spans) if s[_NAME] == PLANNER}
        rounds = sum(
            1 for s in spans
            if s[_NAME] == SESSION_INIT and s[_PARENT] in planner_spans
        )
        queries = len(planner_spans)
        start, end = window
        covered = sum(
            min(s[_END], end) - max(s[_START], start)
            for s in spans
            if s[_PARENT] == -1 and s[_END] > start and s[_START] < end
        )
        wall = seconds(end - start)
        return {
            "sim.jobs": calls[SIM_INIT],
            "sim.build_s": seconds(own[SIM_INIT]),
            "sim.engine_s": seconds(total[ENGINE]),
            "sim.finish_s": seconds(own[SIM_RUN]),
            "sim.diagnose_s": seconds(total[DIAGNOSE]),
            "sim.ns_per_event": ratio(total[ENGINE], events),
            "sim.queues_per_job": ratio(sum(queues), len(queues)),
            "sim.job_ms_p50": percentile(job_ms, 0.50),
            "sim.job_ms_p99": percentile(job_ms, 0.99),
            "core.cross_off_calls": calls[CROSS_OFF],
            "core.cross_off_s": seconds(own[CROSS_OFF]),
            "core.labeling_s": seconds(own[LABELING]),
            "core.intern_s": seconds(total[INTERN]),
            "core.pairs_per_s": ratio(pairs, seconds(own[CROSS_OFF])),
            "core.columnar_frac": ratio(sum(1 for _, c in crossings if c), len(crossings)),
            "perf.lookups": len(lookups),
            "perf.hit_ratio": ratio(hits, len(lookups)),
            "perf.lookup_s": seconds(total[LOOKUP]),
            "perf.compute_s": seconds(own[COMPUTE]),
            "sweep.rows": sum(s[_DATA] for s in spans if s[_NAME] == STREAM),
            "sweep.sessions": calls[SESSION_INIT],
            "sweep.session_init_ms": ratio(total[SESSION_INIT], calls[SESSION_INIT]) / 1e6,
            "sweep.glue_s": seconds(own[STREAM]),
            "sweep.summarize_s": seconds(total[SUMMARIZE]),
            "sweep.reduce_s": seconds(total[REDUCE]),
            "sweep.parent_wait_s": seconds(total[STREAM]),
            "sweep.parent_cpu_s": usage["parent_cpu_s"],
            "sweep.worker_cpu_s": usage["worker_cpu_s"],
            "sweep.worker_util": ratio(usage["worker_cpu_s"], wall * workers),
            "planner.queries": queries,
            "planner.rounds_per_query": ratio(rounds, queries),
            "witness.finds": calls[FIND],
            "witness.find_s": seconds(total[FIND]),
            "witness.add_s": seconds(total[ADD]),
            "witness.mine_s": seconds(own[MINE]),
            "core.pairs_crossed": pairs,
            "trace.unattributed_frac": 1.0 - ratio(covered, end - start),
        }
