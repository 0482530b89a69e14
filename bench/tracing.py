"""Layer-boundary tracing for the benchmark's traced runs.

The tracer replaces module attributes that callers go through (for example
``livenesslab.hierarchy.eval_expr`` or ``livenesslab.machine.apply_action``)
with wrappers that record one span per call: name, start, end, parent span
and op id.  Nothing in the package itself changes; ``uninstall`` puts the
original functions back.

Spans are kept in flat arrays while the run lasts and written out as JSON
lines when it ends.  A layer's self time is its busy time minus the time
covered by its child spans, so the wrapper cost of a child lands in its
parent's self time.
"""

from __future__ import annotations

import json
import re
import time
from array import array
from collections import Counter, OrderedDict

#: remembered (expression, label) pairs from recent catalog.build calls
_LABEL_MEMORY = 64


def metric_label(label: str) -> str:
    """`PQ-Extra-Dur(2,5)` -> `PQ-Extra-Dur_2_5`: letters, digits, _ . - only."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", label).strip("_")


class Tracer:
    def __init__(self):
        self.recording = False          # spans are taken only inside timed ops
        self.op = -1                    # id of the op being timed
        self.t0 = time.perf_counter()
        self.names: list = []
        self._name_id: dict = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.calls = Counter()
        self.busy = Counter()           # outermost spans of a name only
        self.self_s = Counter()
        self.counts = Counter()         # work counts taken at the boundaries
        self.label_calls = Counter()
        self.label_busy = Counter()
        self.active = Counter()         # name -> spans of that name now open
        self._stack: list = []          # [span index, seconds covered by children]
        self._labels: OrderedDict = OrderedDict()
        self._patched: list = []

    # -- wiring ------------------------------------------------------------

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Route calls through `module.attr` into a span called `name`.

        `after(tracer, args, result, seconds)` runs after a successful call
        and turns its arguments and result into work counts.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs, after)

        traced.__wrapped__ = fn
        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def _call(self, name, fn, args, kwargs, after):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.span_start), 0.0]
        self.span_name.append(nid)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(parent)
        self.span_op.append(self.op)
        self._stack.append(frame)
        self.active[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.active[name] -= 1
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.span_start[frame[0]] = start - self.t0
            self.span_end[frame[0]] = end - self.t0
            self.calls[name] += 1
            if not self.active[name]:
                self.busy[name] += dur
            self.self_s[name] += dur - frame[1]
        if after is not None:
            after(self, args, result, dur)
        return result

    # -- labels for per-property evaluation times --------------------------

    def remember_label(self, expr, label: str) -> None:
        self._labels[id(expr)] = (expr, label)   # holding expr keeps id unique
        if len(self._labels) > _LABEL_MEMORY:
            self._labels.popitem(last=False)

    def label_of(self, expr):
        got = self._labels.get(id(expr))
        return got[1] if got is not None else None

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> int:
        with open(path, "w") as fp:
            for k in range(len(self.span_start)):
                fp.write(json.dumps({
                    "span": k, "name": self.names[self.span_name[k]],
                    "start": self.span_start[k], "end": self.span_end[k],
                    "parent": self.span_parent[k], "op": self.span_op[k],
                }) + "\n")
        return len(self.span_start)


# ---------------------------------------------------------------------------
# the package's layer boundaries

def _after_build(tr, args, result, _dur):
    tr.remember_label(result, metric_label(args[0].label()))


def _after_eval(tr, args, _result, dur):
    label = tr.label_of(args[0])
    if label is not None:
        tr.label_calls[label] += 1
        tr.label_busy[label] += dur


def _after_corpus(tr, _args, result, _dur):
    tr.counts["hierarchy.traces_generated"] += len(result)


def _after_edges(tr, _args, result, _dur):
    tr.counts["hierarchy.edges_violated"] += len(result)


def _after_explore(tr, _args, run, _dur):
    tr.counts["checker.explore.states_generated"] += run.states_generated
    tr.counts["checker.explore.distinct_states"] += run.distinct_states


def _after_scan(tr, _args, report, _dur):
    tr.counts["checker.safety_scan.states_generated"] += report.states_generated
    tr.counts["checker.safety_scan.distinct_states"] += report.distinct_states


def _after_lasso(tr, _args, res, _dur):
    tr.counts["checker.lasso.states_explored"] += res.states_explored
    tr.counts[f"checker.lasso.{res.outcome}"] += 1


def _after_apply(tr, _args, _result, _dur):
    if tr.active["adversary.generate"]:
        tr.counts["adversary.generate.apply_action"] += 1


def _after_trace_of(tr, _args, _result, _dur):
    if tr.active["checker.lasso"]:
        tr.counts["checker.lasso.closures_realized"] += 1


def _after_generate(tr, _args, schedule, _dur):
    tr.counts["adversary.schedules"] += 1
    tr.counts["adversary.schedule_steps"] += len(schedule.steps)


def _after_validate(tr, _args, _result, _dur):
    if tr.active["adversary.generate"]:
        tr.counts["adversary.generate.validate"] += 1


def _after_write(tr, args, _result, _dur):
    tr.counts["tracefile.bytes_written"] += args[1].tell()   # a fresh buffer


def _after_read(tr, args, _result, _dur):
    tr.counts["tracefile.bytes_read"] += args[0].tell()      # read to the end


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark measures."""
    from livenesslab import (
        adversary, catalog, checker, hierarchy, language, machine, temporal,
        tracefile,
    )

    for mod in (hierarchy, checker, adversary, temporal):
        tracer.wrap(mod, "eval_expr", "temporal.eval_expr", _after_eval)
    for mod in (hierarchy, checker, adversary, catalog):
        tracer.wrap(mod, "build", "catalog.build", _after_build)
    tracer.wrap(language, "parse", "language.parse")
    tracer.wrap(hierarchy, "make_corpus", "hierarchy.make_corpus", _after_corpus)
    tracer.wrap(hierarchy, "check_trace_edges", "hierarchy.check_trace_edges",
                _after_edges)
    tracer.wrap(checker, "explore", "checker.explore", _after_explore)
    tracer.wrap(checker, "safety_scan", "checker.safety_scan", _after_scan)
    tracer.wrap(checker, "check_liveness_lasso", "checker.lasso", _after_lasso)
    tracer.wrap(machine, "enabled", "machine.enabled")
    tracer.wrap(machine, "apply_action", "machine.apply_action", _after_apply)
    tracer.wrap(machine, "trace_of", "machine.trace_of", _after_trace_of)
    tracer.wrap(adversary, "generate", "adversary.generate", _after_generate)
    tracer.wrap(adversary, "run_schedule", "adversary.run_schedule")
    tracer.wrap(adversary, "validate", "adversary.validate", _after_validate)
    tracer.wrap(tracefile, "write_trace", "tracefile.write_trace", _after_write)
    tracer.wrap(tracefile, "write_schedule", "tracefile.write_schedule", _after_write)
    tracer.wrap(tracefile, "read_trace", "tracefile.read_trace", _after_read)
    tracer.wrap(tracefile, "read_schedule", "tracefile.read_schedule", _after_read)
    return tracer


# ---------------------------------------------------------------------------
# per-layer metrics, per job

def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, jobs: int, labels) -> dict:
    """Every per-layer metric as {name: (value, unit)}, averaged per job.

    Jobs within a run repeat identical inputs, so counts divide exactly.
    Layers that did no work on this workload report 0.
    """
    def per_job(x):
        return x / jobs

    def count(x):
        return x // jobs if x % jobs == 0 else x / jobs

    out = {}

    def timing(name, with_calls=True, per_call=False, self_time=False):
        if with_calls:
            out[f"{name}.calls"] = (count(tr.calls[name]), "count")
        out[f"{name}.busy_s"] = (per_job(tr.busy[name]), "s")
        if self_time:
            out[f"{name}.self_s"] = (per_job(tr.self_s[name]), "s")
        if per_call:
            out[f"{name}.us_per_call"] = (_ratio(tr.busy[name], tr.calls[name]) * 1e6, "us")

    c = tr.counts
    timing("temporal.eval_expr", per_call=True)
    for label in labels:
        out[f"temporal.eval_expr.{label}.us_per_call"] = (
            _ratio(tr.label_busy[label], tr.label_calls[label]) * 1e6, "us")
    timing("catalog.build")
    timing("language.parse", per_call=True)

    out["hierarchy.make_corpus.busy_s"] = (per_job(tr.busy["hierarchy.make_corpus"]), "s")
    out["hierarchy.make_corpus.us_per_trace"] = (
        _ratio(tr.busy["hierarchy.make_corpus"], c["hierarchy.traces_generated"]) * 1e6, "us")
    timing("hierarchy.check_trace_edges", self_time=True)
    out["hierarchy.edges_violated"] = (count(c["hierarchy.edges_violated"]), "count")

    for search in ("checker.explore", "checker.safety_scan"):
        out[f"{search}.busy_s"] = (per_job(tr.busy[search]), "s")
        out[f"{search}.states_generated"] = (count(c[f"{search}.states_generated"]), "count")
        out[f"{search}.distinct_states"] = (count(c[f"{search}.distinct_states"]), "count")
        out[f"{search}.states_per_s"] = (
            _ratio(c[f"{search}.states_generated"], tr.busy[search]), "1/s")

    timing("checker.lasso", with_calls=False, self_time=True)
    out["checker.lasso.states_explored"] = (count(c["checker.lasso.states_explored"]), "count")
    out["checker.lasso.states_per_s"] = (
        _ratio(c["checker.lasso.states_explored"], tr.busy["checker.lasso"]), "1/s")
    out["checker.lasso.closures_realized"] = (
        count(c["checker.lasso.closures_realized"]), "count")
    out["checker.lasso.counterexamples"] = (count(c["checker.lasso.counterexample"]), "count")
    out["checker.lasso.closure_yield"] = (
        _ratio(c["checker.lasso.counterexample"], c["checker.lasso.closures_realized"]), "ratio")
    out["checker.lasso.undetermined"] = (count(c["checker.lasso.undetermined"]), "count")

    timing("machine.enabled", per_call=True)
    timing("machine.apply_action", per_call=True)
    timing("machine.trace_of")

    timing("adversary.generate", self_time=True)
    out["adversary.run_schedule.busy_s"] = (per_job(tr.busy["adversary.run_schedule"]), "s")
    out["adversary.validate.calls"] = (count(tr.calls["adversary.validate"]), "count")
    out["adversary.attempts_per_schedule"] = (
        _ratio(c["adversary.generate.validate"], c["adversary.schedules"]), "ratio")
    out["adversary.replay_ratio"] = (
        _ratio(c["adversary.generate.apply_action"], c["adversary.schedule_steps"]), "ratio")
    out["adversary.schedule_steps"] = (count(c["adversary.schedule_steps"]), "count")

    write_s = tr.busy["tracefile.write_trace"] + tr.busy["tracefile.write_schedule"]
    read_s = tr.busy["tracefile.read_trace"] + tr.busy["tracefile.read_schedule"]
    for fn in ("write_trace", "read_trace", "write_schedule", "read_schedule"):
        out[f"tracefile.{fn}.busy_s"] = (per_job(tr.busy[f"tracefile.{fn}"]), "s")
    out["tracefile.bytes_written"] = (count(c["tracefile.bytes_written"]), "count")
    out["tracefile.write_MBps"] = (_ratio(c["tracefile.bytes_written"], write_s) / 1e6, "MB/s")
    out["tracefile.read_MBps"] = (_ratio(c["tracefile.bytes_read"], read_s) / 1e6, "MB/s")
    return out
