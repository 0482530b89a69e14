"""The four benchmark workloads, their inputs and their correctness gates.

Every workload calls the same public functions that ``cli._dispatch``
calls, through module attributes (``hierarchy.make_corpus(...)``), so a
traced run can wrap them.  A job is the unit a user waits for; a run
repeats the same job, with the same inputs, until its time is up.  Gates
are plain functions from inputs and outputs to a list of error strings, so
the self-test can feed them forged outputs.
"""

from __future__ import annotations

import io
import random
import statistics
import time
from collections import Counter

from livenesslab import (
    adversary, catalog, checker, hierarchy, language, machine, temporal,
    tracefile,
)
from livenesslab.adversary import SATISFY, VIOLATE, AssumptionTarget, Demand
from livenesslab.catalog import ASSERTION_SINGLE, LINK, SERVER, CatalogId

DEFAULT_SEED = 20240601


def edge_cids() -> list:
    """The 20 distinct properties of the 22 solid edge instances."""
    return list(dict.fromkeys(cid for edge in hierarchy.edge_instances() for cid in edge))


class Recorder:
    """Times one run's ops and program steps, and applies the gates.

    An op fails when it raises or when its gate returns any error.  Gates
    and the `idle` callback run after each op, with the tracer paused and
    outside the timed region.
    """

    def __init__(self, tracer=None, idle=None):
        self.tracer = tracer
        self.idle = idle
        self.job = 0
        self.segments: list = []           # (job, seconds, is_op) per timed call
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.counters: Counter = Counter()

    def _timed(self, fn, is_op: bool):
        tr = self.tracer
        if tr is not None:
            tr.op = self.attempted if is_op else -1
            tr.recording = True
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self.segments.append((self.job, time.perf_counter() - start, is_op))
            if tr is not None:
                tr.recording = False

    def step(self, fn):
        """Program work the job waits for that is not an op."""
        return self._timed(fn, False)

    def op(self, fn, gate):
        self.attempted += 1
        try:
            result = self._timed(fn, True)
        except Exception as exc:  # a raising op is a failed op, not a crash
            self.reject([f"{type(exc).__name__}: {exc}"])
            return None
        self.reject(gate(result))
        if self.idle is not None:
            self.idle()
        return result

    def check(self, errors):
        """A gate over the whole job rather than one op; counts as an op."""
        self.attempted += 1
        self.reject(errors)

    def reject(self, errors):
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def gate_repeat(job: int, counters: dict, first: dict) -> list:
    """Jobs repeat identical inputs, so their output counts must repeat."""
    if counters == first:
        return []
    return [f"job {job} counts {counters} differ from job 1 {first}"]


def _cid_params(cid: CatalogId) -> dict:
    return dict(zip(catalog.param_names(cid.kind, cid.name), cid.params))


# ---------------------------------------------------------------------------
# corpus-check: hierarchy check --corpus N

#: Holds count per property label over make_corpus(n, seed), for pinned (seed, n)
PINNED_HOLDS = {
    (DEFAULT_SEED, 20): {
        "Fair": 8, "Raw": 18, "Sure(0)": 3, "Sure(2)": 7, "Sure(5)": 8, "Alw": 6,
        "PQ-Alw": 8, "Q-Alw": 13, "Alw-Q": 20, "P-Alw-Q": 11, "PQ-Extra-Dur(0,2)": 18,
        "PQ-Extra-Dur(2,5)": 13, "PQ-Dur(2)": 18, "PQ-Dur(5)": 15, "Each-Exec": 0,
        "Some-Exec": 5, "Each-Learn": 6, "Some-Learn": 11, "Each-Vote": 16, "Resp": 1,
    },
    (DEFAULT_SEED, 1000): {
        "Fair": 476, "Raw": 898, "Sure(0)": 162, "Sure(2)": 419, "Sure(5)": 476,
        "Alw": 237, "PQ-Alw": 493, "Q-Alw": 726, "Alw-Q": 1000, "P-Alw-Q": 620,
        "PQ-Extra-Dur(0,2)": 979, "PQ-Extra-Dur(2,5)": 624, "PQ-Dur(2)": 979,
        "PQ-Dur(5)": 751, "Each-Exec": 0, "Some-Exec": 238, "Each-Learn": 141,
        "Some-Learn": 501, "Each-Vote": 743, "Resp": 115,
    },
}


def gate_edges(violated: list) -> list:
    return [f"edge instances {violated} violated"] if violated else []


def gate_holds(counts: dict, pinned: dict) -> list:
    return [f"{label}: Holds on {counts.get(label)} traces, pinned {want}"
            for label, want in sorted(pinned.items()) if counts.get(label) != want]


def holds_counts(corpus, cids) -> dict:
    counts = {cid.label(): 0 for cid in cids}
    for trace in corpus:
        for cid in cids:
            if temporal.eval_expr(catalog.build(cid), trace).is_holds:
                counts[cid.label()] += 1
    return counts


class CorpusCheck:
    name = "corpus-check"
    latency = "op"

    def __init__(self, tiny: bool = False):
        self.size = 20 if tiny else 1000

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.edges = hierarchy.edge_instances()
        self.cids = edge_cids()
        self.first_corpus = None

    def job(self, rec: Recorder) -> None:
        corpus = rec.step(lambda: hierarchy.make_corpus(self.size, self.seed))
        for trace in corpus:
            rec.op(lambda: hierarchy.check_trace_edges(trace, self.edges), gate_edges)
        rec.counters["corpus_states"] += sum(len(t.states) for t in corpus)
        if self.first_corpus is None:
            self.first_corpus = corpus

    def finish(self, rec: Recorder) -> None:
        pinned = PINNED_HOLDS.get((self.seed, self.size))
        if pinned is not None:
            rec.check(gate_holds(holds_counts(self.first_corpus, self.cids), pinned))


# ---------------------------------------------------------------------------
# state-space: modelcheck --proposers 3 --acceptors 4 --start 0 1 2 3 4

#: (states_generated, distinct_states) of explore(make_config(3, 4), x)
PINNED_EXPLORE = {0: (206, 92), 1: (3506, 1457), 2: (54788, 21932),
                  3: (838294, 329057), 4: (838338, 329057)}
PINNED_SCAN = (352516, 126121)   # (states_generated, distinct_states)


def gate_explore(x: int, run) -> list:
    errors = []
    want = checker.formula_oracle(3, 4, x)
    if run.stable_length != want:
        errors.append(f"start {x}: stable_length {run.stable_length}, oracle {want}")
    got = (run.states_generated, run.distinct_states)
    if got != PINNED_EXPLORE[x]:
        errors.append(f"start {x}: states/distinct {got}, pinned {PINNED_EXPLORE[x]}")
    return errors


def gate_scan(report) -> list:
    errors = [f"safety violation: {v}" for v in report.violations]
    got = (report.states_generated, report.distinct_states)
    if got != PINNED_SCAN:
        errors.append(f"safety scan states/distinct {got}, pinned {PINNED_SCAN}")
    return errors


class StateSpace:
    name = "state-space"
    # Six unlike searches a job give no steady per-search percentile; the
    # latency percentiles are taken over whole sweeps instead.
    latency = "job"

    def __init__(self, tiny: bool = False):
        self.starts = (0, 1, 2) if tiny else (0, 1, 2, 3, 4)

    def setup(self, seed: int) -> None:
        self.config = machine.make_config(3, 4)
        self.scan_config = checker.competing_rounds_config(2, 3)

    def job(self, rec: Recorder) -> None:
        for x in self.starts:
            run = rec.op(lambda: checker.explore(self.config, x),
                         lambda r: gate_explore(x, r))
            if run is not None:
                rec.counters[f"explore.{x}.distinct_states"] = run.distinct_states
        report = rec.op(lambda: checker.safety_scan(self.scan_config), gate_scan)
        if report is not None:
            rec.counters["safety_scan.distinct_states"] = report.distinct_states

    def finish(self, rec: Recorder) -> None:
        pass


# ---------------------------------------------------------------------------
# lasso-search: the demos/06 triples
#
# The 4-round case (Fair/Alw/Some-Learn on make_config(2,3), undetermined at
# the 500k budget) is left out: one 10-13 s search over 240 MB whose time
# spread by 25-30% from run to run on a busy host.

#: (link, server, assertion, accepted outcome)
LASSO_CASES = (
    ("Fair", "Alw-Q", "Some-Learn", "counterexample"),
    ("Raw", "Alw", "Each-Vote", "counterexample"),
    ("Fair", "Alw", "Some-Learn", "holds"),
)


def gate_lasso(case, res) -> list:
    """Outcome as pinned; a counterexample must re-check on all three."""
    link, server, assertion, expected = case
    tag = f"({link}, {server}) vs {assertion}"
    if res.outcome != expected:
        return [f"{tag}: {res.outcome}, expected {expected}"]
    if not res.is_counterexample:
        return []
    errors = []
    trace = res.trace
    if not temporal.eval_expr(catalog.build(
            CatalogId(ASSERTION_SINGLE, assertion)), trace).is_violated:
        errors.append(f"{tag}: the counterexample does not violate {assertion}")
    if not temporal.eval_expr(catalog.build(CatalogId(SERVER, server)), trace).is_holds:
        errors.append(f"{tag}: the counterexample is not admitted by {server}")
    if link != "Raw" and not temporal.eval_expr(
            catalog.build(CatalogId(LINK, link)), trace).is_holds:
        errors.append(f"{tag}: the counterexample is not admitted by {link}")
    return errors


class LassoSearch:
    name = "lasso-search"
    # Two millisecond searches and one of seconds a job: the per-search
    # median would be a few samples of a millisecond search, so the latency
    # percentiles are taken over whole jobs instead.
    latency = "job"

    def __init__(self, tiny: bool = False):
        self.cases = LASSO_CASES[:2] if tiny else LASSO_CASES

    def setup(self, seed: int) -> None:
        self.config = checker.competing_rounds_config(2, 3)
        self.jobs = [(case, CatalogId(LINK, case[0]), CatalogId(SERVER, case[1]),
                      CatalogId(ASSERTION_SINGLE, case[2])) for case in self.cases]

    def job(self, rec: Recorder) -> None:
        for k, (case, link, server, assertion) in enumerate(self.jobs):
            res = rec.op(lambda: checker.check_liveness_lasso(self.config, link, server,
                                                              assertion),
                         lambda r: gate_lasso(case, r))
            if res is not None:
                rec.counters[f"case{k}.{res.outcome}.states_explored"] = res.states_explored

    def finish(self, rec: Recorder) -> None:
        pass


# ---------------------------------------------------------------------------
# simulate-check: simulate, write and read back, replay, trace check

def demand_matrix() -> list:
    """The 6 link x 14 server demands of the realizable generator matrix."""
    links = [(CatalogId(LINK, "Raw"), SATISFY), (CatalogId(LINK, "Fair"), SATISFY),
             (CatalogId(LINK, "Sure", (8,)), SATISFY), (CatalogId(LINK, "Fair"), VIOLATE),
             (CatalogId(LINK, "Raw"), VIOLATE), (CatalogId(LINK, "Sure", (3,)), VIOLATE)]
    servers = [(CatalogId(SERVER, name, params), mode)
               for name, params in (("Alw-Q", ()), ("Q-Alw", ()), ("P-Alw-Q", ()),
                                    ("PQ-Alw", ()), ("Alw", ()), ("PQ-Dur", (3,)),
                                    ("PQ-Extra-Dur", (2, 2)))
               for mode in (SATISFY, VIOLATE)]
    return [AssumptionTarget(Demand(lp, lm), Demand(sp, sm))
            for lp, lm in links for sp, sm in servers]


def _text(write, obj) -> str:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


def gate_simulate(target, out) -> list:
    schedule, trace, trace_text, sched_text, trace_back, sched_back, replay, parsed = out
    errors = []
    built = adversary.validate(trace, target)
    for d, v in zip(target.demands(), built):
        if not (v.is_holds if d.mode == SATISFY else v.is_violated):
            errors.append(f"{d.prop.label()}: wanted {d.mode}, got {v}")
    if _text(tracefile.write_trace, trace_back) != trace_text:
        errors.append("trace write -> read -> write is not byte-identical")
    if _text(tracefile.write_schedule, sched_back) != sched_text:
        errors.append("schedule write -> read -> write is not byte-identical")
    if _text(tracefile.write_trace, replay) != trace_text:
        errors.append("replaying the schedule read back changes the trace bytes")
    if tuple(parsed) != tuple(built):
        errors.append(f"parsed-text verdicts {[str(v) for v in parsed]} differ from "
                      f"built verdicts {[str(v) for v in built]}")
    return errors


class SimulateCheck:
    name = "simulate-check"
    latency = "op"

    rounds = 2

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def setup(self, seed: int) -> None:
        self.config = machine.make_config(2, 3)
        targets = demand_matrix()
        if self.tiny:
            targets = targets[::7]
        rng = random.Random(seed)
        self.ops = [(t, rng.randrange(2 ** 31)) for _ in range(self.rounds) for t in targets]
        self.texts = {t: [(catalog.CANONICAL_TEXT[(d.prop.kind, d.prop.name)],
                           _cid_params(d.prop)) for d in t.demands()]
                      for t in targets}

    def pipeline(self, target, gen_seed):
        schedule = adversary.generate(target, self.config, seed=gen_seed)
        trace = adversary.run_schedule(schedule)
        buf = io.StringIO()
        tracefile.write_trace(trace, buf)
        trace_text = buf.getvalue()
        buf = io.StringIO()
        tracefile.write_schedule(schedule, buf)
        sched_text = buf.getvalue()
        trace_back = tracefile.read_trace(io.StringIO(trace_text))
        sched_back = tracefile.read_schedule(io.StringIO(sched_text))
        replay = adversary.run_schedule(sched_back)
        parsed = [temporal.eval_expr(language.parse(text, params), trace_back)
                  for text, params in self.texts[target]]
        return (schedule, trace, trace_text, sched_text, trace_back, sched_back,
                replay, parsed)

    def job(self, rec: Recorder) -> None:
        for target, gen_seed in self.ops:
            out = rec.op(lambda: self.pipeline(target, gen_seed),
                         lambda o: gate_simulate(target, o))
            if out is not None:
                rec.counters["schedule_steps"] += len(out[0].steps)
                rec.counters["trace_bytes"] += len(out[2])

    def finish(self, rec: Recorder) -> None:
        pass


WORKLOADS = {w.name: w for w in (CorpusCheck, StateSpace, LassoSearch, SimulateCheck)}


def percentile_ms(seconds: list, q: int) -> float:
    """The q-th percentile of op latencies, in milliseconds."""
    if len(seconds) == 1:
        return seconds[0] * 1e3
    return statistics.quantiles(seconds, n=100, method="inclusive")[q - 1] * 1e3
