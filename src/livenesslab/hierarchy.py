"""Implication-edge testing over trace corpora, with constructive
strictness witnesses and the two incomparability reports.

The random corpus generator produces lasso traces of plausible quorum
systems: learned values are always backed by a vote quorum, execution
implies learning, responses imply execution and a request, at least one
message is sent, and a primary, once elected, only changes when it crashes.
Those are exactly the domain invariants the assertion hierarchy leans on.
Crash patterns are biased toward boundary behaviors (bursts at window
edges, deliveries at exact bounds) because uniform noise rarely exercises
the duration operators.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

from .catalog import (
    ASSERTION_SINGLE, LINK, SERVER, CatalogId, build, hierarchy_edges,
)
from .machine import SystemConfig
from .scenarios import TraceBuilder, raft_eachvote_lasso
from .temporal import HOLDS, VIOLATED, Trace, eval_expr


class HierarchyError(Exception):
    pass


class NoWitnessShipped(HierarchyError):
    pass


@dataclass(frozen=True)
class EdgeReport:
    edge: tuple                     # (stronger, weaker) CatalogIds with params
    corpus_size: int
    violations: tuple               # indices of offending traces
    witness: Optional[Trace] = None


# ---------------------------------------------------------------------------
# random corpus

def corpus_config() -> SystemConfig:
    return SystemConfig(
        proposers=("s1", "s2"),
        acceptors=("s1", "s2", "s3"),
        clients=("c1",),
        values=("v1", "v2"),
        rounds=(1, 2, 3),
        slot_bound=2,
    )


def random_lasso(rng: random.Random) -> Trace:
    cfg = corpus_config()
    servers = list(cfg.servers)
    everyone = set(cfg.servers) | set(cfg.clients)
    b = TraceBuilder(cfg)
    length = rng.randint(5, 9)

    # crash pattern for the prefix
    pattern = rng.choice(["all_up", "one_down", "rotate", "burst", "heal"])
    down_at = {}
    if pattern == "one_down":
        victim = rng.choice(servers)
        start = rng.randrange(length)
        for t in range(start, length):
            down_at[t] = {victim}
    elif pattern == "rotate":
        for t in range(length):
            down_at[t] = {servers[t % len(servers)]} if t % 2 else set()
    elif pattern == "burst":
        start = rng.randrange(max(1, length - 2))
        crowd = set(rng.sample(servers, k=min(len(servers), 2)))
        for t in (start, start + 1):
            down_at[t] = set(crowd)
    elif pattern == "heal":
        victim = rng.choice(servers)
        until = rng.randrange(1, length)
        for t in range(until):
            down_at[t] = {victim}

    # messages: at least one, delivered promptly, at an exact bound, or never
    n_msgs = rng.randint(1, 4)
    sends = []
    for k in range(n_msgs):
        frm, to = rng.sample(servers, 2)
        at = rng.randrange(max(1, length - 1))
        delay = rng.choice([0, 0, 1, 2, 2, 3, 5, None])
        sends.append((at, frm, f"m{k + 1}", to, delay))

    # facts: one archetype per trace
    archetype = rng.choice([
        "nothing", "votes_only", "partial_votes", "choose", "learn_one",
        "learn_quorum", "exec_one", "full_pipeline",
    ])
    quorum = sorted(rng.choice(cfg.quorums))
    rnd = rng.choice(cfg.rounds)
    value = rng.choice(cfg.values)
    slot = rng.randint(1, cfg.slot_bound)
    fact_at = rng.randrange(1, length) if length > 1 else 0

    primary = servers[0]
    b.primary(primary)
    for t in range(length):
        down = down_at.get(t, set())
        b.nf = everyone - down
        if primary in down:
            alive = [s for s in servers if s not in down]
            primary = alive[0] if alive else primary
            b.primary(primary)
        for (at, frm, msg, to, delay) in sends:
            if at == t:
                b.send(frm, msg, to)
            if delay is not None and at + delay == t:
                b.deliver(frm, msg, to)
        if t == fact_at and archetype != "nothing":
            if archetype in ("votes_only", "choose", "learn_one", "learn_quorum",
                            "exec_one", "full_pipeline"):
                for s in quorum:
                    b.vote(s, rnd, slot, value)
            if archetype == "partial_votes":
                b.vote(quorum[0], rnd, slot, value)
            if archetype in ("learn_one", "exec_one", "full_pipeline"):
                b.learn(quorum[0], slot, value)
            if archetype == "learn_quorum":
                for s in quorum:
                    b.learn(s, slot, value)
            if archetype in ("exec_one", "full_pipeline"):
                b.execute(quorum[0], slot, value)
            if archetype == "full_pipeline":
                b.request("c1", value)
                b.respond("c1", value)
        b.commit()

    # the cycle varies only transient fields
    cycle = rng.choice(["stutter", "rotate_pair", "flap_primary", "fixed_down"])
    loop_start = len(b.snapshots)
    if cycle == "stutter":
        b.nf = set(everyone)
        b.commit()
    elif cycle == "rotate_pair":
        pair = rng.sample(servers, 2)
        for s in pair:
            b.nf = everyone - {s}
            if primary == s:
                others = [x for x in servers if x != s]
                b.primary(others[0])
                primary = others[0]
            b.commit()
    elif cycle == "flap_primary":
        b.nf = everyone - {primary}
        b.commit()
        b.nf = set(everyone)
        b.commit()
    else:
        victim = rng.choice(servers)
        b.nf = everyone - {victim}
        if primary == victim:
            others = [x for x in servers if x != victim]
            b.primary(others[0])
        b.commit()
        b.commit()
    return b.build(loop_start=loop_start)


def make_corpus(size: int, seed: int) -> list:
    rng = random.Random(seed)
    return [random_lasso(rng) for _ in range(size)]


# ---------------------------------------------------------------------------
# edge checking

_SAMPLE_PARAMS = ((0, 2), (2, 5))


def edge_instances():
    """Solid edges with concrete parameters filled in.

    Sure and PQ-Dur get sampled durations; PQ-Extra-Dur(D1,D2) implies
    PQ-Dur(D2); the Sure(D1) -> Sure(D2) monotonicity family is included
    for each sampled D1 <= D2 pair.
    """
    solid, _dashed = hierarchy_edges()
    out = []
    for stronger, weaker in solid:
        if stronger.name == "Sure":
            for (d1, d2) in _SAMPLE_PARAMS:
                out.append((CatalogId(LINK, "Sure", (d1,)), weaker))
                out.append((CatalogId(LINK, "Sure", (d1,)),
                            CatalogId(LINK, "Sure", (d2,))))
        elif stronger.name == "PQ-Extra-Dur":
            for (d1, d2) in _SAMPLE_PARAMS:
                out.append((CatalogId(SERVER, "PQ-Extra-Dur", (d1, d2)),
                            CatalogId(SERVER, "PQ-Dur", (d2,))))
        elif weaker.name == "PQ-Dur":
            for (_d1, d2) in _SAMPLE_PARAMS:
                out.append((stronger, CatalogId(SERVER, "PQ-Dur", (d2,))))
        elif weaker.name == "PQ-Extra-Dur":
            for (d1, d2) in _SAMPLE_PARAMS:
                out.append((stronger, CatalogId(SERVER, "PQ-Extra-Dur", (d1, d2))))
        else:
            out.append((stronger, weaker))
    seen = []
    for e in out:
        if e not in seen:
            seen.append(e)
    return seen


def _eval_cached(cache: dict, cid: CatalogId, trace: Trace):
    got = cache.get(cid)
    if got is None:
        got = eval_expr(build(cid), trace)
        cache[cid] = got
    return got


def check_trace_edges(trace: Trace, edges) -> list:
    """Indices of the edges the trace violates (stronger holds, weaker not)."""
    cache: dict = {}
    bad = []
    for k, (stronger, weaker) in enumerate(edges):
        sv = _eval_cached(cache, stronger, trace)
        if not sv.is_holds:
            continue
        wv = _eval_cached(cache, weaker, trace)
        if not wv.is_holds:
            bad.append(k)
    return bad


def check_edges(corpus, jobs: int = 1) -> list:
    """One EdgeReport per solid edge instance over the whole corpus, in up
    to ``jobs`` worker processes (at most one per CPU and per trace)."""
    edges = edge_instances()
    per_edge = {k: [] for k in range(len(edges))}
    jobs = min(jobs, os.cpu_count() or 1, len(corpus))
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            results = pool.starmap(
                check_trace_edges, [(t, edges) for t in corpus], chunksize=64)
    else:
        results = [check_trace_edges(t, edges) for t in corpus]
    for idx, bad in enumerate(results):
        for k in bad:
            per_edge[k].append(idx)
    reports = []
    for k, (stronger, weaker) in enumerate(edges):
        witness = None
        try:
            witness = separating_witness(weaker, stronger)
        except NoWitnessShipped:
            pass
        reports.append(EdgeReport(
            edge=(stronger, weaker),
            corpus_size=len(corpus),
            violations=tuple(per_edge[k]),
            witness=witness,
        ))
    return reports


# ---------------------------------------------------------------------------
# strictness witnesses

def _witness_config() -> SystemConfig:
    return SystemConfig(
        proposers=("p1",),
        acceptors=("a1", "a2", "a3"),
        clients=("c1",),
        values=("v1",),
        rounds=(1,),
    )


def _one_of_two_delivered() -> Trace:
    b = TraceBuilder(_witness_config())
    b.primary("p1").commit()
    b.send("p1", "m1", "a1").send("p1", "m2", "a1").commit()
    b.deliver("p1", "m1", "a1").commit()
    return b.build(loop_start=2)


def _late_delivery(bound: int) -> Trace:
    b = TraceBuilder(_witness_config())
    b.primary("p1").commit()
    b.send("p1", "m1", "a1").commit()
    for _ in range(bound + 2):
        b.commit()
    b.deliver("p1", "m1", "a1").commit()
    return b.build(loop_start=bound + 4)


def _rotating_quorum(with_primary: bool) -> Trace:
    b = TraceBuilder(_witness_config())
    everyone = set(b.nf)
    if with_primary:
        b.primary("p1")
    b.commit()
    loop = len(b.snapshots)
    b.nf = everyone - {"a3"}
    b.commit()
    b.nf = everyone - {"a1"}
    b.commit()
    return b.build(loop_start=loop)


_QUORUM = ("a1", "a2")


def _facts_witness(learners, executors=()) -> Trace:
    """A quorum votes v1, then ``learners`` learn and ``executors`` execute it."""
    cfg = _witness_config()
    b = TraceBuilder(cfg)
    b.primary("p1").commit()
    for s in _QUORUM:
        b.vote(s, 1, 1, "v1")
    b.commit()
    for s in learners:
        b.learn(s, 1, "v1")
    for s in executors:
        b.execute(s, 1, "v1")
    b.commit()
    return b.build(loop_start=2)


def _witness_builders():
    return {
        ("Raw", "Fair"): lambda params: _one_of_two_delivered(),
        ("Fair", "Sure"): lambda params: _late_delivery(params[0] if params else 2),
        ("Alw-Q", "Q-Alw"): lambda params: _rotating_quorum(False),
        ("P-Alw-Q", "PQ-Alw"): lambda params: _rotating_quorum(True),
        ("Each-Vote", "Some-Learn"): lambda params: raft_eachvote_lasso(),
        ("Some-Learn", "Each-Learn"):
            lambda params: _facts_witness(("a1",)),
        ("Some-Learn", "Some-Exec"):
            lambda params: _facts_witness(("a1",)),
        ("Each-Learn", "Each-Exec"):
            lambda params: _facts_witness(_QUORUM),
        ("Some-Exec", "Each-Exec"):
            lambda params: _facts_witness(("a1",), executors=("a1",)),
    }


def separating_witness(weaker: CatalogId, stronger: CatalogId) -> Trace:
    """A lasso where the weaker property holds and the stronger fails.

    Shipped for the constructive set; everything else raises
    NoWitnessShipped so the gap is explicit rather than silent.
    """
    builders = _witness_builders()
    key = (weaker.name, stronger.name)
    if key not in builders:
        raise NoWitnessShipped(f"no constructive witness for {weaker.label()} "
                               f"vs {stronger.label()}")
    trace = builders[key](stronger.params)
    weak_v = eval_expr(build(weaker), trace)
    strong_v = eval_expr(build(_with_default_params(stronger)), trace)
    if not weak_v.is_holds or not strong_v.is_violated:
        raise HierarchyError(
            f"witness for {key} mislabeled: weaker={weak_v}, stronger={strong_v}")
    return trace


def _with_default_params(cid: CatalogId) -> CatalogId:
    if cid.name == "Sure" and not cid.params:
        return CatalogId(cid.kind, cid.name, (2,))
    if cid.name == "PQ-Dur" and not cid.params:
        return CatalogId(cid.kind, cid.name, (2,))
    if cid.name == "PQ-Extra-Dur" and not cid.params:
        return CatalogId(cid.kind, cid.name, (2, 2))
    return cid


def witness_coverage():
    """(edge, 'witness' | 'no-witness-shipped') for every solid edge."""
    out = []
    for stronger, weaker in edge_instances():
        try:
            separating_witness(weaker, stronger)
            out.append(((stronger, weaker), "witness"))
        except NoWitnessShipped:
            out.append(((stronger, weaker), "no-witness-shipped"))
    return out


# ---------------------------------------------------------------------------
# incomparable pairs

def _extradur_not_pqalw() -> Trace:
    """A long stable window followed by primary flapping forever."""
    b = TraceBuilder(_witness_config())
    everyone = set(b.nf)
    b.primary("p1").commit()
    for _ in range(6):
        b.commit()                       # stable window: roster, primary, quorum
    loop = len(b.snapshots)
    b.nf = everyone - {"p1"}
    b.primary("a1")
    b.commit()
    b.nf = everyone
    b.primary("p1")
    b.commit()
    return b.build(loop_start=loop)


def _pqalw_not_extradur(d1: int, d2: int) -> Trace:
    """Primary and quorum eternally fine, but the roster never sits still
    for a whole window."""
    cfg = _witness_config()
    b = TraceBuilder(cfg)
    full = set(cfg.servers)
    b.primary("p1").commit()
    loop = len(b.snapshots)
    flip = max(1, (d1 + d2) // 2)
    for phase in (full, full - {"a3"}):
        b.set_roster(phase)
        for _ in range(flip):
            b.commit()
    return b.build(loop_start=loop)


def incomparability_report():
    """Two witnesses per declared incomparable pair, each direction.

    In each (a, b, w1, w2) entry, w1 satisfies a and violates b, and w2 the
    reverse; a witness that does not raises HierarchyError.
    """
    pairs = [
        (CatalogId(SERVER, "PQ-Extra-Dur", (2, 2)), CatalogId(SERVER, "PQ-Alw"),
         _extradur_not_pqalw(), _pqalw_not_extradur(2, 2)),
        (CatalogId(ASSERTION_SINGLE, "Some-Exec"), CatalogId(ASSERTION_SINGLE, "Each-Learn"),
         _facts_witness(("a1",), executors=("a1",)),
         _facts_witness(_QUORUM)),
    ]
    for a, b, w1, w2 in pairs:
        for cid, trace, want in ((a, w1, HOLDS), (b, w1, VIOLATED),
                                 (b, w2, HOLDS), (a, w2, VIOLATED)):
            got = eval_expr(build(cid), trace)
            if got.status != want:
                raise HierarchyError(
                    f"incomparability witness mislabeled: {cid.label()} is {got}, "
                    f"expected {want}")
    return pairs
