import dataclasses
import hashlib
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from livenesslab.catalog import assertion_single, link_property, server_property
from livenesslab.hierarchy import corpus_config, random_lasso
from livenesslab.language import parse
from livenesslab.scenarios import TraceBuilder, raft_eachvote_lasso
from livenesslab.temporal import (
    Alw, Atom, At, Const, Each, Evt, Interval, LassoInconsistent, NamedDomain,
    NfSet, Not, ObservationState, ServersEq, TimeOutOfRange, TLit, TNow, TPlus,
    Trace, TrueE, UNDETERMINED, UnboundVariable, Var, desugar, eval_expr,
    normalize_at,
)

from oracles import naive_eval, random_expr


def quorum_lasso(always_up=("a1", "a2")):
    """Cycle keeps the given pair non-faulty while a third node flaps."""
    b = TraceBuilder(corpus_config())
    b.commit()
    b.nf = set(always_up) | {"c1"}
    b.commit()
    b.nf = set(always_up) | {"s2", "c1"}
    b.commit()
    return b.build(loop_start=1)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(TLit(0), None, True, True)  # unbounded must be open


def test_trace_requires_monotone_histories():
    s0 = ObservationState(sent=frozenset({("a", "m", "b")}))
    s1 = ObservationState()
    with pytest.raises(ValueError, match="monotone"):
        Trace([s0, s1], corpus_config())


def test_trace_rejects_unsent_receipts():
    s0 = ObservationState(received=frozenset({("b", "m", "a")}))
    with pytest.raises(ValueError, match="never sent"):
        Trace([s0], corpus_config())


def test_lasso_requires_frozen_histories():
    s0 = ObservationState()
    s1 = ObservationState(sent=frozenset({("a", "m", "b")}))
    with pytest.raises(LassoInconsistent):
        Trace([s0, s1], corpus_config(), loop_start=0)
    with pytest.raises(LassoInconsistent):
        Trace([s0, s1], corpus_config(), loop_start=5)


def test_state_at_wraps_the_cycle():
    tr = quorum_lasso()
    assert tr.period == 2
    assert tr.state_at(3) is tr.states[1]
    assert tr.state_at(4) is tr.states[2]
    assert tr.state_at(101) is tr.states[1 + (101 - 1) % 2]
    finite = Trace(tr.states, tr.config)
    assert finite.state_at(17) is None
    with pytest.raises(TimeOutOfRange):
        tr.state_at(-1)


def test_alw_tautology_holds():
    tr = quorum_lasso()
    assert eval_expr(Alw(TrueE()), tr).is_holds


def test_evt_on_finite_prefix_is_undetermined_with_bound():
    cfg = corpus_config()
    states = [ObservationState(roster=frozenset(cfg.servers))] * 4
    tr = Trace(states, cfg)
    verdict = eval_expr(Evt(Atom("learned", (Const("s1"), Const("v1")))), tr)
    assert verdict.status == UNDETERMINED
    assert verdict.bound == 4


def test_evt_alw_quorum_lasso_matches_brute_force_unrolling():
    # independent check: unroll the lasso well past two full cycles and
    # evaluate with the naive bounded oracle
    tr = quorum_lasso()
    expr = Evt(Alw(NfSet(Const(frozenset({"a1", "a2"})))))
    expr = Evt(Alw(Atom("nf", (Const("a1"),))))
    assert eval_expr(expr, tr).is_holds
    unrolled = tr.unrolled(extra_cycles=3)
    assert naive_eval(Alw(Atom("nf", (Const("a1"),))), list(unrolled.states),
                      tr.config, now=1) is not False
    # values that are lists bind a window body's variable to something
    # unhashable, so the closures answer in place of the body's mask
    for text in ("some v in values has evt alw (v nf)", "each v in values has alw (v nf)",
                 "each v in values has evt (v nf)"):
        expr = parse(text)
        got = []
        for values in ((["a1", "a2"], ["a1", "s2"]), (("a1", "a2"), ("a1", "s2"))):
            cfg = dataclasses.replace(tr.config, values=values)
            got.append(eval_expr(expr, Trace(tr.states, cfg, tr.loop_start)).status)
            assert naive_eval(expr, list(unrolled.states), cfg) in (
                {"holds": True, "violated": False}[got[-1]], None), text
        assert got[0] == got[1], text


def test_duality_not_alw_equals_evt_not():
    rng = random.Random(42)
    for _ in range(150):
        trace = random_lasso(rng)
        body = random_expr(rng, depth=2)
        left = eval_expr(Not(Alw(body)), trace)
        right = eval_expr(Evt(Not(body)), trace)
        assert left == right


def test_kleene_monotonicity_under_extension():
    rng = random.Random(7)
    for _ in range(150):
        full = random_lasso(rng)
        expr = random_expr(rng, depth=3)
        for cut in range(5, len(full.states)):
            short = Trace(full.states[:cut], full.config)
            longer = Trace(full.states[:cut + 1], full.config)
            v1 = eval_expr(expr, short)
            v2 = eval_expr(expr, longer)
            if not v1.is_undetermined:
                assert v1.status == v2.status


def test_lasso_exactness_against_unrolled_prefix():
    rng = random.Random(99)
    catalog_exprs = [assertion_single("Some-Learn"), server_property("Alw-Q"),
                     server_property("Q-Alw")]
    for k in range(120):
        trace = random_lasso(rng)
        exprs = [random_expr(rng, depth=3)] + catalog_exprs
        unrolled = trace.unrolled(extra_cycles=2)
        for expr in exprs:
            finite = eval_expr(expr, Trace(unrolled.states, trace.config))
            if finite.is_undetermined:
                continue
            assert eval_expr(expr, trace).status == finite.status


def test_eval_matches_naive_oracle_on_finite_traces():
    rng = random.Random(1234)
    for _ in range(250):
        lasso = random_lasso(rng)
        trace = Trace(lasso.states, lasso.config)  # drop the loop
        expr = random_expr(rng, depth=3)
        mine = eval_expr(expr, trace)
        ref = naive_eval(expr, list(trace.states), trace.config)
        expected = {True: "holds", False: "violated", None: "undetermined"}[ref]
        assert mine.status == expected, (expr, trace.states)
    # past the end: the roster at two ticks, an atom nothing records, and a
    # quantifier over the roster
    trace = Trace(quorum_lasso().states, corpus_config())
    later = TPlus(TNow(), len(trace.states))
    for expr in (ServersEq(later, TNow()), At(Atom("frob", ()), later),
                 At(Each("p", NamedDomain("servers"), Atom("nf", (Var("p"),))), later)):
        assert naive_eval(expr, list(trace.states), trace.config) is None, expr
        assert eval_expr(expr, trace).is_undetermined, expr


def test_normalize_and_desugar_preserve_eval():
    rng = random.Random(2024)
    for _ in range(250):
        trace = random_lasso(rng)
        expr = random_expr(rng, depth=3)
        base = eval_expr(expr, trace)
        assert eval_expr(normalize_at(expr), trace) == base
        assert eval_expr(desugar(expr), trace) == base
        assert eval_expr(desugar(normalize_at(expr)), trace) == base


def test_eval_now_out_of_range():
    tr = quorum_lasso()
    with pytest.raises(TimeOutOfRange):
        eval_expr(TrueE(), tr, now=len(tr.states))


def test_literal_at_beyond_finite_trace_raises():
    cfg = corpus_config()
    tr = Trace([ObservationState(roster=frozenset(cfg.servers))] * 3, cfg)
    with pytest.raises(TimeOutOfRange):
        eval_expr(At(TrueE(), TLit(9)), tr)
    # on a lasso the same time is well-defined
    assert eval_expr(At(TrueE(), TLit(9)), tr.stuttered()).is_holds
    # a time before tick 0 is out of range on either
    for trace in (tr, tr.stuttered()):
        with pytest.raises(TimeOutOfRange, match="before the start"):
            eval_expr(At(TrueE(), TPlus(TNow(), -1)), trace)


def test_send_quantifiers_take_messages_that_do_not_compare():
    sent = frozenset({("s1", "m", "s2"), ("s1", ("x",), "s2")})
    tr = Trace([ObservationState(sent=sent)], corpus_config(), loop_start=0)
    assert eval_expr(link_property("Fair"), tr).is_violated
    assert eval_expr(link_property("Raw"), tr).is_violated


def test_unbound_variable_rejected():
    with pytest.raises(UnboundVariable):
        eval_expr(Atom("nf", (Var("ghost"),)), quorum_lasso())



def test_quantifiers_whose_body_ignores_the_variable_answer_once():
    # enumerating every binding took 3**n body evaluations on the 3-server
    # roster: 0.2 s at n = 12, unfinished at n = 20
    trace = raft_eachvote_lasso()
    for quantifier, wrap in (("each", "{}"), ("some", "alw ({})")):
        for tail in ("servers nf", "true"):
            def text(n):
                return wrap.format(f"{quantifier} x in servers has " * n + tail)
            want = eval_expr(parse(text(1)), trace).status
            for n in (20, 62):
                expr = parse(text(n))
                t0 = time.perf_counter()
                assert eval_expr(expr, trace).status == want, (quantifier, tail, n)
                assert time.perf_counter() - t0 < 1.0, (quantifier, tail, n)
    t0 = time.perf_counter()
    assert eval_expr(parse("each x in servers has " * 64 + "true"), trace).is_holds
    assert time.perf_counter() - t0 < 1.0


def test_tick_quantifiers_whose_body_ignores_the_tick_answer_once(monkeypatch):
    # a loop over every position made about ten times more body calls per
    # level, so the count, not the wall time, shows the fix
    from livenesslab import temporal

    lasso = raft_eachvote_lasso()
    index_at, calls = temporal._TraceIndex.at, []

    def counted(self, name, t):
        calls.append(t)
        assert len(calls) <= 8, "the body is evaluated once per tick"
        return index_at(self, name, t)

    monkeypatch.setattr(temporal._TraceIndex, "at", counted)
    for trace in (lasso, Trace(lasso.states, lasso.config)):
        for quantifier in ("each", "some"):
            for interval in ("[0,inf)", "[.+1,.+3]", "[4,2]"):
                def text(n):
                    return f"{quantifier} tK in {interval} has " * n + "servers nf"
                want = eval_expr(parse(text(1)), trace).status
                calls.clear()
                assert eval_expr(parse(text(8)), trace).status == want, \
                    (quantifier, interval, trace.loop_start)
                assert len(calls) <= 1


def test_quantifiers_over_an_empty_roster_read_or_not():
    # a body that ignores the variable answers once; one that reads it but
    # has the same value takes the per-member loop, closures and masks alike
    b = TraceBuilder(corpus_config())
    for roster in ([], ["s1"], [], ["s1", "s2"]):
        b.set_roster(roster)
        b.commit()
    trace = b.build(loop_start=1)
    pairs = (("true", "(x.nf or not x.nf)"), ("false", "(x.nf and not x.nf)"),
             ("servers nf", "(servers nf and (x.nf or not x.nf))"))
    for quantifier in ("each", "some"):
        for ignores, reads in pairs:
            for wrap in ("{}", "alw ({})", "evt ({})", "alw evt ({})"):
                def expr(body):
                    return parse(wrap.format(f"{quantifier} x in servers has {body}"))
                for now in range(len(trace)):
                    got = eval_expr(expr(ignores), trace, now).status
                    assert got == eval_expr(expr(reads), trace, now).status, \
                        (quantifier, ignores, wrap, now)
                    assert got == eval_expr(normalize_at(expr(ignores)), trace, now).status

@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=30))
def test_stutter_lasso_is_constant_suffix(t):
    tr = quorum_lasso()
    stuttered = Trace(tr.states, tr.config).stuttered()
    assert stuttered.state_at(len(tr.states) - 1 + t) is tr.states[-1]


def test_normalize_at_distributes_over_connectives():
    from livenesslab.temporal import And, TickDomain, Some, Each, TVar, unbounded

    a = Atom("nf", (Const("s1"),))
    b = Atom("is_primary", (Const("s1"),))
    got = normalize_at(At(And(a, b), TLit(3)))
    assert got == And(At(a, TLit(3)), At(b, TLit(3)))

    # alw evt c becomes nested tick quantification with explicit leaf times
    got = normalize_at(Alw(Evt(a)))
    assert isinstance(got, Each)
    assert isinstance(got.domain, TickDomain) and got.domain.interval.hi is None
    inner = got.body
    assert isinstance(inner, Some)
    assert inner.domain.interval.lo == TVar(got.var)
    assert inner.body == At(a, TVar(inner.var))


def test_desugar_spec_rewrites():
    from livenesslab.temporal import (
        After, Each, Interval, Lasts, MemberDomain, NfSet, TNow, TickDomain,
        TVar, Var, tplus,
    )

    a = Atom("nf", (Const("s1"),))
    got = desugar(Lasts(a, 5))
    assert isinstance(got, Each) and isinstance(got.domain, TickDomain)
    assert got.domain.interval == Interval(TNow(), tplus(TNow(), 5), True, True)
    assert got.body == At(a, TVar(got.var))

    got = desugar(After(a, 0))
    assert got.domain.interval == Interval(TNow(), None, False, False)

    got = desugar(NfSet(Var("q")))
    assert isinstance(got, Each) and got.domain == MemberDomain("q")
    assert got.body == Atom("nf", (Var(got.var),))


def test_rewrites_golden_digest():
    """normalize_at and desugar output, fresh names included, is pinned."""
    from livenesslab.catalog import CANONICAL_TEXT
    from livenesslab.language import parse

    params = {"D": 2, "D1": 1, "D2": 3, "n": 2}
    exprs = [parse(text, params) for text in CANONICAL_TEXT.values()]
    exprs += [random_expr(random.Random(k), depth=4) for k in range(2000)]
    digest = hashlib.sha256()
    for e in exprs:
        norm = normalize_at(e)
        digest.update(f"{norm!r}\n{desugar(e)!r}\n{desugar(norm)!r}\n".encode())
    assert digest.hexdigest() == \
        "ea225dda7410d68c9410612c351a8766656203c0a63f84650d9b8105c324cdbf"
    for rewrite in (normalize_at, desugar):
        with pytest.raises(TypeError) as exc:
            rewrite(42)
        assert str(exc.value) == "not a property expression: 42"


def test_catalog_properties_never_undetermined_on_lassos():
    from livenesslab.catalog import CANONICAL_TEXT, build, CatalogId

    rng = random.Random(31)
    props = []
    for (kind, name) in CANONICAL_TEXT:
        params = {"Sure": (2,), "PQ-Dur": (2,), "PQ-Extra-Dur": (1, 2)}.get(name, ())
        if kind == "assertion-multi" and name != "Resp":
            params = (2,)
        props.append(build(CatalogId(kind, name, params)))
    for _ in range(40):
        trace = random_lasso(rng)
        for expr in props:
            assert not eval_expr(expr, trace).is_undetermined
