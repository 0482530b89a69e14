"""Pinned verdicts and oracle checks for the property evaluator.

The Holds counts were captured from the tree-walking interpreter the
compiled evaluator replaced; the oracle checks compare lasso evaluation
with `naive_eval` over unrolled prefixes and with the `normalize_at` form,
whose tick quantifiers never take the lasso-labelling path.
"""

import random

import pytest

from livenesslab.catalog import CANONICAL_TEXT, CatalogId, build
from livenesslab.hierarchy import corpus_config, edge_instances, make_corpus, random_lasso
from livenesslab.scenarios import TraceBuilder
from livenesslab.temporal import (
    Alw, And, At, Atom, Const, DomainUnknown, Each, Evt, NamedDomain, Not, Or,
    Some, TLit, Trace, TrueE, compile_expr, eval_expr, normalize_at,
)

from oracles import naive_eval, random_expr

#: Holds count per edge property over make_corpus(200, 20240601); every
#: other verdict is Violated (lassos never answer Undetermined)
PINNED_HOLDS_200 = {
    "Fair": 93, "Raw": 182, "Sure(0)": 34, "Sure(2)": 84, "Sure(5)": 93,
    "Alw": 55, "PQ-Alw": 97, "Q-Alw": 139, "Alw-Q": 200, "P-Alw-Q": 127,
    "PQ-Extra-Dur(0,2)": 194, "PQ-Extra-Dur(2,5)": 122, "PQ-Dur(2)": 194,
    "PQ-Dur(5)": 147, "Each-Exec": 0, "Some-Exec": 51, "Each-Learn": 29,
    "Some-Learn": 103, "Each-Vote": 152, "Resp": 27,
}

_STATUS = {True: "holds", False: "violated", None: "undetermined"}


def catalog_props():
    out = []
    for (kind, name) in CANONICAL_TEXT:
        params = {"Sure": (2,), "PQ-Dur": (3,), "PQ-Extra-Dur": (1, 2)}.get(name, ())
        if kind == "assertion-multi" and name != "Resp":
            params = (2,)
        out.append(build(CatalogId(kind, name, params)))
    return out


def nested_expr(rng):
    """evt/alw over value quantifiers over an alw/evt of a random body that
    refers to the quantified variables: the shape lasso labelling serves."""
    sorts = [("p", "servers", "proc"), ("q", "quorums", "quorum"),
             ("v", "values", "value"), ("c", "clients", "client")]
    chosen = rng.sample(sorts, k=rng.randint(1, 3))
    body = random_expr(rng, depth=2, bound={var: sort for var, _d, sort in chosen})
    expr = (Alw if rng.random() < 0.5 else Evt)(body)
    for var, dom, _sort in reversed(chosen):
        expr = (Each if rng.random() < 0.5 else Some)(var, NamedDomain(dom), expr)
    outer = rng.choice([Alw, Evt, lambda e: Not(Alw(e)), lambda e: Evt(Not(e))])
    return outer(expr)


def test_edge_property_holds_counts_are_pinned():
    cids = list(dict.fromkeys(cid for edge in edge_instances() for cid in edge))
    counts = {cid.label(): 0 for cid in cids}
    for trace in make_corpus(200, 20240601):
        for cid in cids:
            verdict = eval_expr(build(cid), trace)
            assert not verdict.is_undetermined, (cid, trace.states)
            counts[cid.label()] += verdict.is_holds
    assert counts == PINNED_HOLDS_200


def test_lasso_eval_agrees_with_naive_oracle_on_unrolled_prefixes():
    rng = random.Random(515)
    props = catalog_props()
    decided = {"catalog": 0, "nested": 0}
    for _ in range(30):
        trace = random_lasso(rng)
        states = list(trace.unrolled(extra_cycles=2).states)
        cases = [("catalog", e) for e in props] + \
            [("nested", nested_expr(rng)) for _ in range(10)]
        for kind, expr in cases:
            ref = naive_eval(expr, states, trace.config)
            if ref is None:
                continue
            decided[kind] += 1
            assert eval_expr(expr, trace).status == _STATUS[ref], (expr, trace.states)
    assert decided["catalog"] > 120 and decided["nested"] > 50, decided


def test_labelled_lasso_eval_matches_tick_quantifier_form():
    # normalize_at turns every alw/evt into a tick quantifier, which always
    # takes the plain loop, so the two forms exercise different code paths
    rng = random.Random(8080)
    for _ in range(200):
        trace = random_lasso(rng)
        expr = nested_expr(rng)
        assert eval_expr(expr, trace) == eval_expr(normalize_at(expr), trace), expr
    for trace in make_corpus(30, 77):
        for expr in catalog_props():
            assert eval_expr(expr, trace) == eval_expr(normalize_at(expr), trace), expr


def test_parsed_and_built_expressions_share_a_compiled_program():
    from livenesslab.language import parse

    built = build(CatalogId("server", "PQ-Alw"))
    parsed = parse(CANONICAL_TEXT[("server", "PQ-Alw")])
    assert parsed is not built and parsed == built
    assert compile_expr(parsed) is compile_expr(built)
    assert build(CatalogId("server", "PQ-Alw")) is built


def _s1_down_at_tick_zero() -> Trace:
    b = TraceBuilder(corpus_config())
    everyone = set(b.nf)
    b.nf = everyone - {"s1"}
    b.commit()
    b.nf = everyone
    b.commit()
    b.commit()
    return b.build(loop_start=1)


def test_errors_are_raised_only_where_evaluation_reaches_them():
    trace = _s1_down_at_tick_zero()
    bogus = Atom("bogus", ())
    assert eval_expr(Or(TrueE(), bogus), trace).is_holds
    with pytest.raises(DomainUnknown):
        eval_expr(And(TrueE(), bogus), trace)
    compile_expr(Alw(And(bogus, Atom("nf", (Const("s1"),)))))   # nothing reached

    s1_up = Atom("nf", (Const("s1"),))
    guarded = Evt(Alw(Or(s1_up, bogus)))       # the inner alw is labelled
    with pytest.raises(DomainUnknown):
        eval_expr(guarded, trace)              # s1 is down at tick 0
    # from tick 1 on s1 stays up, so the error labelled at tick 0 is never
    # reached
    assert eval_expr(At(guarded, TLit(1)), trace).is_holds
    assert eval_expr(guarded, trace, now=1).is_holds
    with pytest.raises(DomainUnknown):
        eval_expr(Evt(Not(Or(s1_up, bogus))), trace)


def test_concurrent_evaluation_through_a_full_cache():
    # more distinct expressions than the compile cache holds, evaluated from
    # more threads than cores with frequent switches: every verdict must
    # match the one computed alone
    import sys
    import threading

    from livenesslab import temporal

    rng = random.Random(4242)
    traces = make_corpus(8, 5)
    exprs = [nested_expr(rng) for _ in range(temporal._CACHE_SIZE + 64)]
    want = [[eval_expr(e, t) for t in traces] for e in exprs]
    errors = []

    def worker(offset):
        try:
            for k in range(len(exprs)):
                j = (k * 7 + offset) % len(exprs)
                got = [eval_expr(exprs[j], t) for t in traces]
                if got != want[j]:
                    errors.append((j, got, want[j]))
        except Exception as exc:   # noqa: BLE001 - reported through the list
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(temporal._by_id) <= temporal._CACHE_SIZE
    assert len(temporal._by_value) <= temporal._CACHE_SIZE
