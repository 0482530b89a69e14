"""Pinned verdicts and oracle checks for the property evaluator.

The Holds counts were captured from the tree-walking interpreter the
compiled evaluator replaced; the oracle checks compare lasso evaluation
with `naive_eval` over unrolled prefixes and with the `normalize_at` form,
whose tick quantifiers never take the lasso mask path.
"""

import hashlib
import random

import pytest

from livenesslab.catalog import CANONICAL_TEXT, CatalogId, build
from livenesslab.hierarchy import corpus_config, edge_instances, make_corpus, random_lasso
from livenesslab.scenarios import TraceBuilder, raft_eachvote_lasso
from livenesslab.temporal import (
    After, Alw, And, At, Atom, Const, DomainUnknown, During, Each, Evt,
    FalseE, Implies, Interval, Lasts, NamedDomain, NfSet, Not, Or, ServersSet,
    Some, TickDomain, TLit, TNow, Trace, TrueE, TVar, compile_expr, eval_expr,
    normalize_at, tplus,
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


_SORTS = [("p", "servers", "proc"), ("q", "quorums", "quorum"),
          ("v", "values", "value"), ("c", "clients", "client")]


def _alw_or_evt(rng, e):
    return (Alw if rng.random() < 0.5 else Evt)(e)


def _outer(rng, e):
    return rng.choice([Alw, Evt, lambda e: Not(Alw(e)), lambda e: Evt(Not(e))])(e)


def nested_expr(rng, inner=_alw_or_evt, outer=_outer, body=None):
    """evt/alw over value quantifiers over an alw/evt of a random body that
    refers to the quantified variables: the shape lasso evaluation answers
    from bitmasks.  ``inner`` and ``outer`` wrap the body and the
    quantified core; ``body`` may rewrite the random body."""
    chosen = rng.sample(_SORTS, k=rng.randint(1, 3))
    expr = random_expr(rng, depth=2, bound={var: sort for var, _d, sort in chosen})
    if body is not None:
        expr = body(rng, expr)
    expr = inner(rng, expr)
    for var, dom, _sort in reversed(chosen):
        expr = (Each if rng.random() < 0.5 else Some)(var, NamedDomain(dom), expr)
    return outer(rng, expr)


def _bounded(rng, e):
    """``e`` in a bounded window: lasts D, after D or during [now+a,now+b]."""
    kind = rng.randrange(3)
    if kind == 0:
        return Lasts(e, rng.randint(0, 6))
    if kind == 1:
        return After(e, rng.randint(0, 6))
    lo = tplus(TNow(), rng.randint(0, 3))
    if rng.random() < 0.25:
        return During(e, Interval(lo, None, rng.random() < 0.7, False))
    hi = tplus(lo, rng.randint(-1, 5))
    return During(e, Interval(lo, hi, rng.random() < 0.7, rng.random() < 0.7))


def _any_window(rng, e):
    return rng.choice([_alw_or_evt, _bounded])(rng, e)


def _outer_window(rng, e):
    return rng.choice([_bounded, _outer, lambda rng, e: Not(_bounded(rng, e)),
                       lambda rng, e: Evt(_bounded(rng, e))])(rng, e)


#: faults evaluation raises where it reaches them: an unknown atom, an
#: unknown domain and an unhashable constant
_FAULTS = (Atom("bogus", ()), Some("x", NamedDomain("nowhere"), TrueE()),
           Atom("nf", (Const(["s1"]),)))


def _faulty(rng, e):
    return rng.choice([Or, And, Implies])(e, rng.choice(_FAULTS))


def windowed_expr(rng, faults=False):
    """A `nested_expr` shape with bounded windows in it and, if ``faults``,
    an error-seeded body."""
    return nested_expr(rng, inner=_any_window, outer=_outer_window,
                       body=_faulty if faults else None)


def _outcome(expr, trace, now=0) -> str:
    try:
        return eval_expr(expr, trace, now).status
    except Exception as exc:   # noqa: BLE001 - the outcome includes the error
        return f"{type(exc).__name__}: {exc}"


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
    # takes the plain loop, so the two forms exercise different code paths:
    # masks for the one, closures for the other
    rng = random.Random(8080)
    for _ in range(200):
        trace = random_lasso(rng)
        expr = nested_expr(rng)
        assert eval_expr(expr, trace) == eval_expr(normalize_at(expr), trace), expr
    for trace in make_corpus(30, 77):
        for expr in catalog_props():
            assert eval_expr(expr, trace) == eval_expr(normalize_at(expr), trace), expr


#: sha256 over the outcomes of `test_window_and_fault_outcomes_golden_digest`,
#: captured from the evaluator before lassos were answered from bitmasks
WINDOW_OUTCOMES_SHA256 = "a78cbf4b2ad3ae524bf19739e4fa0425cd56d63a50d47fe44e7f02ac52ff712d"


def test_window_and_fault_outcomes_golden_digest():
    rng = random.Random(2718)
    lines = []
    for _ in range(40):
        trace = random_lasso(rng)
        for k in range(10):
            expr = windowed_expr(rng, faults=k % 3 == 0)
            for now in (0, rng.randrange(len(trace))):
                lines.append(_outcome(expr, trace, now))
    assert sum(line.startswith(("holds", "violated")) for line in lines) > 500
    assert sum(not line.startswith(("holds", "violated")) for line in lines) > 50
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == WINDOW_OUTCOMES_SHA256


def _machine_catalog():
    """Every catalog property with the parameters the machine digest pins."""
    cids = [CatalogId("link", "Raw"), CatalogId("link", "Fair")]
    cids += [CatalogId("link", "Sure", (d,)) for d in (0, 2)]
    for name in ("Alw-Q", "Q-Alw", "P-Alw-Q", "PQ-Alw", "Alw"):
        cids.append(CatalogId("server", name))
    cids += [CatalogId("server", "PQ-Dur", (d,)) for d in (0, 2)]
    cids.append(CatalogId("server", "PQ-Extra-Dur", (2, 2)))
    for name in ("Each-Vote", "Some-Learn", "Each-Learn", "Some-Exec", "Each-Exec", "Resp"):
        cids.append(CatalogId("assertion-single", name))
        cids.append(CatalogId("assertion-multi", name, () if name == "Resp" else (1,)))
    return cids


def _demand_targets():
    """The 6 link x 14 server demands the simulator realizes."""
    from livenesslab.adversary import SATISFY, VIOLATE, AssumptionTarget, Demand

    links = [("Raw", (), SATISFY), ("Fair", (), SATISFY), ("Sure", (8,), SATISFY),
             ("Fair", (), VIOLATE), ("Raw", (), VIOLATE), ("Sure", (3,), VIOLATE)]
    servers = [(name, params, mode)
               for name, params in (("Alw-Q", ()), ("Q-Alw", ()), ("P-Alw-Q", ()),
                                    ("PQ-Alw", ()), ("Alw", ()), ("PQ-Dur", (3,)),
                                    ("PQ-Extra-Dur", (2, 2)))
               for mode in (SATISFY, VIOLATE)]
    return [AssumptionTarget(Demand(CatalogId("link", ln, lp), lm),
                             Demand(CatalogId("server", sn, sp), sm))
            for ln, lp, lm in links for sn, sp, sm in servers]


#: sha256 over the outcomes of `test_machine_trace_outcomes_golden_digest`,
#: captured before every window with a body mask answered from it
MACHINE_OUTCOMES_SHA256 = "ed0b24eb72b88533eb86f83b35b08cfea9e854d2d475789583c404f050c4b857"


def test_machine_trace_outcomes_golden_digest():
    # lassos of the Paxos machine as the simulator realizes them, whose
    # states repeat often: inputs the random lassos above do not cover
    from livenesslab.adversary import CannotRealize, simulate
    from livenesslab.machine import make_config

    config = make_config(2, 3)
    cids = _machine_catalog()
    lines = []
    for target in _demand_targets():
        try:
            _schedule, trace, _verdicts = simulate(target, config, seed=0)
        except CannotRealize as exc:
            lines.append(f"unrealized: {exc}")
            continue
        lines.append(f"trace: {len(trace)} loop {trace.loop_start}")
        lines += [f"{cid.label()}: {_outcome(build(cid), trace)}" for cid in cids]
    assert sum(line.startswith("trace") for line in lines) > 60
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == MACHINE_OUTCOMES_SHA256


def test_windowed_lasso_eval_agrees_with_naive_oracle():
    rng = random.Random(3141)
    decided = 0
    for _ in range(40):
        trace = random_lasso(rng)
        states = list(trace.unrolled(extra_cycles=3).states)
        for _ in range(10):
            expr = windowed_expr(rng)
            ref = naive_eval(expr, states, trace.config)
            if ref is not None:
                decided += 1
                assert eval_expr(expr, trace).status == _STATUS[ref], (expr, trace.states)
    assert decided > 100, decided


def shifting_lasso(rng, config):
    """A lasso with a prefix of 0..3 ticks and a cycle of 1..5 whose roster,
    non-faulty set and primary change at every tick, so masks meet rosters
    that differ and windows that wrap the cycle from every tick."""
    servers = list(config.servers)
    b = TraceBuilder(config)
    quorum = rng.choice(config.quorums)
    value = rng.choice(config.values)
    for s in quorum:
        b.vote(s, rng.choice(config.rounds), 1, value)
    b.learn(rng.choice(servers), 1, value).execute(rng.choice(servers), 1, value)
    b.request("c1", value)
    if rng.random() < 0.5:
        b.respond("c1", value)
    prefix = rng.randint(0, 3)
    for _ in range(prefix + rng.randint(1, 5)):
        b.set_roster(rng.sample(servers, rng.randint(1, len(servers))))
        b.nf = set(rng.sample(servers, rng.randint(0, len(servers)))) | {"c1"}
        b.primary(rng.choice(servers + [None]))
        b.commit()
    return b.build(loop_start=prefix)


def test_masks_match_the_closure_form_at_every_tick():
    # normalize_at's tick quantifiers take the closures only.  The traces
    # share one config, so only the trace itself tells their indexes apart,
    # and the second pass meets them in another order
    rng = random.Random(1729)
    config = corpus_config()
    cases = []
    for _ in range(150):
        trace = shifting_lasso(rng, config)
        for _ in range(4):
            expr = windowed_expr(rng)
            plain = normalize_at(expr)
            for now in range(len(trace)):
                got = _outcome(expr, trace, now)
                assert got == _outcome(plain, trace, now), (expr, trace.states, now)
                cases.append((expr, trace, now, got))
    rng.shuffle(cases)
    for expr, trace, now, got in cases:
        assert _outcome(expr, trace, now) == got, (expr, trace.states, now)


def nested_quantifiers(rng, n):
    """``n`` nested value quantifiers over random domains, reusing and
    shadowing three variable names, with an alw or evt between some levels,
    around a body that reads all, some or none of the variables and may
    hold a fault."""
    chosen = [(f"x{rng.randrange(3)}",) + rng.choice(_SORTS)[1:] for _ in range(n)]
    bound = {var: sort for var, _dom, sort in chosen}
    kind = rng.randrange(3)
    if kind == 1:
        bound = dict(rng.sample(sorted(bound.items()), k=rng.randint(0, len(bound))))
    if kind < 2:
        expr = random_expr(rng, depth=1, bound=bound)
    else:
        expr = rng.choice([TrueE(), FalseE(), NfSet(ServersSet())])
    if rng.random() < 0.15:
        expr = _faulty(rng, expr)
    for var, dom, _sort in reversed(chosen):
        if rng.random() < 0.2:
            expr = _alw_or_evt(rng, expr)
        expr = (Each if rng.random() < 0.5 else Some)(var, NamedDomain(dom), expr)
    return rng.choice([lambda e: e, Alw, Evt, lambda e: Not(Alw(e))])(expr)


#: captured before a quantifier whose body never reads its variable was
#: evaluated once instead of once per value
NESTED_OUTCOMES_SHA256 = "a4a4767b27140c6e01b8b49baaf6fda73933f0f8715ddbf7a2134f21c0dfee32"


def test_nested_quantifier_outcomes_golden_digest():
    # the closures answer at tick 0 and at a random tick, the masks inside
    # alw and evt
    rng = random.Random(4242)
    traces = make_corpus(30, 20240601) + [raft_eachvote_lasso()]
    lines = []
    for n in range(1, 7):
        for _ in range(12):
            expr = nested_quantifiers(rng, n)
            for trace in traces:
                for now in (0, rng.randrange(len(trace))):
                    lines.append(_outcome(expr, trace, now))
    assert sum(line.startswith(("holds", "violated")) for line in lines) > 3000
    assert sum(not line.startswith(("holds", "violated")) for line in lines) > 100
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == NESTED_OUTCOMES_SHA256


def _tick_interval(rng, ticks):
    """[lo, hi] or [lo, inf), lo from now, a literal or one of ``ticks``."""
    base = rng.choice([TNow(), TLit(rng.randint(0, 3))] + [TVar(t) for t in ticks])
    lo = tplus(base, rng.randint(0, 2))
    if rng.random() < 0.3:
        return Interval(lo, None, rng.random() < 0.8, False)
    return Interval(lo, tplus(lo, rng.randint(0, 3)), rng.random() < 0.8, rng.random() < 0.8)


def nested_tick_quantifiers(rng, n):
    """``n`` nested tick and value quantifiers, reusing three names of
    each kind, around a body that reads all, some or none of the variables
    (a tick through `servers(t1) = servers(t2)` or an `at`) and may hold
    a fault.  Returns the expression and whether it holds a fault."""
    levels, ticks = [], []
    for _ in range(n):
        if rng.random() < 0.6:
            var = f"t{rng.randrange(3)}"
            levels.append((var, TickDomain(_tick_interval(rng, ticks)), "tick"))
            ticks.append(var)
        else:
            _letter, dom, sort = rng.choice(_SORTS)
            levels.append((f"x{rng.randrange(3)}", NamedDomain(dom), sort))
    bound = {var: sort for var, _dom, sort in levels}
    kind = rng.randrange(3)
    if kind == 1:
        bound = dict(rng.sample(sorted(bound.items()), k=rng.randint(0, len(bound))))
    if kind < 2:
        expr = random_expr(rng, depth=1, bound=bound)
        read = [v for v, sort in bound.items() if sort == "tick"]
        if read and rng.random() < 0.5:
            expr = At(expr, tplus(TVar(rng.choice(read)), rng.randint(0, 1)))
    else:
        expr = rng.choice([TrueE(), FalseE(), NfSet(ServersSet())])
    faulty = rng.random() < 0.15
    if faulty:
        expr = _faulty(rng, expr)
    for var, dom, _sort in reversed(levels):
        if rng.random() < 0.2:
            expr = _alw_or_evt(rng, expr)
        expr = (Each if rng.random() < 0.5 else Some)(var, dom, expr)
    return rng.choice([lambda e: e, Alw, Evt, lambda e: Not(Alw(e))])(expr), faulty


#: captured before a tick quantifier whose body never reads its tick was
#: evaluated once instead of once per position
NESTED_TICK_OUTCOMES_SHA256 = "657e865b5a4a8ffeb850150361a0aef8851788a63f75e7dd616706bd3993102a"


def test_nested_tick_quantifier_outcomes_golden_digest():
    # corpus lassos and their loop-free prefixes.  Fault-free cases up to
    # three levels deep are checked against the naive oracle, exactly on the
    # prefixes; four levels are too slow for it
    rng = random.Random(6060)
    lassos = make_corpus(10, 20240607) + [raft_eachvote_lasso()]
    lines, decided = [], 0
    for n in range(1, 5):
        for _ in range(20):
            expr, faulty = nested_tick_quantifiers(rng, n)
            for lasso in lassos:
                prefix = Trace(lasso.states, lasso.config)
                for trace in (lasso, prefix):
                    got = _outcome(expr, trace)
                    lines.append(got)
                    if faulty or n > 3:
                        continue
                    if trace is prefix:
                        ref = naive_eval(expr, list(prefix.states), prefix.config)
                        assert got == _STATUS[ref], (expr, prefix.states)
                        continue
                    unrolled = list(lasso.unrolled(extra_cycles=1).states)
                    ref = naive_eval(expr, unrolled, lasso.config)
                    if ref is not None:
                        decided += 1
                        assert got == _STATUS[ref], (expr, lasso.states)
    assert decided > 120, decided
    assert sum(line.startswith(("holds", "violated")) for line in lines) > 900
    assert sum(line == "undetermined" for line in lines) > 400
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == NESTED_TICK_OUTCOMES_SHA256


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
    guarded = Evt(Alw(Or(s1_up, bogus)))       # the mask of the alw body raises
    with pytest.raises(DomainUnknown):
        eval_expr(guarded, trace)              # s1 is down at tick 0
    # from tick 1 on s1 stays up, so the error the loop meets at tick 0 is
    # never reached
    assert eval_expr(At(guarded, TLit(1)), trace).is_holds
    assert eval_expr(guarded, trace, now=1).is_holds
    # the mask that raised is kept for the trace, and the loop meets the
    # error again
    with pytest.raises(DomainUnknown):
        eval_expr(guarded, trace)
    with pytest.raises(DomainUnknown):
        eval_expr(Evt(Not(Or(s1_up, bogus))), trace)


def _in_threads(worker, count=4):
    """Run ``worker(k)`` for k < count on as many threads, switching often;
    returns what they appended to the error list they share."""
    import sys
    import threading

    errors = []

    def guarded(k):
        try:
            worker(k, errors)
        except Exception as exc:   # noqa: BLE001 - reported through the list
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=guarded, args=(k,)) for k in range(count)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    return errors


def test_concurrent_evaluation_through_a_full_cache():
    # more distinct expressions than the compile cache holds, evaluated from
    # more threads than cores with frequent switches: every verdict must
    # match the one computed alone
    from livenesslab import temporal

    rng = random.Random(4242)
    traces = make_corpus(8, 5)
    exprs = [nested_expr(rng) for _ in range(temporal._CACHE_SIZE + 64)]
    want = [[eval_expr(e, t) for t in traces] for e in exprs]

    def worker(offset, errors):
        for k in range(len(exprs)):
            j = (k * 7 + offset) % len(exprs)
            got = [eval_expr(exprs[j], t) for t in traces]
            if got != want[j]:
                errors.append((j, got, want[j]))

    assert _in_threads(worker) == []
    assert len(temporal._by_id) <= temporal._CACHE_SIZE
    assert len(temporal._by_value) <= temporal._CACHE_SIZE


def test_concurrent_mask_evaluation_over_alternating_traces():
    # every evaluation moves to another trace than the thread's last one,
    # and the threads start on different traces, so the shared per-trace
    # index keeps changing hands; outcomes, errors included, must match
    rng = random.Random(1618)
    traces = make_corpus(5, 9) + [random_lasso(rng) for _ in range(2)]
    exprs = [windowed_expr(rng, faults=k % 4 == 0) for k in range(48)]
    want = [[_outcome(e, t) for t in traces] for e in exprs]
    pairs = [(j, i) for j in range(len(exprs)) for i in range(len(traces))]

    def worker(offset, errors):
        for k in range(len(pairs)):
            j, i = pairs[(k * 11 + offset * 5) % len(pairs)]
            got = _outcome(exprs[j], traces[(i + offset) % len(traces)])
            if got != want[j][(i + offset) % len(traces)]:
                errors.append((j, i, offset, got))

    assert _in_threads(worker) == []
