"""Acceptance gate: every criterion at its stated tolerance, one reported
line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import random
import time

import pytest

from livenesslab import catalog
from livenesslab.adversary import alwq_adversary, raw_blackout
from livenesslab.catalog import (
    ASSERTION_SINGLE, LINK, SERVER, CatalogId, assertion_multi,
    assertion_single, build, link_property, server_property,
)
from livenesslab.checker import (
    competing_rounds_config, explore, formula_oracle, safety_scan,
)
from livenesslab.hierarchy import (
    check_trace_edges, edge_instances, make_corpus, separating_witness,
    witness_coverage,
)
from livenesslab.language import parse, print_expr
from livenesslab.machine import make_config
from livenesslab.scenarios import paxos_complex_livelock_lasso, raft_eachvote_lasso
from livenesslab.temporal import eval_expr, desugar, normalize_at

from oracles import random_expr

GRID = ((2, 3), (2, 4), (3, 3), (3, 4))
CORPUS_SIZE = 10_000
CORPUS_SEED = 20_240_601
PARAMS = {"D": 3, "D1": 2, "D2": 2, "n": 2}


def report(name, detail):
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def grid_runs():
    runs = {}
    for (i, j) in GRID:
        cfg = make_config(i, j)
        for x in range(0, i + 2):
            runs[(i, j, x)] = explore(cfg, x)
    return runs


@pytest.fixture(scope="module")
def corpus():
    return make_corpus(CORPUS_SIZE, seed=CORPUS_SEED)


def test_formula_reproduction(grid_runs):
    """stable_length equals the closed form exactly across the grid."""
    got = {}
    for (i, j, x), run in grid_runs.items():
        want = formula_oracle(i, j, x)
        assert run.stable_length == want, \
            f"{i}P{j}A x={x}: explored {run.stable_length}, formula {want}"
        got.setdefault((i, j), []).append(run.stable_length)
    assert got[(2, 3)] == [7, 10, 13, 13]
    assert got[(3, 4)] == [9, 13, 17, 21, 21]
    report("formula-reproduction",
           f"{len(grid_runs)} (i,j,x) points exact; "
           f"2P3A={got[(2, 3)]} 3P4A={got[(3, 4)]}")


#: (states generated, distinct states) at x = 0..i+1, the largest searches
#: of the grid; nothing else in tier-1 pins the (3,4) counts at x = 3 and 4
GRID_COUNTS = {
    (3, 3): [(62, 37), (526, 289), (3915, 2053), (28196, 14401), (28468, 14545)],
    (3, 4): [(206, 92), (3506, 1457), (54788, 21932), (838294, 329057),
             (838338, 329057)],
}


def test_grid_state_counts(grid_runs):
    for (i, j), counts in GRID_COUNTS.items():
        got = [(grid_runs[(i, j, x)].states_generated,
                grid_runs[(i, j, x)].distinct_states) for x in range(i + 2)]
        assert got == counts, (i, j)
    report("grid-state-counts", f"(3,4) at x=4: {GRID_COUNTS[(3, 4)][-1]}")


def test_plateau_and_slope(grid_runs):
    """length(x+1) - length(x) is exactly j below the inflection, 0 after."""
    for (i, j) in GRID:
        lengths = [grid_runs[(i, j, x)].stable_length for x in range(0, i + 2)]
        for x in range(0, i + 1):
            diff = lengths[x + 1] - lengths[x]
            want = j if x < i else 0
            assert diff == want, f"{i}P{j}A at x={x}: slope {diff}, want {want}"
    report("plateau-and-slope", f"slope j then 0 at x=i on all {len(GRID)} configs")


def test_theorem_link_hierarchy(corpus):
    """Fair implies Raw, Sure implies Fair, and Sure is monotone in its
    bound, with zero violations over the 10,000-lasso corpus."""
    t0 = time.time()
    fair = link_property("Fair")
    raw = link_property("Raw")
    sure = {d: link_property("Sure", D=d) for d in (0, 2, 5)}
    pairs = [(0, 2), (2, 5), (0, 5)]
    violations = 0
    for trace in corpus:
        fair_v = eval_expr(fair, trace)
        if fair_v.is_holds and not eval_expr(raw, trace).is_holds:
            violations += 1
        sure_v = {d: eval_expr(e, trace) for d, e in sure.items()}
        for d, v in sure_v.items():
            if v.is_holds and not fair_v.is_holds:
                violations += 1
        for d1, d2 in pairs:
            if sure_v[d1].is_holds and not sure_v[d2].is_holds:
                violations += 1
    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 120, f"theorem check took {elapsed:.0f}s, budget is 120s"
    report("theorem-link-order",
           f"0 violations on {len(corpus)} lassos in {elapsed:.0f}s")


def test_hierarchy_edges_and_witnesses(corpus):
    """Zero violations of every solid edge instance on the same corpus, and
    a validated strictness witness for each shipped pair."""
    edges = edge_instances()
    total = 0
    for idx, trace in enumerate(corpus):
        bad = check_trace_edges(trace, edges)
        assert not bad, f"trace {idx} violates {[edges[k] for k in bad]}"
        total += 1
    coverage = witness_coverage()
    witnessed = sum(1 for _e, kind in coverage if kind == "witness")
    assert len(coverage) == len(edges)
    shipped = [
        (CatalogId(LINK, "Raw"), CatalogId(LINK, "Fair")),
        (CatalogId(LINK, "Fair"), CatalogId(LINK, "Sure", (2,))),
        (CatalogId(SERVER, "Alw-Q"), CatalogId(SERVER, "Q-Alw")),
        (CatalogId(SERVER, "P-Alw-Q"), CatalogId(SERVER, "PQ-Alw")),
        (CatalogId(ASSERTION_SINGLE, "Each-Vote"), CatalogId(ASSERTION_SINGLE, "Some-Learn")),
        (CatalogId(ASSERTION_SINGLE, "Some-Learn"), CatalogId(ASSERTION_SINGLE, "Each-Learn")),
        (CatalogId(ASSERTION_SINGLE, "Some-Learn"), CatalogId(ASSERTION_SINGLE, "Some-Exec")),
        (CatalogId(ASSERTION_SINGLE, "Each-Learn"), CatalogId(ASSERTION_SINGLE, "Each-Exec")),
        (CatalogId(ASSERTION_SINGLE, "Some-Exec"), CatalogId(ASSERTION_SINGLE, "Each-Exec")),
    ]
    for weaker, stronger in shipped:
        separating_witness(weaker, stronger)  # validates internally
    report("hierarchy-edges",
           f"{len(edges)} edge instances, 0 violations on {total} lassos; "
           f"{witnessed} witnessed, {len(coverage) - witnessed} explicit gaps; "
           f"{len(shipped)} constructive witnesses validated")


def test_raft_counterexample():
    tr = raft_eachvote_lasso()
    verdicts = {
        "Each-Vote": eval_expr(assertion_single("Each-Vote"), tr),
        "Some-Learn": eval_expr(assertion_single("Some-Learn"), tr),
        "Alw-Q": eval_expr(server_property("Alw-Q"), tr),
    }
    assert verdicts["Each-Vote"].is_holds
    assert verdicts["Some-Learn"].is_violated
    assert verdicts["Alw-Q"].is_holds
    report("raft-counterexample",
           "Each-Vote=Holds Some-Learn=Violated Alw-Q=Holds")


def test_none_from_alwq_adversary():
    cfg = make_config(2, 3)
    tr = alwq_adversary(cfg)
    assert eval_expr(link_property("Fair"), tr).is_holds
    assert eval_expr(server_property("Alw-Q"), tr).is_holds
    assert eval_expr(assertion_single("Some-Learn"), tr).is_violated
    everyone = frozenset(cfg.servers) | frozenset(cfg.clients)
    worst = max(len(everyone - st.nf_procs) for st in tr.states)
    assert worst <= 1
    report("none-from-alwq",
           f"Fair=Holds Alw-Q=Holds Some-Learn=Violated, <= {worst} faulty per tick")


def test_none_from_raw():
    tr = raw_blackout(make_config(2, 3))
    for name in catalog.ASSERTION_NAMES:
        assert eval_expr(assertion_single(name), tr).is_violated, name
    report("none-from-raw", "all six single-value assertions Violated")


def test_not_resp_livelock():
    tr = paxos_complex_livelock_lasso()
    assert eval_expr(server_property("Alw"), tr).is_holds
    assert eval_expr(assertion_multi("Resp"), tr).is_violated
    report("not-resp", "Alw=Holds Resp=Violated on the proposal livelock")


def test_language_engine(corpus):
    """Round-trip the 16 catalog strings, check parsed-vs-built verdict
    equality on 1,000 random lassos, and normalize/desugar preservation on
    1,000 random (expr, trace) pairs."""
    for (kind, name), text in catalog.CATALOG_STRINGS.items():
        expr = parse(text, PARAMS)
        assert parse(print_expr(expr), PARAMS) == expr, (kind, name)

    def built_for(kind, name):
        cid = CatalogId(kind, name,
                        {"Sure": (PARAMS["D"],), "PQ-Dur": (PARAMS["D"],),
                         "PQ-Extra-Dur": (PARAMS["D1"], PARAMS["D2"])}.get(name, ()))
        return build(cid)

    sample = corpus[:1000]
    checked = 0
    for (kind, name), text in catalog.CATALOG_STRINGS.items():
        parsed = parse(text, PARAMS)
        built = built_for(kind, name)
        assert parsed == built
        for trace in sample[:63]:
            assert eval_expr(parsed, trace) == eval_expr(built, trace)
            checked += 1
    assert checked >= 1000

    rng = random.Random(424242)
    preserved = 0
    for k in range(1000):
        trace = sample[k % len(sample)]
        expr = random_expr(rng, depth=3)
        base = eval_expr(expr, trace)
        assert eval_expr(normalize_at(expr), trace) == base
        assert eval_expr(desugar(expr), trace) == base
        preserved += 1
    report("language-engine",
           f"16 round-trips, {checked} parsed-vs-built evals, "
           f"{preserved} normalize/desugar preservation pairs")


def test_safety_cross_check():
    rep = safety_scan(competing_rounds_config(2, 3))
    assert rep.violations == ()
    report("safety-cross-check",
           f"{rep.distinct_states} distinct states exhaustively checked, "
           "no double choice, every learned value quorum-backed")
