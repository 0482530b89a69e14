import random

import pytest

from livenesslab.catalog import (
    ASSERTION_SINGLE, LINK, SERVER, CatalogId, build,
)
from livenesslab.hierarchy import (
    NoWitnessShipped, check_edges, check_trace_edges, edge_instances,
    incomparability_report, make_corpus, random_lasso, separating_witness,
    witness_coverage,
)
from livenesslab.temporal import Trace, eval_expr


def test_corpus_traces_honor_domain_invariants():
    rng = random.Random(123)
    for _ in range(200):
        tr = random_lasso(rng)        # Trace construction already checks
        last = tr.states[-1]          # monotonicity and the lasso shape
        assert last.sent              # at least one message
        # execution implies learning on the same server/slot/value
        for (p, s, v) in last.executed:
            assert (p, s, v) in last.learned
        # learning implies a same-round same-slot vote quorum
        for (_p, s, v) in last.learned:
            voters = {srv for (srv, _r, sl, vv) in last.voted
                      if sl == s and vv == v}
            assert any(q <= voters for q in tr.config.quorums)
        # responses imply a request and an execution of the value
        for (c, v, _res) in last.responded:
            assert (c, v) in last.requested
            assert any(e[2] == v for e in last.executed)


def test_no_edge_violations_on_a_seeded_corpus():
    corpus = make_corpus(800, seed=42)
    reports = check_edges(corpus)
    for rep in reports:
        assert rep.violations == (), rep.edge
        assert rep.corpus_size == 800


def test_parallel_check_matches_sequential():
    corpus = make_corpus(120, seed=9)
    seq = check_edges(corpus, jobs=1)
    par = check_edges(corpus, jobs=2)
    assert [(r.edge, r.violations) for r in seq] == \
        [(r.edge, r.violations) for r in par]


def test_edge_checker_catches_a_forged_violation():
    # a trace where a quorum learns but the "weaker" vote quorum is absent
    # would break Some-Learn => Each-Vote; forge one by bypassing the
    # generator invariants
    from livenesslab.scenarios import TraceBuilder
    from livenesslab.hierarchy import corpus_config

    b = TraceBuilder(corpus_config())
    b.commit()
    b.learn("s1", 1, "v1").commit()
    forged = b.build(loop_start=1)
    edges = [(CatalogId(ASSERTION_SINGLE, "Some-Learn"),
              CatalogId(ASSERTION_SINGLE, "Each-Vote"))]
    assert check_trace_edges(forged, edges) == [0]


def test_separating_witnesses_validate_as_labeled():
    cases = [
        (CatalogId(LINK, "Raw"), CatalogId(LINK, "Fair")),
        (CatalogId(LINK, "Fair"), CatalogId(LINK, "Sure", (2,))),
        (CatalogId(SERVER, "Alw-Q"), CatalogId(SERVER, "Q-Alw")),
        (CatalogId(SERVER, "P-Alw-Q"), CatalogId(SERVER, "PQ-Alw")),
        (CatalogId(ASSERTION_SINGLE, "Each-Vote"),
         CatalogId(ASSERTION_SINGLE, "Some-Learn")),
        (CatalogId(ASSERTION_SINGLE, "Some-Learn"),
         CatalogId(ASSERTION_SINGLE, "Each-Learn")),
        (CatalogId(ASSERTION_SINGLE, "Some-Learn"),
         CatalogId(ASSERTION_SINGLE, "Some-Exec")),
        (CatalogId(ASSERTION_SINGLE, "Each-Learn"),
         CatalogId(ASSERTION_SINGLE, "Each-Exec")),
        (CatalogId(ASSERTION_SINGLE, "Some-Exec"),
         CatalogId(ASSERTION_SINGLE, "Each-Exec")),
    ]
    for weaker, stronger in cases:
        tr = separating_witness(weaker, stronger)
        s = stronger if stronger.params or stronger.name != "Sure" \
            else CatalogId(LINK, "Sure", (2,))
        assert eval_expr(build(weaker), tr).is_holds
        assert eval_expr(build(s), tr).is_violated


def test_raw_vs_fair_witness_shape():
    tr = separating_witness(CatalogId(LINK, "Raw"), CatalogId(LINK, "Fair"))
    last = tr.states[-1]
    assert len(last.sent) == 2
    assert len(last.received) == 1


def test_unshipped_pairs_are_explicit():
    with pytest.raises(NoWitnessShipped):
        separating_witness(CatalogId(SERVER, "Q-Alw"), CatalogId(SERVER, "PQ-Alw"))
    coverage = dict(witness_coverage())
    assert len(coverage) == len(edge_instances())
    assert set(coverage.values()) <= {"witness", "no-witness-shipped"}
    assert sum(1 for v in coverage.values() if v == "witness") >= 9


def test_fair_vs_sure_witness_family():
    for d in (0, 1, 3, 5):
        tr = separating_witness(CatalogId(LINK, "Fair"),
                                CatalogId(LINK, "Sure", (d,)))
        assert eval_expr(build(CatalogId(LINK, "Fair")), tr).is_holds
        assert eval_expr(build(CatalogId(LINK, "Sure", (d,))), tr).is_violated


def test_incomparability_report():
    pairs = incomparability_report()
    assert len(pairs) == 2
    names = {(a.name, b.name) for (a, b, _w1, _w2) in pairs}
    assert names == {("PQ-Extra-Dur", "PQ-Alw"), ("Some-Exec", "Each-Learn")}
    for a, b, w1, w2 in pairs:
        assert eval_expr(build(a), w1).is_holds
        assert eval_expr(build(b), w1).is_violated
        assert eval_expr(build(b), w2).is_holds
        assert eval_expr(build(a), w2).is_violated


def test_incomparability_report_rejects_a_wrong_witness_under_optimize():
    # the checks must survive `python -O`, which strips assert statements
    import os
    import subprocess
    import sys

    import livenesslab

    script = (
        "import sys\n"
        "import livenesslab.hierarchy as h\n"
        "print('optimize', sys.flags.optimize)\n"
        "h._extradur_not_pqalw = lambda: h._pqalw_not_extradur(2, 2)\n"
        "try:\n"
        "    h.incomparability_report()\n"
        "except h.HierarchyError as exc:\n"
        "    print('HierarchyError:', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(livenesslab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(
        "optimize 1\nHierarchyError: incomparability witness mislabeled: PQ-Extra-Dur(2,2)")
