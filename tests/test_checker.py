import hashlib
import sys
from collections import deque

import pytest

from livenesslab import checker
from livenesslab.catalog import ASSERTION_SINGLE, LINK, SERVER, CatalogId
from livenesslab.checker import (
    BudgetExceeded, CheckRun, check_liveness_lasso,
    competing_rounds_config, explore, formula_oracle, safety_scan,
)
from livenesslab.machine import SystemConfig, make_config
from livenesslab.temporal import eval_expr
from livenesslab.catalog import build
from livenesslab.tracefile import trace_to_text

from oracles import naive_quorum, retest_consensus


def test_formula_oracle_values():
    assert formula_oracle(2, 3, 0) == 7
    assert formula_oracle(2, 3, 1) == 10
    assert formula_oracle(2, 3, 2) == 13
    assert formula_oracle(2, 3, 3) == 13          # plateau past x = i
    assert formula_oracle(3, 4, 2) == 17
    assert formula_oracle(4, 4, 5) == 25          # 16 + 9
    # with no unstable ticks the proposer count is irrelevant
    for j in (3, 4, 5):
        lengths = {formula_oracle(i, j, 0) for i in (1, 2, 3, 4, 7)}
        assert len(lengths) == 1
    with pytest.raises(ValueError):
        formula_oracle(0, 3, 0)
    with pytest.raises(ValueError):
        formula_oracle(2, 3, -1)


def test_explore_departs_from_formula_at_five_acceptors():
    # the closed form holds only for j in {3, 4} (see formula_oracle)
    for i in (1, 2):
        cfg = make_config(i, 5)
        assert [explore(cfg, x).stable_length for x in (0, 1)] == [10, 14]
        assert [formula_oracle(i, 5, x) for x in (0, 1)] == [10, 15]


def test_explore_matches_oracle_on_2p3a():
    cfg = make_config(2, 3)
    for x in (0, 1, 2, 3):
        run = explore(cfg, x)
        assert run.stable_length == formula_oracle(2, 3, x), x
        assert run.stable_start == x
        assert run.distinct_states <= run.states_generated
        assert run.stable_length >= run.stable_start


def test_explore_rejects_negative_start_and_tiny_budget():
    cfg = make_config(2, 3)
    with pytest.raises(ValueError):
        explore(cfg, -1)
    with pytest.raises(BudgetExceeded):
        explore(cfg, 2, max_states=50)


# (stable length, states generated, distinct states) for x = 0..3, pinned
# from the bitmask explorer; any change to the move rules shows up here
_EXPLORE_PINS = {
    (2, 3): [(7, 62, 37), (10, 526, 289), (13, 3915, 2053), (13, 3924, 2053)],
    (2, 4): [(9, 206, 92), (13, 3506, 1457), (17, 54788, 21932),
             (17, 54802, 21932)],
}


def test_explore_golden_counters():
    for (i, j), rows in _EXPLORE_PINS.items():
        cfg = make_config(i, j)
        got = [(r.stable_length, r.states_generated, r.distinct_states)
               for r in (explore(cfg, x) for x in range(4))]
        assert got == rows, (i, j)


def test_explore_deterministic_counters():
    cfg = make_config(2, 4)
    a = explore(cfg, 1)
    b = explore(cfg, 1)
    assert (a.stable_length, a.states_generated, a.distinct_states) == \
        (b.stable_length, b.states_generated, b.distinct_states)


def test_distinct_states_monotone_on_the_grid():
    # new competing rounds unlock while x <= i, so the counts grow
    # superlinearly and then saturate; what the explorer guarantees is
    # monotone growth and exact determinism
    for (i, j) in ((2, 3), (2, 4)):
        cfg = make_config(i, j)
        counts = [explore(cfg, x).distinct_states for x in range(i + 2)]
        assert all(b >= a for a, b in zip(counts, counts[1:])), counts


def _non_majority_config():
    """Intersecting quorums that are not the majorities of four acceptors."""
    return SystemConfig(
        proposers=("p1", "p2"), acceptors=("a1", "a2", "a3", "a4"),
        quorums=(frozenset({"a1", "a2"}), frozenset({"a1", "a3"}),
                 frozenset({"a2", "a3", "a4"})))


def test_kernel_quorum_is_the_naive_subset_test():
    for cfg in (make_config(3, 4), competing_rounds_config(2, 3), _non_majority_config()):
        for pool in (None, len(cfg.proposers) + 1):      # the scans' and explore's
            k = checker._Kernel(cfg, pool)
            for b in range(1, k.pool + 1):
                others = sum(1 << (a * k.pool + c - 1) for a in range(k.j)
                             for c in range(1, k.pool + 1) if c != b)
                for pattern in range(1 << k.j):
                    mask = sum(1 << (a * k.pool + b - 1)
                               for a in range(k.j) if pattern >> a & 1)
                    want = naive_quorum(k, mask, b)
                    for noise in (0, others, 0):    # the last one is a hit
                        assert k.quorum(mask | noise, b) == want, (cfg, b, pattern)
            assert len(k.quorate) <= k.pool * (1 << k.j)


class _RetestKernel(checker._Kernel):
    """Answers explore's consensus test with the full re-test of every
    started round, and every other quorum test naively."""
    retests = 0

    def quorum(self, mask, b):
        if sys._getframe(1).f_code is explore.__code__:
            _RetestKernel.retests += 1
            return retest_consensus(self, mask, b)
        return naive_quorum(self, mask, b)


def test_explore_counts_alike_with_either_consensus_test(monkeypatch):
    # explore tests only the newest round, and only on states it has not
    # seen: no frontier state has a vote quorum, and only a vote changes
    # the vote mask
    def runs():
        return [(r.stable_length, r.states_generated, r.distinct_states)
                for i, j in ((2, 3), (2, 4), (1, 5), (2, 5))
                for r in (explore(make_config(i, j), x) for x in (0, 1))]

    fast = runs()
    monkeypatch.setattr(checker, "_Kernel", _RetestKernel)
    monkeypatch.setattr(_RetestKernel, "retests", 0)
    assert runs() == fast
    assert _RetestKernel.retests > sum(distinct for _len, _gen, distinct in fast) / 2


def test_checkrun_validation():
    cfg = make_config(2, 3)
    with pytest.raises(ValueError):
        CheckRun(cfg, 5, 4, 10, 5, 0.0)
    with pytest.raises(ValueError):
        CheckRun(cfg, 0, 7, 5, 10, 0.0)


def test_safety_scan_finds_no_violations():
    rep = safety_scan(competing_rounds_config(2, 3))
    assert rep.violations == ()
    assert (rep.distinct_states, rep.states_generated) == (126121, 352516)
    rep = safety_scan(competing_rounds_config(1, 3))
    assert rep.violations == ()
    assert (rep.distinct_states, rep.states_generated) == (2681, 6781)


def test_safety_scan_reports_values_chosen_by_disjoint_quorums():
    # every valid config has intersecting quorums, so only a forged one can
    # show that the check fires; pinned before the checks moved to pop time
    cfg = competing_rounds_config(2, 2)
    object.__setattr__(cfg, "quorums", (frozenset({"a1"}), frozenset({"a2"})))
    rep = safety_scan(cfg)
    assert (rep.distinct_states, rep.states_generated) == (11602, 30450)
    assert len(rep.violations) == 3840
    assert set(rep.violations) == {"values ['v1', 'v2'] each gathered a vote quorum"}
    assert hashlib.sha256(repr(rep.violations).encode()).hexdigest() == \
        "54ef21b1119c87a8629017837f226353e6a2aa5a629b338a6f0bf7862ea5b37f"


def _kernel_bfs(kernel):
    """Every state `_Kernel.moves` reaches, and the number of moves taken."""
    seen, frontier, generated = {kernel.initial}, deque([kernel.initial]), 0
    while frontier:
        st = frontier.popleft()
        for _name, s in kernel.moves(st, kernel.chosen(st)):
            generated += 1
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return seen, generated


def test_owned_moves_reach_the_scan_states_once_learners_fold():
    # the owner guard and the per-proposer learners change which moves a
    # state offers, not which states exist
    for cfg in (competing_rounds_config(1, 3), competing_rounds_config(2, 2)):
        scan, generated = _kernel_bfs(checker._Kernel(cfg))
        rep = safety_scan(cfg)
        assert (len(scan), generated) == (rep.distinct_states, rep.states_generated)
        owned, _generated = _kernel_bfs(checker._Kernel(cfg, owned=True))
        nv = len(cfg.values)

        def fold(st):
            learned, values = st[5], 0
            while learned:
                values |= learned & ((1 << nv) - 1)
                learned >>= nv
            return st[:5] + (values,)
        assert {fold(st) for st in owned} == scan


def test_lasso_search_fair_alwq_somelearn_counterexample():
    cfg = competing_rounds_config(2, 3)
    res = check_liveness_lasso(cfg, CatalogId(LINK, "Fair"),
                               CatalogId(SERVER, "Alw-Q"),
                               CatalogId(ASSERTION_SINGLE, "Some-Learn"))
    assert res.is_counterexample
    assert res.states_explored == 41
    tr = res.trace
    assert eval_expr(build(CatalogId(LINK, "Fair")), tr).is_holds
    assert eval_expr(build(CatalogId(SERVER, "Alw-Q")), tr).is_holds
    assert eval_expr(build(CatalogId(ASSERTION_SINGLE, "Some-Learn")), tr).is_violated


def test_lasso_search_raw_alw_eachvote_counterexample():
    cfg = competing_rounds_config(2, 3)
    res = check_liveness_lasso(cfg, CatalogId(LINK, "Raw"),
                               CatalogId(SERVER, "Alw"),
                               CatalogId(ASSERTION_SINGLE, "Each-Vote"))
    assert res.is_counterexample
    assert res.states_explored == 2
    assert eval_expr(build(CatalogId(SERVER, "Alw")), res.trace).is_holds
    assert eval_expr(build(CatalogId(ASSERTION_SINGLE, "Each-Vote")),
                     res.trace).is_violated


def test_realized_closures_apply_only_enabled_actions(monkeypatch):
    # machine states read their protocol facts off the histories, which is
    # exact only along enabled actions
    from livenesslab import machine as mc

    apply, applied, disabled = mc.apply_action, [], []

    def checked(st, action):
        applied.append(action)
        if action not in mc.enabled(st):
            disabled.append(action)
        return apply(st, action)

    monkeypatch.setattr(mc, "apply_action", checked)
    cfg = competing_rounds_config(2, 3)
    for link, server, assertion in (("Fair", "Alw-Q", "Some-Learn"),
                                    ("Raw", "Alw", "Each-Vote")):
        res = check_liveness_lasso(cfg, CatalogId(LINK, link),
                                   CatalogId(SERVER, server),
                                   CatalogId(ASSERTION_SINGLE, assertion))
        assert res.is_counterexample
    assert applied and not disabled


def test_lasso_search_budget_reports_undetermined():
    cfg = competing_rounds_config(2, 3)
    res = check_liveness_lasso(cfg, CatalogId(LINK, "Fair"),
                               CatalogId(SERVER, "Alw"),
                               CatalogId(ASSERTION_SINGLE, "Some-Learn"),
                               max_states=500)
    assert res.outcome == "undetermined"
    assert res.bound == 500


def test_lasso_search_fair_alw_somelearn_holds_by_exhaustion():
    cfg = competing_rounds_config(2, 3)
    res = check_liveness_lasso(cfg, CatalogId(LINK, "Fair"),
                               CatalogId(SERVER, "Alw"),
                               CatalogId(ASSERTION_SINGLE, "Some-Learn"))
    assert res.outcome == "holds"
    assert res.states_explored == 235753


def _counted_search(monkeypatch, cfg, link, server, assertion):
    """The search's result, the closures it realized, and how many of those
    the link re-check rejected."""
    link_id = CatalogId(LINK, *link)
    link_expr = build(link_id)
    realize, realized, rejected = checker._realize, [], []

    def counting_realize(*args):
        states = realize(*args)
        if states is not None:
            realized.append(states)
        return states

    def counting_eval(expr, trace):
        verdict = eval_expr(expr, trace)
        if expr is link_expr and not verdict.is_holds:
            rejected.append(trace)
        return verdict

    monkeypatch.setattr(checker, "_realize", counting_realize)
    monkeypatch.setattr(checker, "eval_expr", counting_eval)
    res = check_liveness_lasso(cfg, link_id, CatalogId(SERVER, server),
                               CatalogId(ASSERTION_SINGLE, assertion))
    return res, len(realized), len(rejected)


def _trace_sha256(trace) -> str:
    return hashlib.sha256(trace_to_text(trace).encode()).hexdigest()


# the realized closures below are the ones that run the accept, vote and
# learn steps and the link re-check; their trace bytes are pinned
def test_lasso_search_fair_alw_eachlearn_counterexample_pinned(monkeypatch):
    res, realized, rejected = _counted_search(
        monkeypatch, competing_rounds_config(2, 3), ("Fair",), "Alw", "Each-Learn")
    assert res.is_counterexample
    assert (res.states_explored, realized, rejected) == (2686, 1, 0)
    assert _trace_sha256(res.trace) == (
        "302a5d2b0dd7fa00cedec0de2636278f2c9a4d2e184804a8d8b4a0f6d955ed0d")


def test_lasso_search_sure2_rejects_closures_on_the_link(monkeypatch):
    res, realized, rejected = _counted_search(
        monkeypatch, competing_rounds_config(1, 3), ("Sure", (2,)), "Alw",
        "Each-Learn")
    assert res.is_counterexample
    assert (res.states_explored, realized, rejected) == (568, 7, 6)
    assert eval_expr(build(CatalogId(LINK, "Sure", (2,))), res.trace).is_holds
    assert _trace_sha256(res.trace) == (
        "0222406b19fdfadb873ae6185472c760f28f5c508939bff3914d23090ce5ab80")


def test_lasso_search_sure0_holds_after_rejecting_every_closure(monkeypatch):
    res, realized, rejected = _counted_search(
        monkeypatch, competing_rounds_config(1, 3), ("Sure", (0,)), "Alw",
        "Each-Learn")
    assert res.outcome == "holds"
    assert (res.states_explored, realized, rejected) == (2681, 164, 164)
