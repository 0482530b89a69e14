import hashlib
import pickle
import re
from collections import deque

import pytest

from livenesslab import checker
from livenesslab.catalog import ASSERTION_SINGLE, LINK, SERVER, CatalogId
from livenesslab.checker import (
    BudgetExceeded, CheckerError, CheckRun, check_liveness_lasso,
    competing_rounds_config, explore, formula_oracle, safety_scan,
)
from livenesslab.machine import SystemConfig, make_config
from livenesslab.temporal import eval_expr
from livenesslab.catalog import build
from livenesslab.tracefile import trace_to_text

from oracles import (
    acceptor_orbit, fold_learners, kernel_fields, machine_projections,
    naive_quorum, realized_owned_states, realized_run_steps, retest_consensus,
)


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


def _explore_law(i, j, x):
    """The stable length explore measures: a superseded round costs its
    election and a quorum of promises, 1 + (j//2 + 1) actions."""
    return (j // 2 + 2) * min(x, i) + formula_oracle(i, j, 0)


def test_explore_departs_from_formula_at_five_acceptors():
    # the closed form holds only for j in {3, 4} (see formula_oracle), where
    # it equals the law explore follows
    for j in (3, 4):
        assert all(_explore_law(i, j, x) == formula_oracle(i, j, x)
                   for i in (1, 2, 3) for x in range(5))
    for (i, j), xs, lengths in (((1, 5), (0, 1, 2), [10, 14, 14]),
                                ((2, 5), (0, 1), [10, 14]),
                                ((1, 6), (0, 1), [12, 17])):
        cfg = make_config(i, j)
        assert [explore(cfg, x).stable_length for x in xs] == lengths, (i, j)
        assert [_explore_law(i, j, x) for x in xs] == lengths, (i, j)
    assert [formula_oracle(i, 5, x) for i in (1, 2) for x in (0, 1)] == [10, 15] * 2


def test_explore_matches_oracle_on_2p3a():
    cfg = make_config(2, 3)
    # explore's pool is one round per proposer plus one, past the config's
    one_round = SystemConfig(proposers=cfg.proposers, acceptors=cfg.acceptors,
                             rounds=((1, "p1"),))
    for x in (0, 1, 2, 3):
        run = explore(cfg, x)
        assert run.stable_length == formula_oracle(2, 3, x), x
        assert run.stable_start == x
        assert run.distinct_states <= run.states_generated
        assert run.stable_length >= run.stable_start
        other = explore(one_round, x)
        assert (other.states_generated, other.distinct_states) == \
            (run.states_generated, run.distinct_states)


def test_explore_rejects_negative_start_and_tiny_budget():
    cfg = make_config(2, 3)
    with pytest.raises(ValueError):
        explore(cfg, -1)
    with pytest.raises(BudgetExceeded):
        explore(cfg, 2, max_states=50)


def test_budget_exceeded_survives_a_pickle_round_trip():
    exc = pickle.loads(pickle.dumps(BudgetExceeded(10)))
    assert type(exc) is BudgetExceeded
    assert (exc.limit, str(exc)) == (10, "exceeded the state budget of 10")


def test_explore_budgets_are_exact():
    # (2,3) has 2053 distinct states at x = 2
    cfg = make_config(2, 3)
    assert explore(cfg, 2, max_states=2053).distinct_states == 2053
    with pytest.raises(BudgetExceeded) as exc:
        explore(cfg, 2, max_states=2052)
    assert exc.value.limit == 2052


# (stable length, states generated, distinct states) for x = 0, 1, ...,
# pinned from the bitmask explorer; any change to the move rules shows up
# here.  From x = 5 on (2,3) a round can gather votes before the next
# election, so an accept that carried the 1b rule's value would split
# states that differ in nothing else: (14, 7010, 3772) at x = 5.
_EXPLORE_PINS = {
    (2, 3): [(7, 62, 37), (10, 526, 289), (13, 3915, 2053), (13, 3924, 2053),
             (13, 4187, 2197), (14, 6929, 3709), (15, 13140, 7129)],
    (2, 4): [(9, 206, 92), (13, 3506, 1457), (17, 54788, 21932),
             (17, 54802, 21932)],
}


def test_explore_golden_counters():
    for (i, j), rows in _EXPLORE_PINS.items():
        cfg = make_config(i, j)
        got = [(r.stable_length, r.states_generated, r.distinct_states)
               for r in (explore(cfg, x) for x in range(len(rows)))]
        assert got == rows, (i, j)


#: (stable lengths, (states generated, distinct states)) for x = 0, 1, ...
_PLATEAU_PINS = {
    (2, 3): ([7, 10, 13, 13, 13, 14, 15, 16, 16],
             [(62, 37), (526, 289), (3915, 2053), (3924, 2053), (4187, 2197),
              (6929, 3709), (13140, 7129), (17364, 9505), (20813, 11485)]),
    (3, 3): ([7, 10, 13, 16, 16, 16, 17, 18, 19],
             [(62, 37), (526, 289), (3915, 2053), (28196, 14401), (28468, 14545),
              (31246, 16057), (53186, 27685), (103730, 54469), (146122, 77509)]),
    (2, 4): ([9, 13, 17, 17, 17, 17, 18, 19],
             [(206, 92), (3506, 1457), (54788, 21932), (54802, 21932),
              (54834, 21932), (55920, 22387), (77020, 31214), (146578, 60334)]),
}


def test_explore_length_rises_past_the_closed_form_plateau():
    # the closed form's plateau past x = i ends: on (2,3) it holds only up
    # to x = 4, and the length then rises one tick per x, to 16 at x = 7
    # and 8; on (3,3) and (2,4) it rises from x = 6
    for (i, j), (lengths, counts) in _PLATEAU_PINS.items():
        runs = [explore(make_config(i, j), x) for x in range(len(lengths))]
        assert [r.stable_length for r in runs] == lengths, (i, j)
        assert [(r.states_generated, r.distinct_states) for r in runs] == counts, (i, j)


def test_explore_length_saturates_once_every_behavior_has_decided():
    # the length never falls as x grows, and once it is at most x + 1 no
    # undecided state lies where a later start would add an election, so it
    # stays, below x from (1,3)'s x = 14 on; (3,2) runs to tick 21 at x = 15,
    # where the closed form gives 12
    lengths = [explore(make_config(1, 3), x).stable_length for x in range(15)]
    assert lengths == [7, 10, 10, 10, 11, 12] + [13] * 9
    for (i, j), xs, length in (((3, 2), (15, 22), 21), ((2, 3), (20,), 19)):
        runs = [explore(make_config(i, j), x) for x in xs]
        assert [r.stable_length for r in runs] == [length] * len(xs), (i, j)
        assert len({(r.states_generated, r.distinct_states) for r in runs}) == 1


def test_explore_and_the_scan_report_the_orbits_they_kept():
    # one representative per acceptor-symmetry orbit; the counts stay those
    # of every state
    run = explore(make_config(3, 4), 3)
    assert (run.states_generated, run.distinct_states, run.orbits) == (838294, 329057, 16783)
    rep = safety_scan(competing_rounds_config(2, 3))
    assert (rep.states_generated, rep.distinct_states, rep.orbits) == (352516, 126121, 22790)


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
        for discipline in ("scan", "stable"):     # the scans' pool and explore's
            k = checker._Kernel(cfg, discipline)
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
    """Answers `chosen` with the full re-test of every started round, and
    every quorum test naively."""
    retests = 0

    def quorum(self, mask, b):
        return naive_quorum(self, mask, b)

    def chosen(self, st):
        _RetestKernel.retests += 1
        nb = st & self.round_mask
        return {True: nb} if retest_consensus(self, st >> self.vote_at, nb) else {}


def test_explore_counts_alike_with_either_consensus_test(monkeypatch):
    # `chosen` tests only the rounds whose accept was sent, and a stable
    # kernel offers no move from a state with a vote quorum; explore tests
    # once per representative it visits
    def runs():
        return [(r.stable_length, r.states_generated, r.distinct_states, r.orbits)
                for i, j in ((2, 3), (2, 4), (1, 5), (2, 5))
                for r in (explore(make_config(i, j), x) for x in (0, 1))]

    fast = runs()
    monkeypatch.setattr(checker, "_Kernel", _RetestKernel)
    monkeypatch.setattr(_RetestKernel, "retests", 0)
    assert runs() == fast
    assert _RetestKernel.retests == sum(orbits for *_counts, orbits in fast)


def test_checkrun_validation():
    cfg = make_config(2, 3)
    # a length below the start is valid once every behavior has decided
    assert CheckRun(cfg, 5, 4, 10, 5, 0.0).stable_length == 4
    with pytest.raises(ValueError):
        CheckRun(cfg, 0, 7, 5, 10, 0.0)
    with pytest.raises(ValueError):
        CheckRun(cfg, 0, 7, 10, 5, 0.0, orbits=6)


def test_safety_scan_finds_no_violations():
    rep = safety_scan(competing_rounds_config(2, 3))
    assert rep.violations == ()
    assert (rep.distinct_states, rep.states_generated) == (126121, 352516)
    rep = safety_scan(competing_rounds_config(1, 3))
    assert rep.violations == ()
    assert (rep.distinct_states, rep.states_generated) == (2681, 6781)


def test_safety_scan_state_budget_is_exact():
    cfg = competing_rounds_config(1, 3)
    assert safety_scan(cfg, max_states=2681).distinct_states == 2681
    with pytest.raises(BudgetExceeded) as exc:
        safety_scan(cfg, max_states=2680)
    assert exc.value.limit == 2680


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


def test_safety_scan_learns_two_chosen_values_in_first_choosing_round_order():
    # the forged disjoint-quorum config is the only one where two values are
    # chosen, so only it shows the order in which `chosen` feeds the learns
    cfg = competing_rounds_config(2, 2)
    object.__setattr__(cfg, "quorums", (frozenset({"a1"}), frozenset({"a2"})))
    k = checker._Kernel(cfg, "scan")
    seen, frontier, names, both = {k.initial}, deque([k.initial]), [], 0
    while frontier:
        st = frontier.popleft()
        chosen = k.chosen(st)
        moves = k.moves(st, chosen)
        if len(chosen) > 1:
            rounds = [name[2] for name, _s in moves if name[0] == "learn"]
            assert rounds == sorted(rounds)
            both += len(rounds) > 1
        for name, s in moves:
            names.append(name)
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    assert (len(seen), len(names), both) == (11602, 30450, 960)
    assert hashlib.sha256(repr(names).encode()).hexdigest() == \
        "2abd39c19d9c373e0b5fd5330e81749c061bc04dba95eb68015b0f1d565afa84"


#: the stable start of the kernel tests' "stable" kernels, where
#: make_config(2, 3) has 11,485 states; the other disciplines ignore it
_STABLE_START = 8


def _kernel_bfs(kernel, max_states=10**6):
    """Every state `_Kernel.moves` reaches, the number of moves taken, and
    the states in the order a FIFO search pops them; raises BudgetExceeded
    as `_search` does once a new state would exceed `max_states`."""
    seen, frontier, generated = {kernel.initial}, deque([kernel.initial]), 0
    order = []
    while frontier:
        st = frontier.popleft()
        order.append(st)
        for _name, s in kernel.moves(st, kernel.chosen(st)):
            generated += 1
            if s not in seen:
                if len(seen) >= max_states:
                    raise BudgetExceeded(max_states)
                seen.add(s)
                frontier.append(s)
    return seen, generated, order


def _depth(kernel, st) -> int:
    """Rounds started plus promises, accepts, votes and learns made."""
    nb, _maxbal, pmask, accepted, vmask, learned = kernel_fields(kernel, st)
    return (nb + pmask.bit_count() + sum(v is not None for v in accepted)
            + vmask.bit_count() + learned.bit_count())


def test_kernel_moves_are_graded():
    # every path to a state has the same length, which lets `_search` keep
    # one seen set per level; the stable kernel's unreduced counts are
    # explore's
    run = explore(make_config(2, 3), _STABLE_START)
    for cfg, discipline, counts in (
            (competing_rounds_config(1, 3), "scan", (6781, 2681)),
            (competing_rounds_config(2, 2), "scan", (1434, 770)),
            (competing_rounds_config(1, 3), "owned", (6557, 2681)),
            (make_config(2, 3), "stable", (run.states_generated, run.distinct_states))):
        k = checker._Kernel(cfg, discipline, _STABLE_START)
        _seen, generated, order = _kernel_bfs(k)
        assert _depth(k, k.initial) == 0
        for st in order:
            assert all(_depth(k, s) == _depth(k, st) + 1
                       for _name, s in k.moves(st, k.chosen(st))), (discipline, st)
        assert (generated, len(order)) == counts, discipline


def test_explore_counts_match_an_unreduced_fifo_search():
    # the stable kernel is all of explore's discipline: a plain FIFO search
    # of it, one state at a time, counts what explore counts over its
    # orbits, and its deepest consensus is explore's stable length
    for (i, j), xs in (((2, 3), range(5)), ((2, 4), range(3)), ((3, 4), range(2))):
        cfg = make_config(i, j)
        for x in xs:
            k = checker._Kernel(cfg, "stable", x)
            seen, generated, _order = _kernel_bfs(k)
            run = explore(cfg, x)
            assert (generated, len(seen)) == (run.states_generated, run.distinct_states), (i, j, x)
            assert max(_depth(k, st) for st in seen if k.chosen(st)) == run.stable_length, (i, j, x)


def test_no_move_carries_into_a_neighbouring_field():
    # each move changes exactly the fields its name says; under "stable" on
    # make_config(2, 3) the pool is 3, so maxbal fills its 2-bit field
    for cfg, discipline in ((competing_rounds_config(1, 3), "scan"),
                            (competing_rounds_config(2, 2), "scan"),
                            (competing_rounds_config(1, 3), "owned"),
                            (competing_rounds_config(2, 2), "owned"),
                            (make_config(2, 3), "stable")):
        k = checker._Kernel(cfg, discipline, _STABLE_START)
        if k.stable:
            assert (k.pool, k.width) == (3, 2)
        learners = cfg.proposers if discipline == "owned" else (None,)
        nv = len(cfg.values)
        _seen, _generated, order = _kernel_bfs(k)
        for st in order:
            nb, maxbal, pmask, accepted, vmask, learned = kernel_fields(k, st)
            for name, s in k.moves(st, k.chosen(st)):
                want = [nb, list(maxbal), pmask, list(accepted), vmask, learned]
                op = name[0]
                if op == "elect":
                    assert name[1] == nb + 1
                    want[0] = name[1]
                    want[3].append(None)
                elif op in ("promise", "vote"):
                    _op, a, b = name
                    bit = 1 << (a * k.pool + b - 1)
                    field = 2 if op == "promise" else 4
                    assert not want[field] & bit, name
                    want[1][a] = b
                    want[field] |= bit
                elif op == "accept":
                    b = name[1]
                    assert accepted[b - 1] is None, name
                    want[3][b - 1] = kernel_fields(k, s)[3][b - 1]
                    assert want[3][b - 1] in ((True,) if k.stable else cfg.values)
                else:
                    _op, learner, _b, v = name
                    bit = 1 << (learners.index(learner) * nv + cfg.values.index(v))
                    assert not learned & bit, name
                    want[5] |= bit
                assert kernel_fields(k, s) == (
                    want[0], tuple(want[1]), want[2], tuple(want[3]), want[4],
                    want[5]), (discipline, name, kernel_fields(k, st))


def _fifo_representatives(kernel) -> list:
    """The canonical representatives in the order a FIFO search pops them
    when it canonicalizes every successor, whatever its move."""
    seen, frontier, order = {kernel.initial}, deque([kernel.initial]), []
    while frontier:
        st = frontier.popleft()
        order.append(st)
        for _name, s in kernel.moves(st, kernel.chosen(st)):
            s = kernel.canon(s)[0]
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return order


def _one_per_orbit(kernel, reps, states) -> bool:
    """Whether ``reps`` holds exactly one state of each acceptor-permutation
    orbit of ``states``, and nothing else."""
    reps, left = set(reps), set(states)
    while left:
        orbit = acceptor_orbit(kernel, left.pop())
        if len(orbit & reps) != 1:
            return False
        left -= orbit
        reps -= orbit
    return not reps


def test_search_visits_states_in_fifo_order():
    for cfg, discipline in ((competing_rounds_config(1, 3), "scan"),
                            (competing_rounds_config(2, 2), "owned"),
                            (make_config(2, 3), "stable")):
        k = checker._Kernel(cfg, discipline, _STABLE_START)
        seen, generated, order = _kernel_bfs(k)
        visited = []

        def visit(st, chosen, moves, at):
            assert chosen == k.chosen(st) and moves == k.moves(st, chosen)
            assert at == len(visited)   # the discovery index is the FIFO position
            visited.append(st)
            return False

        assert checker._search(checker._Trail(k), visit, 10**6) == (generated, len(seen))
        if k.symmetric:   # the scan keeps one representative per orbit
            assert visited == _fifo_representatives(k)
            assert len(visited) < len(order) and _one_per_orbit(k, visited, seen)
        else:
            assert visited == order


def test_search_paths_spell_the_moves_to_each_state():
    # the trail's replayed names reach the state, and there are as many as
    # the state's level; the scan's and explore's trails step from
    # representative to representative, so their replays canonicalize after
    # every move
    for cfg, discipline, n_states in ((competing_rounds_config(1, 3), "owned", 2681),
                                      (competing_rounds_config(2, 2), "owned", 1140),
                                      (competing_rounds_config(1, 3), "scan", 577),
                                      (make_config(2, 3), "stable", 2180)):
        k = checker._Kernel(cfg, discipline, _STABLE_START)
        trail = checker._Trail(k)
        spelled = []

        def visit(st, _chosen, _moves, at):
            names = trail.names(at)
            replayed = k.initial
            for name in names:
                replayed = dict(k.moves(replayed, k.chosen(replayed)))[name]
                if k.symmetric:
                    replayed = k.canon(replayed)[0]
            assert replayed == st, (discipline, names)
            assert len(names) == _depth(k, st), (discipline, names)
            spelled.append(st)
            return False

        checker._search(trail, visit, 10**6)
        assert len(spelled) == len(trail.parent) == len(trail.pick) == n_states
        if k.symmetric:
            assert _one_per_orbit(k, spelled, _kernel_bfs(k)[0])


def _forged_disjoint(n_proposers, n_acceptors):
    """competing_rounds_config with singleton quorums, which every valid
    config refuses: the only way two values get chosen."""
    cfg = competing_rounds_config(n_proposers, n_acceptors)
    object.__setattr__(cfg, "quorums", tuple(frozenset({a}) for a in cfg.acceptors))
    return cfg


def test_canon_matches_brute_force_acceptor_orbits():
    # canon is constant on each orbit of the reachable states, lands in it
    # and weighs its size; the reachable states are closed under renaming
    # acceptors, so the search's representatives, weighed by the brute-force
    # orbit sizes, sum to the full search's counts
    for cfg, discipline in ((competing_rounds_config(1, 3), "scan"),
                            (competing_rounds_config(2, 2), "scan"),
                            (_forged_disjoint(2, 2), "scan"),
                            (make_config(2, 3), "stable")):
        k = checker._Kernel(cfg, discipline, _STABLE_START)
        assert k.symmetric
        seen, generated, _order = _kernel_bfs(k)
        left = set(seen)
        while left:
            orbit = acceptor_orbit(k, left.pop())
            assert orbit <= seen, discipline
            rep, weight = k.canon(next(iter(orbit)))
            assert rep in orbit and weight == len(orbit), (discipline, rep)
            assert {k.canon(st) for st in orbit} == {(rep, weight)}, (discipline, rep)
            left -= orbit
        visited = []

        def visit(st, _chosen, moves, _at):
            visited.append((len(acceptor_orbit(k, st)), len(moves)))
            return False

        assert checker._search(checker._Trail(k), visit, 10**6) == (generated, len(seen))
        assert sum(size for size, _n in visited) == len(seen), discipline
        assert sum(size * n for size, n in visited) == generated, discipline


def test_kernel_without_quorum_symmetry_keeps_singleton_orbits():
    # only a2 <-> a3 maps _non_majority_config's quorums onto themselves, so
    # its kernels keep singleton orbits and count as the unreduced search
    cfg = _non_majority_config()
    for discipline in ("scan", "stable", "owned"):
        assert not checker._Kernel(cfg, discipline).symmetric
    assert not checker._Kernel(make_config(2, 3), "owned").symmetric
    # nine adjacent swaps decide a majority config of ten; 10! permutations
    # would take minutes
    assert checker._Kernel(make_config(1, 10), "stable").symmetric
    scan_cfg = SystemConfig(proposers=cfg.proposers, acceptors=cfg.acceptors,
                            quorums=cfg.quorums, rounds=((1, "p1"), (2, "p1")))
    k = checker._Kernel(scan_cfg, "scan")
    seen, generated, _order = _kernel_bfs(k)
    assert all(k.canon(st) == (st, 1) for st in seen)
    rep = safety_scan(scan_cfg)
    assert (rep.states_generated, rep.distinct_states, rep.orbits) == (
        generated, len(seen), len(seen)) == (86577, 26705, 26705)
    # the unreduced explore's counts, pinned
    runs = [explore(cfg, x) for x in range(4)]
    assert [(r.stable_length, r.states_generated, r.distinct_states) for r in runs] == [
        (9, 254, 122), (13, 4242, 1937), (17, 65588, 29162), (17, 65602, 29162)]
    assert all(r.orbits == r.distinct_states for r in runs)


def test_kernel_bfs_budget_is_exact():
    k = checker._Kernel(competing_rounds_config(1, 3), "scan")
    assert len(_kernel_bfs(k, max_states=2681)[0]) == 2681
    with pytest.raises(BudgetExceeded) as exc:
        _kernel_bfs(k, max_states=2680)
    assert exc.value.limit == 2680


def test_owned_moves_reach_the_scan_states_once_learners_fold():
    # the owner guard and the per-proposer learners change which moves a
    # state offers, not which states exist; and the referee's completeness
    # half: the machine realizes every owned state's search path, ending in
    # a state that projects onto it, so the scan holds no state the machine
    # cannot reach
    for cfg, n_owned in ((competing_rounds_config(1, 3), 2681),
                         (competing_rounds_config(2, 2), 1140)):
        scan_kernel, owned_kernel = (checker._Kernel(cfg, d) for d in ("scan", "owned"))
        scan, generated, _order = _kernel_bfs(scan_kernel)
        rep = safety_scan(cfg)
        assert (len(scan), generated) == (rep.distinct_states, rep.states_generated)
        scan = {kernel_fields(scan_kernel, st) for st in scan}
        owned, _generated, _order = _kernel_bfs(owned_kernel)
        assert {fold_learners(owned_kernel, st) for st in owned} == scan
        realized = realized_owned_states(cfg)
        assert len(realized) == len(owned) == n_owned
        assert [pair for pair in realized if pair[0] != pair[1]] == []
        assert {projected for _folded, projected in realized} == scan


def test_referee_machine_projections_lie_in_the_scan_states():
    # the referee's soundness half: every machine state within the depth,
    # crash, recovery and drop aside, projects onto a state of safety_scan
    for cfg, depth, pins in ((make_config(1, 3), 12, (7754, 639)),
                             (competing_rounds_config(2, 2), 12, (4281, 299)),
                             (competing_rounds_config(2, 3), 10, (21394, 1498))):
        n_states, projections = machine_projections(cfg, depth)
        assert (n_states, len(projections)) == pins, cfg
        k = checker._Kernel(cfg, "scan")
        scan, _generated, _order = _kernel_bfs(k)
        assert projections - {kernel_fields(k, st) for st in scan} == set(), cfg


def test_referee_steps_from_realized_runs_lie_in_the_scan_states():
    # the referee's soundness half past the machine search's depth: every
    # step from a state of an owned path's realized run projects onto a
    # state of safety_scan, accepts that the 1b rule decides included
    cfg = competing_rounds_config(2, 2)
    n_owned, n_states, n_steps, projections, prior_accepts = realized_run_steps(cfg)
    assert (n_owned, n_states, n_steps, prior_accepts) == (1140, 9932, 43479, 30)
    k = checker._Kernel(cfg, "scan")
    scan, _generated, _order = _kernel_bfs(k)
    assert projections - {kernel_fields(k, st) for st in scan} == set()


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
    # a forged path whose promise or vote the machine does not enable: a
    # repeated promise, and a vote in a round whose accept was never sent
    k = checker._Kernel(cfg, "owned")
    for names in ([("elect", 1), ("promise", 0, 1), ("promise", 0, 1)],
                  [("elect", 1), ("promise", 0, 1), ("vote", 0, 1)]):
        with pytest.raises(CheckerError, match=re.escape(str(names[-1]))):
            checker._realize(cfg, k, names, True, set())


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
    assert res.states_explored == 223


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


def test_lasso_search_duration_server_counterexample_uses_the_prefix_window():
    # PQ-Dur needs one stable window, which the closure's prefix supplies
    # even though the top round's owner stays crashed in the cycle
    ids = (CatalogId(LINK, "Fair"), CatalogId(SERVER, "PQ-Dur", (2,)),
           CatalogId(ASSERTION_SINGLE, "Some-Learn"))
    res = check_liveness_lasso(competing_rounds_config(1, 3), *ids)
    assert res.is_counterexample
    assert res.states_explored == 31
    link, server, assertion = (eval_expr(build(i), res.trace) for i in ids)
    assert link.is_holds and server.is_holds and assertion.is_violated


def test_lasso_crash_precheck_rejects_only_closures_the_server_rejects(monkeypatch):
    # the precheck only saves realizing closures: without it every search
    # ends alike, after as many states, on the same trace
    cfg = competing_rounds_config(1, 3)

    def searches():
        out = []
        for server in (("Alw-Q",), ("Q-Alw",), ("P-Alw-Q",), ("PQ-Alw",), ("Alw",),
                       ("PQ-Dur", (0,)), ("PQ-Dur", (2,)), ("PQ-Extra-Dur", (0, 2)),
                       ("PQ-Extra-Dur", (2, 2))):
            res = check_liveness_lasso(cfg, CatalogId(LINK, "Fair"),
                                       CatalogId(SERVER, *server),
                                       CatalogId(ASSERTION_SINGLE, "Some-Learn"))
            out.append((res.outcome, res.states_explored,
                        res.trace and _trace_sha256(res.trace)))
        return out

    with_precheck = searches()
    monkeypatch.setattr(checker, "_crashes_admissible", lambda *a: True)
    assert searches() == with_precheck
