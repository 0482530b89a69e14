import dataclasses
import itertools
import random

import pytest

from livenesslab import machine as mc
from livenesslab.catalog import (
    assertion_multi, assertion_single, server_property,
)
from livenesslab.machine import (
    AcceptorPromise, AcceptorVote, ActionNotEnabled, Crash, DeliverMessage,
    DropMessage, InvalidQuorumSystem, Learn, ProposerSendAccept,
    StartLeaderElection, SystemConfig, apply_action, enabled, init,
    make_config, trace_of,
)
from livenesslab.scenarios import (
    paxos_complex_livelock_lasso, raft_eachvote_lasso,
)
from livenesslab.temporal import eval_expr
from livenesslab.tracefile import config_from_record, config_record, trace_to_text

from oracles import naive_facts


def drive(state, pred, limit=64):
    """Apply the first enabled action matching pred, up to `limit` times."""
    for _ in range(limit):
        for a in enabled(state):
            if pred(a):
                return apply_action(state, a)
    raise AssertionError("no matching action")


def test_init_2p3a_has_five_servers_and_majorities():
    cfg = make_config(2, 3)
    assert len(cfg.servers) == 5
    assert set(cfg.quorums) == {frozenset(c) for c in
                                itertools.combinations(("a1", "a2", "a3"), 2)}
    st = init(cfg)
    assert not st.pending
    assert st.obs.nf_procs >= frozenset(cfg.servers)


def test_disjoint_quorums_rejected():
    with pytest.raises(InvalidQuorumSystem):
        SystemConfig(proposers=("p1",), acceptors=("a1", "a2"),
                     quorums=(frozenset({"a1"}), frozenset({"a2"})))


def test_only_supplied_quorums_are_checked_for_intersection():
    # two majorities of one set always intersect, so the default quorums
    # skip the pairwise check, which is quadratic in the quorums
    cfg = make_config(1, 16)
    assert len(cfg.quorums) == 11440 and all(len(q) == 9 for q in cfg.quorums)
    record = config_record(make_config(1, 2))
    assert config_from_record(record).quorums == (frozenset({"a1", "a2"}),)
    record["quorums"] = [["a1"], ["a2"]]   # a file's header supplies its quorums
    with pytest.raises(InvalidQuorumSystem):
        config_from_record(record)
    # supplied quorums that are the majorities, as every file header's are,
    # skip it too
    meets = []

    class Counted(frozenset):
        def __and__(self, other):
            meets.append(other)
            return frozenset.__and__(self, other)

    cfg = make_config(1, 13)
    acceptors, quorums = cfg.acceptors, tuple(map(Counted, cfg.quorums))
    assert SystemConfig(("p1",), acceptors, quorums=quorums).quorums == quorums
    assert meets == []
    with pytest.raises(InvalidQuorumSystem):
        SystemConfig(("p1",), acceptors, quorums=quorums + (Counted({"x"}),))
    assert meets


def test_4p4a_quorums_are_three_of_four():
    cfg = make_config(4, 4)
    assert all(len(q) == 3 for q in cfg.quorums)
    assert len(cfg.quorums) == 4


def test_initial_enabled_has_both_elections():
    st = init(make_config(2, 3))
    starts = {a.proposer for a in enabled(st) if isinstance(a, StartLeaderElection)}
    assert starts == {"p1", "p2"}


def test_crashed_acceptor_contributes_no_actions():
    st = init(make_config(2, 3))
    st = drive(st, lambda a: isinstance(a, StartLeaderElection) and a.proposer == "p1")
    st = apply_action(st, Crash("a1"))
    for a in enabled(st):
        actor = getattr(a, "acceptor", None)
        assert actor != "a1", a
    # but its pending prepare can still be dropped
    assert any(isinstance(a, DropMessage) and a.msg.receiver == "a1"
               for a in enabled(st))


def test_prepare_round_trip_and_learn():
    cfg = make_config(2, 3)
    st = init(cfg)
    st = drive(st, lambda a: isinstance(a, StartLeaderElection) and a.proposer == "p1")
    assert len(st.pending) == 3                     # one prepare per acceptor
    for _ in range(3):
        st = drive(st, lambda a: isinstance(a, AcceptorPromise))
    for _ in range(3):
        st = drive(st, lambda a: isinstance(a, DeliverMessage)
                   and a.msg.kind == "1b")
    assert any(isinstance(a, ProposerSendAccept) for a in enabled(st))
    st = drive(st, lambda a: isinstance(a, ProposerSendAccept))
    votes = 0
    while votes < 2:
        st = drive(st, lambda a: isinstance(a, AcceptorVote))
        votes += 1
    obs = st.obs
    assert any(v[1] == (1, "p1") and v[3] == "v1" for v in obs.voted)
    # a quorum has voted; once the reports land, Learn becomes enabled
    for _ in range(4):
        st = drive(st, lambda a: isinstance(a, DeliverMessage)
                   and a.msg.kind == "2b")
    learns = [a for a in enabled(st) if isinstance(a, Learn)]
    assert learns, enabled(st)
    st = apply_action(st, learns[0])
    assert (learns[0].server, 1, "v1") in st.obs.learned


def test_current_round_is_last_started_in_config_order():
    # a config may list a proposer's rounds in any order
    cfg = SystemConfig(proposers=("p1", "p2"), acceptors=("a1",),
                       rounds=((2, "p1"), (1, "p2"), (1, "p1")))
    st = apply_action(init(cfg), StartLeaderElection("p1"))
    assert st.prop_round_of("p1") == (2, "p1")
    st = apply_action(st, StartLeaderElection("p2"))
    assert st.obs.primaries == {"p1"}               # owner of the highest round
    st = apply_action(st, StartLeaderElection("p1"))
    assert st.prop_round_of("p1") == (1, "p1")      # not the highest


def test_drop_removes_without_receipt():
    cfg = make_config(2, 3)
    st = init(cfg)
    st = drive(st, lambda a: isinstance(a, StartLeaderElection))
    before = st.obs.received
    target = sorted(st.pending)[0]
    st = apply_action(st, DropMessage(target))
    assert target not in st.pending
    assert st.obs.received == before


def test_apply_rejects_disabled_action():
    st = init(make_config(2, 3))
    with pytest.raises(ActionNotEnabled):
        apply_action(st, Crash("nobody"))


def test_state_computes_enabled_once_and_every_step_is_checked():
    assert [f.name for f in dataclasses.fields(mc.MachineState)] == [
        "config", "obs", "pending"]
    cfg = make_config(2, 3)
    st = init(cfg)
    rng = random.Random(5)
    rejected = kept = 0
    for _ in range(40):
        acts = enabled(st)
        assert enabled(st) is acts
        # each receipt of a pending message has one enabled form; every
        # other form is refused
        for m in st.pending:
            for form in (AcceptorPromise(m.receiver, m),
                         AcceptorVote(m.receiver, m), DeliverMessage(m)):
                if form not in acts:
                    with pytest.raises(ActionNotEnabled):
                        apply_action(st, form)
                    rejected += 1
        nxt = apply_action(st, rng.choice(acts))
        # a step that moves no message keeps the in-flight set itself
        assert (nxt.pending is st.pending) == (nxt.pending == st.pending)
        kept += nxt.pending is st.pending
        st = nxt
        # the cached values take no part in equality or hashing
        bare = mc.MachineState(st.config, st.obs, st.pending)
        assert bare == st and hash(bare) == hash(st)
    assert rejected and kept


def test_tick_counts_actions_and_trace_is_deterministic():
    cfg = make_config(2, 3)
    actions = []
    st = init(cfg)
    rng = random.Random(3)
    for _ in range(12):
        acts = enabled(st)
        action = acts[rng.randrange(len(acts))]
        actions.append(action)
        st = apply_action(st, action)
    states_a = mc.run(cfg, actions)
    assert states_a[12] == st                       # a state's tick is its index
    states_b = mc.run(cfg, actions)
    ta = trace_to_text(trace_of(states_a))
    tb = trace_to_text(trace_of(states_b))
    assert ta == tb
    assert len(states_a) == 1 + len(actions)


def test_safety_check_rejects_forged_observations():
    from livenesslab.machine import SafetyViolation, _check_safety
    from livenesslab.temporal import ObservationState

    cfg = make_config(2, 3)
    two_chosen = ObservationState(voted=frozenset({
        ("a1", (1, "p1"), 1, "v1"), ("a2", (1, "p1"), 1, "v1"),
        ("a2", (2, "p2"), 1, "v2"), ("a3", (2, "p2"), 1, "v2"),
    }))
    with pytest.raises(SafetyViolation):
        _check_safety(two_chosen, cfg)
    unbacked_learn = ObservationState(learned=frozenset({("p1", 1, "v1")}))
    with pytest.raises(SafetyViolation):
        _check_safety(unbacked_learn, cfg)


# --- scripted scenarios ----------------------------------------------------

def test_raft_lasso_verdicts():
    tr = raft_eachvote_lasso()
    assert eval_expr(assertion_single("Each-Vote"), tr).is_holds
    assert eval_expr(assertion_single("Some-Learn"), tr).is_violated
    assert eval_expr(server_property("Alw-Q"), tr).is_holds


def test_raft_lasso_at_most_one_server_down():
    tr = raft_eachvote_lasso()
    roster = tr.states[0].roster
    for st in tr.states:
        assert len(roster - st.nf_procs) <= 1


def test_livelock_verdicts():
    tr = paxos_complex_livelock_lasso()
    assert eval_expr(server_property("Alw"), tr).is_holds
    assert eval_expr(assertion_multi("Resp"), tr).is_violated
    assert eval_expr(assertion_multi("Some-Exec", 1), tr).is_holds


def test_livelock_leaves_one_request_starving():
    tr = paxos_complex_livelock_lasso()
    last = tr.states[-1]
    served = {(c, v) for (c, v, _r) in last.responded}
    starving = {(c, v) for (c, v) in last.requested if (c, v) not in served}
    assert starving == {("c2", "v2")}


def test_multi_exec_n1_matches_single_on_slot1_traces():
    rng = random.Random(17)
    single = assertion_single("Each-Exec")
    multi = assertion_multi("Each-Exec", 1)
    from livenesslab.hierarchy import random_lasso

    checked = 0
    for _ in range(120):
        tr = random_lasso(rng)
        if any(e[1] != 1 for st in tr.states for e in st.executed):
            continue
        if any(e[1] != 1 for st in tr.states for e in st.learned):
            continue
        checked += 1
        assert eval_expr(single, tr) == eval_expr(multi, tr)
    assert checked > 30


# --- golden random walks ---------------------------------------------------

def _canonical_obs(obs):
    return tuple(
        (name, tuple(sorted(map(repr, getattr(obs, name)))))
        for name in obs.__dataclass_fields__
    )


_FAULTS = (DropMessage, Crash, mc.Recover)


def _random_walk(cfg, seed, steps):
    """One seeded walk of ``steps`` drawn enabled actions: yields each state
    with the action drawn from it, then the last state with None.  One step
    in four draws from every enabled action, the others from the protocol
    actions alone (no drop, crash or recover)."""
    rng = random.Random(seed)
    st = init(cfg)
    for _ in range(steps):
        acts = enabled(st)
        protocol = [a for a in acts if not isinstance(a, _FAULTS)]
        action = rng.choice(acts if rng.random() < 0.25 or not protocol
                            else protocol)
        yield st, action
        st = apply_action(st, action)
    yield st, None


def test_random_walks_match_golden_digest():
    """200 seeded walks of 40 drawn enabled actions on make_config(2,3):
    the digest of every state's enabled actions and observation is pinned.
    The walks both learn and reach stale prepares, stale accepts and
    acceptor crashes mid-round."""
    import hashlib

    cfg = make_config(2, 3)
    digest = hashlib.sha256()
    drawn = set()
    reached = {"stale prepare": 0, "stale accept": 0, "acceptor crash": 0}
    for seed in range(200):
        for st, action in _random_walk(cfg, seed, 40):
            if action is None:
                digest.update(repr(_canonical_obs(st.obs)).encode())
                break
            digest.update(repr((enabled(st), _canonical_obs(st.obs))).encode())
            drawn.add(type(action))
            if isinstance(action, DeliverMessage) and action.msg.receiver in cfg.acceptors:
                reached["stale prepare" if action.msg.kind == "1a"
                        else "stale accept"] += 1
            if (isinstance(action, Crash) and action.process in cfg.acceptors
                    and st.obs.sent):
                reached["acceptor crash"] += 1
    assert drawn == set(mc.Action)
    assert all(reached.values()), reached
    assert digest.hexdigest() == "bb32106d173f6d53c7451c607ac70a3af0880640f3dccf3bd4e5a474a91a1016"


# --- oracles for the derived facts and the enabled order --------------------

_ACTION_ORDER = {cls: k for k, cls in enumerate(mc.Action)}


def _action_key(a):
    """The documented order of an enabled tuple: the action's type in
    ``Action`` order, then its field values."""
    return (_ACTION_ORDER[type(a)],) + tuple(
        getattr(a, f) for f in a.__dataclass_fields__
    )


def _check_against_oracles(st) -> None:
    acts = enabled(st)
    assert acts == tuple(sorted(acts, key=_action_key))
    want = naive_facts(st)
    bare = mc.MachineState(st.config, st.obs, st.pending)
    for facts in (st.facts, bare.facts):
        got = facts._asdict()
        # an empty unused list counts as an absent key
        got["unused"] = {p: rounds for p, rounds in got["unused"].items() if rounds}
        assert got == want


def test_facts_and_enabled_order_match_oracles_on_walks():
    """Each state's facts, derived from its parent's, equal the ones read
    off its full histories, and its enabled tuple is built already sorted.
    Every state is checked after the whole walk, so a child that changed
    its parent's facts in place fails too."""
    checked = 0
    for cfg, seeds, steps in ((make_config(2, 3), 200, 40),
                              (make_config(3, 4), 200, 60),
                              (make_config(1, 5), 200, 60)):
        for seed in range(seeds):
            states = [st for st, _action in _random_walk(cfg, seed, steps)]
            for st in states:
                _check_against_oracles(st)
            checked += len(states)
    assert checked == 200 * 41 + 400 * 61


def test_facts_and_enabled_order_match_oracles_on_simulated_runs():
    from livenesslab.adversary import CannotRealize, simulate

    from test_evaluation import _demand_targets

    cfg = make_config(2, 3)
    realized = 0
    for target in _demand_targets():
        try:
            schedule, _trace, _verdicts = simulate(target, cfg, seed=0)
        except CannotRealize:
            continue
        realized += 1
        states = [init(cfg)]
        for rank in schedule.steps:
            states.append(apply_action(states[-1], enabled(states[-1])[rank]))
        for st in states:
            _check_against_oracles(st)
    assert realized == 84
