"""Executable single-value Paxos with explicit fault and delivery actions.

Each applied action advances the tick by exactly one; a state carries no
tick, because its tick is its position in the run.  One action covers one
message send (broadcasts count once), one message receipt/handle, or one
learn; starting a leader election (adopting a fresh ballot and broadcasting
its prepare) is a single action.

A state holds only the observation that the properties read and the
messages in flight.  Every protocol fact (the rounds started, each
proposer's current round, each acceptor's ballot and vote, the rounds whose
accept was sent) follows from the observation's histories, which is exact
because ``apply_action`` checks every step against the enabled set.
``apply_action`` derives a new state's facts from its parent's facts plus
the history entries the step adds; a state built any other way derives
them from empty histories on first use, through the same function.  A state
builds its enabled tuple at most once, directly in its documented order.

State values are immutable; ``apply_action`` returns a new state, so
parallel exploration is safe as long as each worker owns its frontier
entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple, Optional

from .temporal import ObservationState, Trace


class MachineError(Exception):
    pass


class InvalidQuorumSystem(MachineError):
    pass


class ActionNotEnabled(MachineError):
    pass


class SafetyViolation(MachineError):
    pass


# ---------------------------------------------------------------------------
# system configuration

def majorities(members: tuple) -> tuple:
    """All minimal majority subsets of ``members``."""
    k = len(members) // 2 + 1
    return tuple(
        frozenset(c) for c in itertools.combinations(sorted(members), k)
    )


@dataclass(frozen=True)
class SystemConfig:
    """Process roster, quorum system, and the finite quantifier domains."""

    proposers: tuple
    acceptors: tuple
    clients: tuple = ()
    quorums: tuple = ()
    values: tuple = ()
    rounds: tuple = ()
    slot_bound: int = 1

    def __post_init__(self):
        if not self.proposers or not self.acceptors:
            raise ValueError("need at least one proposer and one acceptor")
        default = majorities(self.acceptors)
        if not self.quorums:
            object.__setattr__(self, "quorums", default)
        elif set(self.quorums) != set(default):
            # two majorities of n intersect, as 2(n//2 + 1) > n, so only
            # other quorums need the pairwise check, which is quadratic
            for q1 in self.quorums:
                for q2 in self.quorums:
                    if not q1 & q2:
                        raise InvalidQuorumSystem(
                            f"quorums {sorted(q1)} and {sorted(q2)} are disjoint"
                        )
        if not self.values:
            object.__setattr__(
                self, "values", tuple(f"v{k + 1}" for k in range(len(self.proposers)))
            )
        if not self.rounds:
            object.__setattr__(
                self,
                "rounds",
                tuple(
                    (c, p)
                    for c in range(1, 3)
                    for p in self.proposers
                ),
            )

    @property
    def servers(self) -> tuple:
        return tuple(dict.fromkeys(self.proposers + self.acceptors))

    # cached per config; equality and hashing read the fields only
    @cached_property
    def _walk(self) -> "_Walk":
        """The machine's per-config tables; see ``_Walk``."""
        return _Walk(
            proposers=tuple(
                (p, StartLeaderElection(p), ProposerSendPrepare(p),
                 ProposerSendAccept(p))
                for p in sorted(self.proposers)),
            servers=tuple((s, Crash(s), Recover(s)) for s in sorted(self.servers)),
            acceptors=frozenset(self.acceptors),
            rank={rnd: k for k, rnd in enumerate(self.rounds)},
            facts=_Facts(set(), {}, _unused_rounds(self.rounds), set(), {}, {},
                         {}, {}, {}),
        )


def make_config(n_proposers: int, n_acceptors: int) -> SystemConfig:
    """One client and the default two rounds per proposer."""
    return SystemConfig(
        proposers=tuple(f"p{k + 1}" for k in range(n_proposers)),
        acceptors=tuple(f"a{k + 1}" for k in range(n_acceptors)),
        clients=("c1",),
    )


# ---------------------------------------------------------------------------
# messages and actions

@dataclass(frozen=True, order=True)
class Msg:
    kind: str            # "1a" | "1b" | "2a" | "2b"
    round: tuple
    sender: str
    receiver: str
    payload: tuple = ()  # 1b: prior vote or (); 2a/2b: (value,)

    def wire(self) -> tuple:
        """Message content as it appears in sent/received histories."""
        return (self.kind, self.round) + self.payload

    # the actions that handle this copy, each built once per Msg object
    @cached_property
    def drop(self) -> "DropMessage":
        return DropMessage(self)

    @cached_property
    def deliver(self) -> "DeliverMessage":
        return DeliverMessage(self)

    @cached_property
    def promise(self) -> "AcceptorPromise":
        return AcceptorPromise(self.receiver, self)

    @cached_property
    def vote(self) -> "AcceptorVote":
        return AcceptorVote(self.receiver, self)


_msg_order = attrgetter("kind", "round", "sender", "receiver", "payload")
_by_acceptor = attrgetter("acceptor")


@dataclass(frozen=True, order=True)
class StartLeaderElection:
    proposer: str


@dataclass(frozen=True, order=True)
class ProposerSendPrepare:
    """Retransmit undelivered prepare copies of the proposer's current round."""

    proposer: str


@dataclass(frozen=True, order=True)
class AcceptorPromise:
    acceptor: str
    msg: Msg


@dataclass(frozen=True, order=True)
class ProposerSendAccept:
    proposer: str


@dataclass(frozen=True, order=True)
class AcceptorVote:
    acceptor: str
    msg: Msg


@dataclass(frozen=True, order=True)
class Learn:
    server: str
    round: tuple
    value: str


@dataclass(frozen=True, order=True)
class DeliverMessage:
    """Receipt of a message with no protocol effect beyond the history
    (stale prepares/accepts, promise and vote reports, and so on)."""

    msg: Msg


@dataclass(frozen=True, order=True)
class DropMessage:
    msg: Msg


@dataclass(frozen=True, order=True)
class Crash:
    process: str


@dataclass(frozen=True, order=True)
class Recover:
    process: str


Action = (StartLeaderElection, ProposerSendPrepare, AcceptorPromise,
          ProposerSendAccept, AcceptorVote, Learn, DeliverMessage,
          DropMessage, Crash, Recover)


# ---------------------------------------------------------------------------
# machine state

class _Facts(NamedTuple):
    started: set      # rounds whose prepare (1a) was sent
    current: dict     # proposer -> its last started round in config order
    unused: dict      # proposer -> its unstarted rounds in config order
    accepted: set     # rounds whose accept (2a) was sent
    maxbal: dict      # acceptor -> highest round it promised (1b sent) or voted
    vote: dict        # acceptor -> (round, value) of its highest voted round
    prepared: dict    # round -> acceptors that received its prepare
    promises: dict    # (proposer, round) -> {(acceptor, prior vote)} received
    reports: dict     # proposer -> {(round, value): voters} received


class _Walk(NamedTuple):
    """What every enabled tuple and every facts derivation of one config
    shares, built once per config."""

    proposers: tuple  # (p, its start, prepare and accept actions), sorted by p
    servers: tuple    # (s, Crash(s), Recover(s)), sorted by s
    acceptors: frozenset
    rank: dict        # round -> its position in config.rounds
    facts: _Facts     # the facts of empty histories


def _unused_rounds(rounds: tuple) -> dict:
    unused: dict = {}
    for rnd in rounds:
        unused.setdefault(rnd[1], []).append(rnd)
    return unused


def _with(table: dict, base, key, item) -> dict:
    """``table`` with ``item`` in the set at ``key``: ``table`` itself if the
    item is there already, else a copy of ``table`` while it is still
    ``base``.  The set is always copied, so no set of ``base`` changes."""
    old = table.get(key)
    if old is not None and item in old:
        return table
    if table is base:
        table = dict(table)
    table[key] = {item} if old is None else old | {item}
    return table


def _facts_after(facts: _Facts, config: SystemConfig, new_sent, new_received,
                 new_voted) -> _Facts:
    """``facts`` with the given history entries added, in any order.

    Exact because only enabled actions are applied: a proposer starts its
    rounds in config order, and an acceptor's ballot and vote rounds never
    decrease.  Copies only the containers that the entries change, so
    ``facts`` stays valid for the state it belongs to."""
    (started, current, unused, accepted, maxbal, vote,
     prepared, promises, reports) = facts
    rank = config._walk.rank

    for (snd, wire, _rcv) in new_sent:
        kind, rnd = wire[0], wire[1]
        if kind == "1a":
            if rnd in started:
                continue
            if started is facts.started:
                started, current, unused = set(started), dict(current), dict(unused)
            started.add(rnd)
            if rnd in rank:
                p = rnd[1]
                if p not in current or rank[current[p]] < rank[rnd]:
                    current[p] = rnd
                rest = [r for r in unused.get(p, ()) if r != rnd]
                if rest:
                    unused[p] = rest
                else:
                    unused.pop(p, None)
        elif kind == "2a":
            if rnd not in accepted:
                if accepted is facts.accepted:
                    accepted = set(accepted)
                accepted.add(rnd)
        elif kind == "1b":
            if snd not in maxbal or rnd > maxbal[snd]:
                if maxbal is facts.maxbal:
                    maxbal = dict(maxbal)
                maxbal[snd] = rnd

    for (a, rnd, _slot, val) in new_voted:
        if a not in maxbal or rnd > maxbal[a]:
            if maxbal is facts.maxbal:
                maxbal = dict(maxbal)
            maxbal[a] = rnd
        if a not in vote or rnd > vote[a][0]:
            if vote is facts.vote:
                vote = dict(vote)
            vote[a] = (rnd, val)

    for (rcv, wire, snd) in new_received:
        kind = wire[0]
        if kind == "1a":
            prepared = _with(prepared, facts.prepared, wire[1], rcv)
        elif kind == "1b":
            promises = _with(promises, facts.promises, (rcv, wire[1]),
                             (snd, wire[2:]))
        elif kind == "2b":
            inner = reports.get(rcv)
            grown = _with(inner or {}, facts.reports.get(rcv), wire[1:3], snd)
            if grown is not inner:
                if reports is facts.reports:
                    reports = dict(reports)
                reports[rcv] = grown

    return _Facts(started, current, unused, accepted, maxbal, vote,
                  prepared, promises, reports)


@dataclass(frozen=True)
class MachineState:
    config: SystemConfig
    obs: ObservationState
    pending: frozenset            # undelivered, undropped Msg copies

    def prop_round_of(self, p: str) -> Optional[tuple]:
        return self.facts.current.get(p)

    # cached per state; equality and hashing read the three fields only.
    # apply_action seeds ``facts`` from the parent's.
    @cached_property
    def facts(self) -> _Facts:
        """The protocol facts of the histories, derived from empty ones."""
        obs = self.obs
        return _facts_after(self.config._walk.facts, self.config,
                            obs.sent, obs.received, obs.voted)

    @cached_property
    def actions(self) -> tuple:
        """The enabled actions; see ``enabled``."""
        cfg = self.config
        walk = cfg._walk
        nf = self.obs.nf_procs
        f = self.facts
        starts, prepares, promises, accepts, votes, learns = [], [], [], [], [], []
        delivers, drops, crashes, recovers = [], [], [], []
        flying: dict = {}             # round -> receivers of its pending prepares

        for m in sorted(self.pending, key=_msg_order):
            drops.append(m.drop)
            kind, rcv = m.kind, m.receiver
            if kind == "1a":
                flying.setdefault(m.round, set()).add(rcv)
            if rcv not in nf:
                continue
            if kind == "1a" and rcv in walk.acceptors:
                bal = f.maxbal.get(rcv)
                if bal is None or m.round > bal:
                    promises.append(m.promise)
                    continue
            elif kind == "2a" and rcv in walk.acceptors:
                bal = f.maxbal.get(rcv)
                vote = f.vote.get(rcv)
                fresh = bal is None or m.round >= bal
                revote = vote is not None and vote[0] == m.round
                if fresh and not revote:
                    votes.append(m.vote)
                    continue
            delivers.append(m.deliver)
        promises.sort(key=_by_acceptor)
        votes.sort(key=_by_acceptor)

        for p, start, prepare, accept in walk.proposers:
            if p not in nf:
                continue
            if f.unused.get(p):
                starts.append(start)
            rnd = f.current.get(p)
            if rnd is not None:
                prepared = f.prepared.get(rnd, ())
                sending = flying.get(rnd, ())
                if any(a not in prepared and a not in sending
                       for a in cfg.acceptors):
                    prepares.append(prepare)
                if rnd not in f.accepted:
                    promisers = {a for (a, _prior) in f.promises.get((p, rnd), ())}
                    if any(q <= promisers for q in cfg.quorums):
                        accepts.append(accept)
            reports = f.reports.get(p)
            if reports:
                for (rnd, val) in sorted(reports):
                    if any(q <= reports[rnd, val] for q in cfg.quorums) and not any(
                        e[0] == p and e[2] == val for e in self.obs.learned
                    ):
                        learns.append(Learn(p, rnd, val))

        for s, crash, recover in walk.servers:
            if s in nf:
                crashes.append(crash)
            else:
                recovers.append(recover)

        return tuple(starts + prepares + promises + accepts + votes + learns
                     + delivers + drops + crashes + recovers)


def init(config: SystemConfig) -> MachineState:
    """Fresh machine: all processes non-faulty, no messages."""
    obs = ObservationState(
        nf_procs=frozenset(config.servers) | frozenset(config.clients),
        primaries=frozenset(),
        roster=frozenset(config.servers),
    )
    return MachineState(config=config, obs=obs, pending=frozenset())


def enabled(state: MachineState) -> tuple:
    """The enabled actions, computed once per state, ordered by their type's
    position in ``Action`` and then by their field values."""
    return state.actions


def _check_safety(obs: ObservationState, config: SystemConfig) -> None:
    by_slot: dict = {}
    for (srv, rnd, slot, val) in obs.voted:
        by_slot.setdefault(slot, {}).setdefault((rnd, val), set()).add(srv)
    chosen_per_slot: dict = {}
    for slot, groups in by_slot.items():
        chosen = set()
        for (rnd, val), voters in groups.items():
            if any(q <= voters for q in config.quorums):
                chosen.add(val)
        chosen_per_slot[slot] = chosen
        if len(chosen) > 1:
            raise SafetyViolation(
                f"slot {slot}: values {sorted(chosen)} each gathered a quorum"
            )
    for (srv, slot, val) in obs.learned:
        if val not in chosen_per_slot.get(slot, set()):
            raise SafetyViolation(
                f"{srv} learned {val!r} on slot {slot} without a vote quorum"
            )


def _grown(old: frozenset, added: set) -> frozenset:
    """``old`` with ``added``; ``old`` itself where that adds nothing."""
    return old if added <= old else old | added


def apply_action(state: MachineState, action) -> MachineState:
    """Apply one enabled action (ActionNotEnabled for any other); the tick
    advances by one."""
    if action not in state.actions:
        raise ActionNotEnabled(f"{action} is not enabled")

    cfg = state.config
    obs = state.obs
    f = state.facts
    sent, received, voted, learned = set(), set(), set(), set()   # what the action adds
    arriving = set()              # messages the action puts in flight
    gone = None                   # the message it takes out of flight
    primaries = obs.primaries
    nf = obs.nf_procs

    def send(msg: Msg):
        wire = msg.wire()
        sent.add((msg.sender, wire, msg.receiver))
        receipt = (msg.receiver, wire, msg.sender)
        if (receipt not in obs.received and receipt not in received
                and msg not in state.pending):
            arriving.add(msg)

    def receive(msg: Msg):
        nonlocal gone
        gone = msg
        received.add((msg.receiver, msg.wire(), msg.sender))

    if isinstance(action, StartLeaderElection):
        p = action.proposer
        rnd = f.unused[p][0]
        for a in cfg.acceptors:
            send(Msg("1a", rnd, p, a))
        primaries = frozenset({max(f.started | {rnd})[1]})
    elif isinstance(action, ProposerSendPrepare):
        p = action.proposer
        rnd = f.current[p]
        for a in cfg.acceptors:
            send(Msg("1a", rnd, p, a))
    elif isinstance(action, AcceptorPromise):
        a, m = action.acceptor, action.msg
        receive(m)
        prior = f.vote.get(a, ())
        send(Msg("1b", m.round, a, m.sender, prior))
    elif isinstance(action, ProposerSendAccept):
        p = action.proposer
        rnd = f.current[p]
        priors = [prior for (_a, prior) in f.promises.get((p, rnd), ()) if prior]
        if priors:
            value = max(priors)[1]
        else:
            value = cfg.values[cfg.proposers.index(p) % len(cfg.values)]
        for a in cfg.acceptors:
            send(Msg("2a", rnd, p, a, (value,)))
    elif isinstance(action, AcceptorVote):
        a, m = action.acceptor, action.msg
        receive(m)
        value = m.payload[0]
        voted.add((a, m.round, 1, value))
        for p in cfg.proposers:
            send(Msg("2b", m.round, a, p, (value,)))
    elif isinstance(action, Learn):
        learned.add((action.server, 1, action.value))
    elif isinstance(action, DeliverMessage):
        receive(action.msg)
    elif isinstance(action, DropMessage):
        gone = action.msg
    elif isinstance(action, Crash):
        nf = nf - {action.process}
    elif isinstance(action, Recover):
        nf = nf | {action.process}
    else:
        raise TypeError(f"unknown action {action!r}")

    new_obs = ObservationState(
        nf_procs=nf,
        primaries=obs.primaries if primaries == obs.primaries else primaries,
        roster=obs.roster,
        sent=_grown(obs.sent, sent),
        received=_grown(obs.received, received),
        voted=_grown(obs.voted, voted),
        learned=_grown(obs.learned, learned),
        executed=obs.executed,
        requested=obs.requested,
        responded=obs.responded,
    )
    _check_safety(new_obs, cfg)
    pending = state.pending
    if gone is not None:
        pending = pending - {gone}
    if arriving:
        pending = pending | arriving
    child = MachineState(cfg, new_obs, pending)
    if sent or received or voted:
        f = _facts_after(f, cfg, sent, received, voted)
    child.__dict__["facts"] = f
    return child


def run(config: SystemConfig, actions) -> list:
    """Apply a sequence of actions from init; returns every state, init first."""
    st = init(config)
    machine_states = [st]
    for a in actions:
        st = apply_action(st, a)
        machine_states.append(st)
    return machine_states


def trace_of(machine_states, loop_start: Optional[int] = None) -> Trace:
    return Trace(
        [s.obs for s in machine_states],
        machine_states[0].config,
        loop_start=loop_start,
    )
