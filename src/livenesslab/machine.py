"""Executable single-value Paxos with explicit fault and delivery actions.

Each applied action advances the tick by exactly one; a state carries no
tick, because its tick is its position in the run.  One action covers one
message send (broadcasts count once), one message receipt/handle, or one
learn; starting a leader election (adopting a fresh ballot and broadcasting
its prepare) is a single action.

A state holds only the observation that the properties read and the
messages in flight.  Every protocol fact (the rounds started, each
proposer's current round, each acceptor's ballot and vote, the rounds whose
accept was sent) is read off the observation's histories, which is exact
because ``apply_action`` checks every step against the enabled set.  A
state reads its facts and its enabled actions at most once, on first use.

State values are immutable; ``apply_action`` returns a new state, so
parallel exploration is safe as long as each worker owns its frontier
entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
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
        if not self.quorums:
            object.__setattr__(self, "quorums", majorities(self.acceptors))
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
        for q1 in self.quorums:
            for q2 in self.quorums:
                if not q1 & q2:
                    raise InvalidQuorumSystem(
                        f"quorums {sorted(q1)} and {sorted(q2)} are disjoint"
                    )

    @property
    def servers(self) -> tuple:
        return tuple(dict.fromkeys(self.proposers + self.acceptors))


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

_ACTION_ORDER = {cls: k for k, cls in enumerate(Action)}


def _action_key(a):
    return (_ACTION_ORDER[type(a)],) + tuple(
        getattr(a, f) for f in a.__dataclass_fields__
    )


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


@dataclass(frozen=True)
class MachineState:
    config: SystemConfig
    obs: ObservationState
    pending: frozenset            # undelivered, undropped Msg copies

    def prop_round_of(self, p: str) -> Optional[tuple]:
        return self.facts.current.get(p)

    # cached per state; equality and hashing read the three fields only
    @cached_property
    def facts(self) -> _Facts:
        """The protocol facts, read off the histories, each set once.

        Exact because only enabled actions are applied: a proposer starts
        its rounds in config order, and an acceptor's ballot and vote rounds
        never decrease."""
        obs = self.obs
        started, accepted, maxbal, vote = set(), set(), {}, {}
        prepared, promises, reports = {}, {}, {}

        def raise_bal(a, rnd):
            if a not in maxbal or rnd > maxbal[a]:
                maxbal[a] = rnd

        for (snd, wire, _rcv) in obs.sent:
            if wire[0] == "1a":
                started.add(wire[1])
            elif wire[0] == "2a":
                accepted.add(wire[1])
            elif wire[0] == "1b":
                raise_bal(snd, wire[1])
        for (a, rnd, _slot, val) in obs.voted:
            raise_bal(a, rnd)
            if a not in vote or rnd > vote[a][0]:
                vote[a] = (rnd, val)
        for (rcv, wire, snd) in obs.received:
            if wire[0] == "1a":
                prepared.setdefault(wire[1], set()).add(rcv)
            elif wire[0] == "1b":
                promises.setdefault((rcv, wire[1]), set()).add((snd, wire[2:]))
            elif wire[0] == "2b":
                reports.setdefault(rcv, {}).setdefault(wire[1:3], set()).add(snd)
        current, unused = {}, {}
        for rnd in self.config.rounds:
            if rnd in started:
                current[rnd[1]] = rnd
            else:
                unused.setdefault(rnd[1], []).append(rnd)
        return _Facts(started, current, unused, accepted, maxbal, vote,
                      prepared, promises, reports)

    @cached_property
    def actions(self) -> tuple:
        """The enabled actions; see ``enabled``."""
        cfg = self.config
        nf = self.obs.nf_procs
        f = self.facts
        out = []

        for p in cfg.proposers:
            if p not in nf:
                continue
            if f.unused.get(p):
                out.append(StartLeaderElection(p))
            rnd = f.current.get(p)
            if rnd is not None:
                received_by = f.prepared.get(rnd, set()) | {
                    m.receiver for m in self.pending
                    if m.kind == "1a" and m.round == rnd
                }
                if any(a not in received_by for a in cfg.acceptors):
                    out.append(ProposerSendPrepare(p))
                promisers = {a for (a, _prior) in f.promises.get((p, rnd), ())}
                if (any(q <= promisers for q in cfg.quorums)
                        and rnd not in f.accepted):
                    out.append(ProposerSendAccept(p))
            for (rnd, val), voters in f.reports.get(p, {}).items():
                if any(q <= voters for q in cfg.quorums) and not any(
                    e[0] == p and e[2] == val for e in self.obs.learned
                ):
                    out.append(Learn(p, rnd, val))

        for m in self.pending:
            out.append(DropMessage(m))
            if m.receiver not in nf:
                continue
            bal = f.maxbal.get(m.receiver)
            if m.kind == "1a" and m.receiver in cfg.acceptors:
                if bal is None or m.round > bal:
                    out.append(AcceptorPromise(m.receiver, m))
                else:
                    out.append(DeliverMessage(m))
            elif m.kind == "2a" and m.receiver in cfg.acceptors:
                vote = f.vote.get(m.receiver)
                fresh = bal is None or m.round >= bal
                revote = vote is not None and vote[0] == m.round
                if fresh and not revote:
                    out.append(AcceptorVote(m.receiver, m))
                else:
                    out.append(DeliverMessage(m))
            else:
                out.append(DeliverMessage(m))

        for s in cfg.servers:
            out.append(Crash(s) if s in nf else Recover(s))

        return tuple(sorted(out, key=_action_key))


def init(config: SystemConfig) -> MachineState:
    """Fresh machine: all processes non-faulty, no messages."""
    obs = ObservationState(
        nf_procs=frozenset(config.servers) | frozenset(config.clients),
        primaries=frozenset(),
        roster=frozenset(config.servers),
    )
    return MachineState(config=config, obs=obs, pending=frozenset())


def enabled(state: MachineState) -> tuple:
    """Deterministic, order-stable enumeration of the enabled actions,
    computed once per state."""
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
    pending = set(state.pending)
    sent, received, voted, learned = set(), set(), set(), set()   # what the action adds
    primaries = obs.primaries
    nf = obs.nf_procs

    def send(msg: Msg):
        sent.add((msg.sender, msg.wire(), msg.receiver))
        receipt = (msg.receiver, msg.wire(), msg.sender)
        if receipt not in obs.received and receipt not in received:
            pending.add(msg)

    def receive(msg: Msg):
        pending.discard(msg)
        received.add((msg.receiver, msg.wire(), msg.sender))

    if isinstance(action, StartLeaderElection):
        p = action.proposer
        f = state.facts
        rnd = f.unused[p][0]
        for a in cfg.acceptors:
            send(Msg("1a", rnd, p, a))
        primaries = frozenset({max(f.started | {rnd})[1]})
    elif isinstance(action, ProposerSendPrepare):
        p = action.proposer
        rnd = state.facts.current[p]
        for a in cfg.acceptors:
            send(Msg("1a", rnd, p, a))
    elif isinstance(action, AcceptorPromise):
        a, m = action.acceptor, action.msg
        receive(m)
        prior = state.facts.vote.get(a, ())
        send(Msg("1b", m.round, a, m.sender, prior))
    elif isinstance(action, ProposerSendAccept):
        p = action.proposer
        f = state.facts
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
        pending.discard(action.msg)
    elif isinstance(action, Crash):
        nf = nf - {action.process}
    elif isinstance(action, Recover):
        nf = nf | {action.process}
    else:
        raise TypeError(f"unknown action {action!r}")

    new_obs = replace(
        obs,
        nf_procs=nf,
        primaries=obs.primaries if primaries == obs.primaries else primaries,
        sent=_grown(obs.sent, sent),
        received=_grown(obs.received, received),
        voted=_grown(obs.voted, voted),
        learned=_grown(obs.learned, learned),
    )
    _check_safety(new_obs, cfg)
    return MachineState(cfg, new_obs, frozenset(pending))


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
