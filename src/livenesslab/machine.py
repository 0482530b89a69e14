"""Executable single-value Paxos with explicit fault and delivery actions.

Each applied action advances the tick by exactly one; the tick is therefore
the count of actions executed.  One action covers one message send
(broadcasts count once), one message receipt/handle, or one learn; starting
a leader election (adopting a fresh ballot and broadcasting its prepare) is
a single action.

State values are immutable; ``apply`` returns a new state, so parallel
exploration is safe as long as each worker owns its frontier entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

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


def make_config(n_proposers: int, n_acceptors: int, n_clients: int = 1,
                round_bound: int = 2, slot_bound: int = 1) -> SystemConfig:
    return SystemConfig(
        proposers=tuple(f"p{k + 1}" for k in range(n_proposers)),
        acceptors=tuple(f"a{k + 1}" for k in range(n_acceptors)),
        clients=tuple(f"c{k + 1}" for k in range(n_clients)),
        rounds=tuple(
            (c, f"p{k + 1}")
            for c in range(1, round_bound + 1)
            for k in range(n_proposers)
        ),
        slot_bound=slot_bound,
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

@dataclass(frozen=True)
class MachineState:
    config: SystemConfig
    tick: int
    obs: ObservationState
    pending: frozenset            # undelivered, undropped Msg copies
    ballots: tuple                # rounds started, in adoption order
    prop_round: tuple             # proposer -> current round or None (dict as items)
    acc_maxbal: tuple             # acceptor -> highest promised/voted round or None
    acc_vote: tuple               # acceptor -> (round, value) last vote or None
    accepted: frozenset           # (round, value) pairs with a 2a sent

    def prop_round_of(self, p: str) -> Optional[tuple]:
        return dict(self.prop_round)[p]


def init(config: SystemConfig) -> MachineState:
    """Fresh machine: tick 0, all processes non-faulty, no messages."""
    obs = ObservationState(
        nf_procs=frozenset(config.servers) | frozenset(config.clients),
        primaries=frozenset(),
        roster=frozenset(config.servers),
    )
    return MachineState(
        config=config,
        tick=0,
        obs=obs,
        pending=frozenset(),
        ballots=(),
        prop_round=tuple((p, None) for p in config.proposers),
        acc_maxbal=tuple((a, None) for a in config.acceptors),
        acc_vote=tuple((a, None) for a in config.acceptors),
        accepted=frozenset(),
    )


def _unused_rounds(state: MachineState, p: str):
    used = set(state.ballots)
    return [r for r in state.config.rounds if r[1] == p and r not in used]


def _quorum_of(state: MachineState, members: set) -> bool:
    return any(q <= members for q in state.config.quorums)


def _promises_received(state: MachineState, p: str, rnd: tuple) -> set:
    out = set()
    for (rcv, wire, snd) in state.obs.received:
        if rcv == p and wire[0] == "1b" and wire[1] == rnd:
            out.add((snd, wire[2:]))
    return out


def _votes_received(state: MachineState, s: str) -> dict:
    by_round: dict = {}
    for (rcv, wire, snd) in state.obs.received:
        if rcv == s and wire[0] == "2b":
            by_round.setdefault((wire[1], wire[2]), set()).add(snd)
    return by_round


def enabled(state: MachineState) -> tuple:
    """Deterministic, order-stable enumeration of the enabled actions."""
    cfg = state.config
    nf = state.obs.nf_procs
    out = []
    prop_round = dict(state.prop_round)
    acc_maxbal = dict(state.acc_maxbal)

    for p in cfg.proposers:
        if p not in nf:
            continue
        if _unused_rounds(state, p):
            out.append(StartLeaderElection(p))
        rnd = prop_round[p]
        if rnd is not None:
            received_by = {
                m.receiver for m in state.pending
                if m.kind == "1a" and m.round == rnd
            } | {
                rcv for (rcv, wire, snd) in state.obs.received
                if wire[0] == "1a" and wire[1] == rnd
            }
            if any(a not in received_by for a in cfg.acceptors):
                out.append(ProposerSendPrepare(p))
            promisers = {a for (a, _prior) in _promises_received(state, p, rnd)}
            if (_quorum_of(state, promisers)
                    and not any(r == rnd for (r, _v) in state.accepted)):
                out.append(ProposerSendAccept(p))

    for m in sorted(state.pending):
        out.append(DropMessage(m))
        if m.receiver not in nf:
            continue
        if m.kind == "1a" and m.receiver in cfg.acceptors:
            bal = acc_maxbal[m.receiver]
            if bal is None or m.round > bal:
                out.append(AcceptorPromise(m.receiver, m))
            else:
                out.append(DeliverMessage(m))
        elif m.kind == "2a" and m.receiver in cfg.acceptors:
            bal = acc_maxbal[m.receiver]
            vote = dict(state.acc_vote)[m.receiver]
            fresh = bal is None or m.round >= bal
            revote = vote is not None and vote[0] == m.round
            if fresh and not revote:
                out.append(AcceptorVote(m.receiver, m))
            else:
                out.append(DeliverMessage(m))
        else:
            out.append(DeliverMessage(m))

    votes = {}
    for p in cfg.proposers:
        if p not in nf:
            continue
        for (rnd, val), voters in _votes_received(state, p).items():
            if _quorum_of(state, voters) and not any(
                e[0] == p and e[2] == val for e in state.obs.learned
            ):
                votes[(p, rnd, val)] = True
    for (p, rnd, val) in sorted(votes):
        out.append(Learn(p, rnd, val))

    for s in sorted(cfg.servers):
        if s in nf:
            out.append(Crash(s))
        else:
            out.append(Recover(s))

    return tuple(sorted(out, key=_action_key))


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


def apply_action(state: MachineState, action, check: bool = True) -> MachineState:
    """Apply one enabled action; tick advances by one."""
    if check and action not in enabled(state):
        raise ActionNotEnabled(f"{action} is not enabled at tick {state.tick}")

    cfg = state.config
    obs = state.obs
    pending = set(state.pending)
    sent, received, voted, learned = set(), set(), set(), set()   # what the action adds
    primaries = obs.primaries
    nf = obs.nf_procs
    ballots = state.ballots
    prop_round = dict(state.prop_round)
    acc_maxbal = dict(state.acc_maxbal)
    acc_vote = dict(state.acc_vote)
    accepted = set(state.accepted)

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
        rnd = _unused_rounds(state, p)[0]
        ballots = ballots + (rnd,)
        prop_round[p] = rnd
        for a in cfg.acceptors:
            send(Msg("1a", rnd, p, a))
        primaries = frozenset({max(ballots)[1]})
    elif isinstance(action, ProposerSendPrepare):
        p = action.proposer
        rnd = prop_round[p]
        for a in cfg.acceptors:
            send(Msg("1a", rnd, p, a))
    elif isinstance(action, AcceptorPromise):
        a, m = action.acceptor, action.msg
        receive(m)
        acc_maxbal[a] = m.round
        prior = acc_vote[a] or ()
        send(Msg("1b", m.round, a, m.sender, tuple(prior)))
    elif isinstance(action, ProposerSendAccept):
        p = action.proposer
        rnd = prop_round[p]
        priors = [prior for (_a, prior) in _promises_received(state, p, rnd) if prior]
        if priors:
            value = max(priors)[1]
        else:
            value = cfg.values[cfg.proposers.index(p) % len(cfg.values)]
        accepted.add((rnd, value))
        for a in cfg.acceptors:
            send(Msg("2a", rnd, p, a, (value,)))
    elif isinstance(action, AcceptorVote):
        a, m = action.acceptor, action.msg
        receive(m)
        value = m.payload[0]
        acc_maxbal[a] = m.round
        acc_vote[a] = (m.round, value)
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
    return MachineState(
        config=cfg,
        tick=state.tick + 1,
        obs=new_obs,
        pending=frozenset(pending),
        ballots=ballots,
        prop_round=tuple(sorted(prop_round.items())),
        acc_maxbal=tuple(sorted(acc_maxbal.items())),
        acc_vote=tuple(sorted(acc_vote.items())),
        accepted=frozenset(accepted),
    )


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
