"""Schedules that make chosen assumptions hold or fail, by construction.

A schedule is a deterministic sequence of ranks into the machine's enabled
set, plus an optional cycle start turning the run into a lasso.  Assumption
regimes are trace filters: generators build admissible traces rather than
changing the machine, and nothing a generator produces is trusted until the
properties have been re-evaluated on the trace it yields.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from . import machine as mc
from .catalog import LINK, SERVER, CatalogId, build
from .machine import SystemConfig
from .temporal import Trace, TraceInconsistent, Verdict, eval_expr


class AdversaryError(Exception):
    pass


class CannotRealize(AdversaryError):
    pass


SATISFY = "satisfy"
VIOLATE = "violate"


@dataclass(frozen=True)
class Demand:
    prop: CatalogId
    mode: str

    def __post_init__(self):
        if self.mode not in (SATISFY, VIOLATE):
            raise ValueError(f"bad mode {self.mode!r}")


@dataclass(frozen=True)
class AssumptionTarget:
    """A link demand and a server demand, each with its own mode."""

    link: Optional[Demand] = None
    server: Optional[Demand] = None

    def __post_init__(self):
        if self.link is not None and self.link.prop.kind != LINK:
            raise ValueError("link demand must name a link assumption")
        if self.server is not None and self.server.prop.kind != SERVER:
            raise ValueError("server demand must name a server assumption")

    def demands(self) -> tuple:
        return tuple(d for d in (self.link, self.server) if d is not None)


@dataclass(frozen=True)
class Schedule:
    config: SystemConfig
    steps: tuple                      # rank into the enabled set, per tick
    fault_plan: tuple = ()            # informational (tick, directive, who)
    loop_start: Optional[int] = None
    seed: Optional[int] = None
    target: Optional[AssumptionTarget] = None


def run_schedule(schedule: Schedule) -> Trace:
    """Replay a schedule; every selector must resolve in the enabled set and
    the run must close into the lasso the schedule names (AdversaryError)."""
    st = mc.init(schedule.config)
    states = [st]
    try:
        for k, rank in enumerate(schedule.steps):
            acts = mc.enabled(st)
            if not 0 <= rank < len(acts):
                raise AdversaryError(f"step {k}: rank {rank} outside {len(acts)} actions")
            st = mc.apply_action(st, acts[rank])
            states.append(st)
        return mc.trace_of(states, loop_start=schedule.loop_start)
    except (mc.MachineError, TraceInconsistent) as exc:
        raise AdversaryError(str(exc)) from None


def validate(trace: Trace, target: AssumptionTarget) -> tuple:
    """Re-evaluate every demanded property on the trace; order matches
    (link, server)."""
    out = []
    for d in target.demands():
        out.append(eval_expr(build(d.prop), trace))
    return tuple(out)


def _matches(verdict: Verdict, mode: str) -> bool:
    return verdict.is_holds if mode == SATISFY else verdict.is_violated


# ---------------------------------------------------------------------------
# plan construction

class Driver:
    """Grows a run against a live machine state, keeping every state and
    the rank of every action taken; a state's tick is its index."""

    def __init__(self, config: SystemConfig):
        self.state = mc.init(config)
        self.states: list = [self.state]
        self.ranks: list = []
        self.fault_plan: list = []

    @property
    def tick(self) -> int:
        return len(self.ranks)

    def take(self, action):
        nxt = mc.apply_action(self.state, action)
        self.ranks.append(mc.enabled(self.state).index(action))
        self.state = nxt
        self.states.append(nxt)

    def take_first(self, pred) -> bool:
        for a in mc.enabled(self.state):
            if pred(a):
                self.take(a)
                return True
        return False

    def elect(self, proposer: str) -> None:
        if not self.take_first(lambda a: isinstance(a, mc.StartLeaderElection)
                               and a.proposer == proposer):
            raise CannotRealize(f"{proposer} has no round left to start")

    def crash(self, proc: str) -> None:
        self.fault_plan.append((self.tick, "crash", proc))
        self.take(mc.Crash(proc))

    def recover(self, proc: str) -> None:
        self.fault_plan.append((self.tick, "recover", proc))
        self.take(mc.Recover(proc))

    def drop(self, msg: mc.Msg) -> None:
        self.fault_plan.append((self.tick, "drop", (msg.kind, msg.round,
                                                    msg.sender, msg.receiver)))
        self.take(mc.DropMessage(msg))

    def receipt_actions(self, skip=frozenset()):
        return [a for a in mc.enabled(self.state) if isinstance(
            a, (mc.AcceptorPromise, mc.AcceptorVote, mc.DeliverMessage))
            and a.msg not in skip]

    def deliver_all(self, rng: random.Random) -> None:
        """Receive every in-flight message (and whatever their replies
        queue), in a seed-chosen order."""
        while True:
            acts = self.receipt_actions()
            if not acts:
                return
            self.take(rng.choice(acts))

    def deliver_promptly(self) -> None:
        """Oldest-first receipt keeps every delivery delay at its minimum."""
        while True:
            acts = self.receipt_actions()
            if not acts:
                return
            self.take(acts[0])

    def drop_all_pending(self) -> None:
        while self.state.pending:
            self.drop(min(self.state.pending))

    def primary(self) -> Optional[str]:
        prims = sorted(self.state.obs.primaries)
        return prims[0] if prims else None


def _quorum_break_count(config: SystemConfig) -> int:
    """Smallest k such that crashing some k acceptors breaks every quorum."""
    acceptors = set(config.acceptors)
    for k in range(1, len(config.acceptors) + 1):
        for down in itertools.combinations(sorted(acceptors), k):
            alive = acceptors - set(down)
            if not any(q <= alive for q in config.quorums):
                return k
    return len(config.acceptors)


def _dur_violation_prefix(drv: Driver, claimant: str, up_budget: int,
                          rng: random.Random) -> None:
    """Crash/recover the claimant so no stretch of `up_budget`+1 ticks ever
    sees it continuously up, while still receiving every message: inbound
    traffic for others lands during the down ticks, the claimant's own
    receipts use the bounded up windows."""
    stalled = 0
    while stalled < 2:
        before = len(drv.ranks)
        drv.crash(claimant)
        while True:
            others = [a for a in drv.receipt_actions()
                      if a.msg.receiver != claimant]
            if not others:
                break
            drv.take(others[0])
        drv.recover(claimant)
        fills = 0
        while fills < max(up_budget - 1, 0):
            mine = [a for a in drv.receipt_actions()
                    if a.msg.receiver == claimant]
            if not mine:
                break
            drv.take(mine[0])
            fills += 1
        stalled = stalled + 1 if len(drv.ranks) == before + 2 else 0


def _plan(target: AssumptionTarget, config: SystemConfig,
          rng: random.Random) -> tuple:
    """One candidate (driver, loop_start) for the target."""
    drv = Driver(config)
    link = target.link
    server = target.server

    server_name = server.prop.name if server else None
    server_mode = server.mode if server else None
    dur_violation = (server_mode == VIOLATE
                     and server_name in ("PQ-Dur", "PQ-Extra-Dur"))
    if dur_violation:
        # any stable stretch would hand the property its window, so the
        # claimant flaps from its election onwards
        budget = (server.prop.params[0] if server_name == "PQ-Dur"
                  else server.prop.params[1])
        drv.elect(config.proposers[0])
        if link is not None and link.mode == VIOLATE:
            # dropping takes ticks, so it happens with the claimant down
            drv.crash(config.proposers[0])
            if link.prop.name == "Raw":
                drv.drop_all_pending()
            else:
                drv.drop(min(drv.state.pending))
            drv.recover(config.proposers[0])
        _dur_violation_prefix(drv, config.proposers[0], budget, rng)
        loop_start = len(drv.ranks) + 1
        drv.crash(config.proposers[0])
        drv.recover(config.proposers[0])
        return drv, loop_start

    # --- prefix: elections plus the link-assumption treatment -------------
    drv.elect(config.proposers[0])
    second = len(config.proposers) > 1 and rng.random() < 0.5
    if second:
        drv.elect(config.proposers[1])

    link_name = link.prop.name if link else None
    link_mode = link.mode if link else None

    if link_name == "Raw" and link_mode == VIOLATE:
        drv.drop_all_pending()
    elif link_name == "Fair" and link_mode == VIOLATE:
        doomed = rng.choice(sorted(drv.state.pending))
        drv.drop(doomed)
        drv.deliver_all(rng)
    elif link_name == "Sure" and link_mode == VIOLATE:
        bound = link.prop.params[0]
        late = rng.choice(sorted(drv.state.pending))
        # keep one message in flight past its bound, then let it land
        while drv.tick < bound + 3:
            others = drv.receipt_actions(skip={late})
            if others:
                drv.take(others[0])
            elif len(config.proposers) > 1 and not second:
                drv.elect(config.proposers[1])
                second = True
            else:
                idle = config.proposers[-1]
                drv.crash(idle)
                drv.recover(idle)
        drv.deliver_promptly()
    elif link_name == "Sure" and link_mode == SATISFY:
        drv.deliver_promptly()
    else:
        drv.deliver_all(rng)

    # let the protocol finish if the links allowed it; extra facts never
    # hurt an assumption
    if link_mode != VIOLATE or link_name == "Sure":
        changed = True
        while changed:
            changed = drv.take_first(lambda a: isinstance(
                a, (mc.ProposerSendAccept, mc.Learn)))
            if changed:
                if link_name == "Sure":
                    drv.deliver_promptly()
                else:
                    drv.deliver_all(rng)

    # --- cycle: the server-assumption treatment ---------------------------
    cycle: list = []
    claimant = drv.primary()

    def flap(proc):
        cycle.append(("crash", proc))
        cycle.append(("recover", proc))

    if server_mode == VIOLATE:
        if server_name == "Alw":
            flap(rng.choice(config.servers))
        elif server_name == "Alw-Q":
            k = _quorum_break_count(config)
            down = list(config.acceptors[:k])
            for a in down:
                cycle.append(("crash", a))
            for a in down:
                cycle.append(("recover", a))
        elif server_name == "Q-Alw":
            for a in config.acceptors:
                flap(a)
        elif server_name == "P-Alw-Q":
            flap(claimant)
        elif server_name == "PQ-Alw":
            # stable primary, but no fixed quorum survives
            for a in config.acceptors:
                flap(a)
    elif server_mode == SATISFY and server_name == "Q-Alw":
        # harmless proposer flapping shows the fixed quorum doing the work
        if rng.random() < 0.5 and claimant != config.proposers[-1]:
            flap(config.proposers[-1])

    loop_start = len(drv.ranks) + 1 if cycle else len(drv.ranks)
    for kind, proc in cycle:
        if kind == "crash":
            drv.crash(proc)
        else:
            drv.recover(proc)
    return drv, loop_start


def simulate(target: AssumptionTarget, config: SystemConfig, seed: int,
             max_attempts: int = 32) -> tuple:
    """(schedule, trace, verdicts) for the first plan whose own run gives
    each demanded property its requested verdict; raise CannotRealize after
    a bounded search.  The verdicts follow ``target.demands()``.  The trace
    is the run the Driver stepped, whose every action was checked against
    the enabled set, so replaying the schedule's ranks rebuilds it."""
    rng = random.Random(seed)
    failure = None
    for _ in range(max_attempts):
        try:
            drv, loop_start = _plan(target, config, rng)
        except (CannotRealize, mc.MachineError) as exc:
            failure = str(exc)
            continue
        try:
            trace = mc.trace_of(drv.states, loop_start=loop_start)
        except TraceInconsistent as exc:
            failure = str(exc)
            continue
        verdicts = validate(trace, target)
        if all(_matches(v, d.mode) for v, d in zip(verdicts, target.demands())):
            schedule = Schedule(config=config, steps=tuple(drv.ranks),
                                fault_plan=tuple(drv.fault_plan),
                                loop_start=loop_start, seed=seed, target=target)
            return schedule, trace, verdicts
        failure = ", ".join(
            f"{d.prop.label()}: wanted {d.mode}, got {v}"
            for v, d in zip(verdicts, target.demands()))
    raise CannotRealize(f"no admissible schedule found: {failure}")


def generate(target: AssumptionTarget, config: SystemConfig, seed: int,
             max_attempts: int = 32) -> Schedule:
    """Produce a schedule whose trace gives each demanded property its
    requested verdict, or raise CannotRealize after a bounded search."""
    return simulate(target, config, seed, max_attempts)[0]


# ---------------------------------------------------------------------------
# the two constructive adversaries

def alwq_adversary(config: SystemConfig) -> Trace:
    """Fair links and an always-up quorum are not enough to learn.

    The first leader's prepares stay in flight until a second leader has
    been elected and promised, landing afterwards as stale receipts, and
    the would-be proposers then trade crashes forever: every sent message
    is received (Fair holds), at most one server is down at any tick and no
    acceptor ever fails (Alw-Q holds), yet nothing is ever learned.
    """
    if len(config.proposers) < 2:
        raise ValueError("the construction needs a second proposer to elect")
    drv = Driver(config)
    p1, p2 = config.proposers[0], config.proposers[1]
    drv.elect(p1)
    drv.elect(p2)
    second_round = drv.state.prop_round_of(p2)
    # promise the new round first, so the old prepares arrive stale
    for a in config.acceptors:
        drv.take_first(lambda act: isinstance(act, mc.AcceptorPromise)
                       and act.acceptor == a and act.msg.round == second_round)
    drv.deliver_promptly()  # stale first-round prepares and the promise replies
    loop_start = len(drv.ranks) + 1
    drv.crash(p2)
    drv.recover(p2)
    drv.crash(p1)
    drv.recover(p1)
    return mc.trace_of(drv.states, loop_start=loop_start)


def raw_blackout(config: SystemConfig) -> Trace:
    """Nothing sent is ever received; no assertion can come true."""
    drv = Driver(config)
    drv.elect(config.proposers[0])
    drv.drop_all_pending()
    return mc.trace_of(drv.states, loop_start=len(drv.ranks))
