"""Explicit-state checking: stable-duration exploration, the closed-form
oracle it must reproduce, an exhaustive safety scan, and a bounded search
for liveness counterexample lassos.

The stable-duration explorer counts one tick per action and constrains
leader elections to the unstable window: an election (adopting the next
round and broadcasting its prepare, one action) may happen only while
``tick <= stable_start``, drawing from a pool of one competing round per
proposer plus the stabilizing round.  A superseded round keeps collecting
promises only until a quorum has answered it; only the newest round sends
its accept or gathers votes, and nobody promises below a round that already
reached the accept phase.  This granularity is what makes the measured
stable duration lengths land exactly on the closed form.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import machine as mc
from .adversary import Driver
from .catalog import CatalogId, build
from .machine import SystemConfig
from .temporal import Trace, eval_expr


class CheckerError(Exception):
    pass


class BudgetExceeded(CheckerError):
    def __init__(self, what: str, limit: int):
        self.what = what
        self.limit = limit
        super().__init__(f"exceeded the {what} budget of {limit}")


class NoConsensusPath(CheckerError):
    pass


def formula_oracle(i: int, j: int, x: int) -> int:
    """Closed form for the stable duration length.

    j*x + (j + 2 + ceil((j+1)/2)) while x <= i, constant afterwards: the
    parenthesized term is the length of an uncontended round (prepare
    broadcast, every acceptor's promise, the accept broadcast, and a quorum
    of votes), and each tick of instability lets one more round compete at
    a cost of j actions.

    ``explore`` matches this form only for j in {3, 4}.  It stops a
    superseded round's promises once that round has a quorum, so each extra
    round costs 1 + (j//2 + 1) actions, which equals j only there: at j = 5,
    (i, j) = (1, 5) and (2, 5) give 10 and 14 at x = 0 and 1, where the form
    gives 10 and 15.
    """
    if i < 1 or j < 1 or x < 0:
        raise ValueError("need i >= 1, j >= 1, x >= 0")
    base = j + 2 + (j + 2) // 2
    return j * min(x, i) + base


@dataclass(frozen=True)
class CheckRun:
    config: SystemConfig
    stable_start: int
    stable_length: int
    states_generated: int
    distinct_states: int
    elapsed_seconds: float

    def __post_init__(self):
        if self.stable_length < self.stable_start:
            raise ValueError("stable_length below stable_start")
        if self.distinct_states > self.states_generated + 1:   # + the initial state
            raise ValueError("distinct states exceed generated states")


def competing_rounds_config(n_proposers: int, n_acceptors: int,
                            n_clients: int = 1) -> SystemConfig:
    """Config whose round pool matches the stable-duration model: one
    competing round per proposer plus one re-election."""
    proposers = tuple(f"p{k + 1}" for k in range(n_proposers))
    rounds = tuple((1, p) for p in proposers) + ((2, proposers[0]),)
    return SystemConfig(
        proposers=proposers,
        acceptors=tuple(f"a{k + 1}" for k in range(n_acceptors)),
        clients=tuple(f"c{k + 1}" for k in range(n_clients)),
        rounds=tuple(sorted(rounds)),
    )


class _Kernel:
    """Single-decree Paxos over bitmasks, built once per config and shared
    by the three searches.  `explore` keeps its own successor function;
    `safety_scan` and the lasso search run `moves`.

    Rounds are numbered 1..pool.  Acceptor a's promise (or vote) in round b
    is bit a*pool + b-1 of a promise (or vote) mask, and maxbal[a] is the
    highest round a has promised or voted in; each search builds the
    successor of a promise or vote by an acceptor that `promisers` or
    `voters` names by raising maxbal[a] to b and setting bits[b][a] in the
    mask, with no intermediate tuple.  The owner tables follow the
    config's sorted rounds: a round names its owner, and a round naming no
    proposer falls to proposer k mod |proposers|.  The pool defaults to the
    config's rounds; `explore` passes its own pool size and never reads the
    owner tables.

    With ``owned``, a round's owner sends its accept only while the round is
    its current one, that is while the number of started rounds is below
    next_own[b], the next round of the same owner, and each proposer learns
    on its own.  Without it next_own lies past the pool, so any round may
    send its accept, and one anonymous learner learns.  Learner l having
    learned the config's value n is bit l*|values| + n of the learned mask.

    A quorum test masks the round's acceptor bits out of a mask and looks
    the pattern up in one table.  Bits of different rounds never overlap, so
    a non-zero pattern names its round, and the table is filled on first
    use: at most pool * 2**j entries, far fewer in practice.
    """

    def __init__(self, config: SystemConfig, pool: Optional[int] = None,
                 owned: bool = False):
        self.config = config
        self.rounds = tuple(sorted(config.rounds))
        self.j = j = len(config.acceptors)
        self.pool = pool = pool or len(self.rounds)
        index = {a: k for k, a in enumerate(config.acceptors)}
        # per round b: each acceptor's bit, and each quorum's bit pattern
        self.bits = [()] + [tuple(1 << (a * pool + b - 1) for a in range(j))
                            for b in range(1, pool + 1)]
        self.quorums = [()] + [
            tuple(sum(bits[index[a]] for a in q) for q in config.quorums)
            for bits in self.bits[1:]]
        self.round_bits = [0] + [sum(bits) for bits in self.bits[1:]]
        self.quorate = {}   # round-masked pattern -> holds a quorum
        # per round b: the names of each acceptor's promise and vote moves
        self.promise_names = [()] + [tuple(("promise", a, b) for a in range(j))
                                     for b in range(1, pool + 1)]
        self.vote_names = [()] + [tuple(("vote", a, b) for a in range(j))
                                  for b in range(1, pool + 1)]
        proposers = config.proposers
        self.owner = [None] + [
            rnd[1] if isinstance(rnd, tuple) and rnd[1] in proposers
            else proposers[k % len(proposers)]
            for k, rnd in enumerate(self.rounds)]
        self.owner_value = [None] + [
            config.values[proposers.index(p) % len(config.values)]
            for p in self.owner[1:]]
        n = len(self.rounds)
        self.next_own = [pool + 1] * (n + 1)
        if owned:
            upcoming = {}
            for b in range(n, 0, -1):
                self.next_own[b] = upcoming.get(self.owner[b], n + 1)
                upcoming[self.owner[b]] = b
        self.learners = proposers if owned else (None,)
        nv = len(config.values)
        self.learn_bits = {v: tuple(1 << (k * nv + m) for k in range(len(self.learners)))
                           for m, v in enumerate(config.values)}
        # (rounds started, maxbal, promise mask, accepted value per round,
        #  vote mask, learned mask)
        self.initial = (0, (0,) * j, 0, (), 0, 0)

    def members(self, mask: int, b: int) -> list:
        """Acceptors whose bit for round b is set in the mask."""
        bits = self.bits[b]
        return [a for a in range(self.j) if mask & bits[a]]

    def quorum(self, mask: int, b: int) -> bool:
        m = mask & self.round_bits[b]
        hit = self.quorate.get(m)
        if hit is None:
            hit = self.quorate[m] = any(m & q == q for q in self.quorums[b])
        return hit

    def promisers(self, maxbal: tuple, b: int) -> list:
        """Acceptors that can promise round b."""
        return [a for a in range(self.j) if maxbal[a] < b]

    def voters(self, maxbal: tuple, vmask: int, b: int) -> list:
        """Acceptors that can vote in round b, whose accept is assumed sent."""
        bits = self.bits[b]
        return [a for a in range(self.j) if maxbal[a] <= b and not vmask & bits[a]]

    def accept_value(self, pmask: int, vmask: int, accepted: tuple, b: int):
        """The 1b rule: the value of the latest round below b in which a
        promiser of b voted, else the owner's own value.  Votes below b can
        only precede a promise of b, so the current vote mask gives exactly
        the prior votes the promises reported."""
        prior = 0
        for a in self.members(pmask, b):
            for b0 in range(b - 1, prior, -1):
                if vmask & self.bits[b0][a]:
                    prior = b0
                    break
        return accepted[prior - 1] if prior else self.owner_value[b]

    def chosen(self, st) -> dict:
        """Each value a same-round vote quorum chose, mapped to the first
        round that chose it, in round order."""
        nb, _maxbal, _pmask, accepted, vmask, _learned = st
        out = {}
        for b in range(1, nb + 1):
            v = accepted[b - 1]
            if v is not None and v not in out and self.quorum(vmask, b):
                out[v] = b
        return out

    def moves(self, st, chosen) -> list:
        """(name, successor) for every move from ``st``, whose `chosen`
        values are given: an election of the next round, a promise, an
        accept, a vote, and a learn of a chosen value by each learner that
        has not learned it.  Rounds start in ascending order, and messages
        are read from a pool, so delivery interleavings stay out of the
        state."""
        nb, maxbal, pmask, accepted, vmask, learned = st
        out = []
        if nb < self.pool:
            out.append((("elect", nb + 1),
                        (nb + 1, maxbal, pmask, accepted + (None,), vmask, learned)))
        for b in range(1, nb + 1):
            bits, names = self.bits[b], self.promise_names[b]
            for a in self.promisers(maxbal, b):
                nm = maxbal[:a] + (b,) + maxbal[a + 1:]
                out.append((names[a], (nb, nm, pmask | bits[a], accepted, vmask, learned)))
        for b in range(1, nb + 1):
            if (accepted[b - 1] is None and nb < self.next_own[b]
                    and self.quorum(pmask, b)):
                value = self.accept_value(pmask, vmask, accepted, b)
                acc = accepted[:b - 1] + (value,) + accepted[b:]
                out.append((("accept", b), (nb, maxbal, pmask, acc, vmask, learned)))
        for b in range(1, nb + 1):
            if accepted[b - 1] is not None:
                bits, names = self.bits[b], self.vote_names[b]
                for a in self.voters(maxbal, vmask, b):
                    nm = maxbal[:a] + (b,) + maxbal[a + 1:]
                    out.append((names[a], (nb, nm, pmask, accepted, vmask | bits[a], learned)))
        for v, b in chosen.items():
            for learner, bit in zip(self.learners, self.learn_bits[v]):
                if not learned & bit:
                    out.append((("learn", learner, b, v),
                                (nb, maxbal, pmask, accepted, vmask, learned | bit)))
        return out

    def owing_processes(self, moves):
        """Who still owes a protocol step, split by role, read off the
        state's moves.

        A non-faulty process must eventually answer prepares and accepts
        addressed to it, propose once a quorum has answered, and learn once
        a quorum has voted: exactly the processes with a move other than an
        election left.  Raw-link searches skip this entirely because lost
        messages excuse everything message-dependent.
        """
        acceptors, proposers = set(), set()
        for name, _nxt in moves:
            if name[0] in ("promise", "vote"):
                acceptors.add(self.config.acceptors[name[1]])
            elif name[0] == "accept":
                proposers.add(self.owner[name[1]])
            elif name[0] == "learn":
                proposers.add(name[1])
        return acceptors, proposers


#: ticks past the closed form at which `explore` stops with BudgetExceeded
_TICK_SLACK = 8


def explore(config: SystemConfig, stable_start: int,
            max_states: int = 5_000_000) -> CheckRun:
    """Breadth-first exploration of every behavior under the stable-start
    discipline; the stable duration length is the latest tick at which the
    first same-round quorum of votes can appear.

    The sought quantity is a maximum over finite-depth behaviors, so the
    walk is capped at the closed form plus `_TICK_SLACK` ticks; hitting the
    cap means the calibration is broken and raises rather than truncating
    silently.
    """
    if stable_start < 0:
        raise ValueError("stable_start must be non-negative")
    t0 = time.perf_counter()
    i = len(config.proposers)
    x = stable_start
    pool = i + 1
    k = _Kernel(config, pool)
    tick_cap = formula_oracle(i, k.j, x) + _TICK_SLACK

    # state: (tick, rounds_started, maxbal per acceptor, promise bitmask,
    #         accept bitmask, vote bitmask); round b's accept is bit b-1
    init = (0, 0, (0,) * k.j, 0, 0, 0)

    def successors(st):
        tick, nb, maxbal, pmask, amask, vmask = st
        out = []
        if tick <= x and nb < pool:
            out.append((tick + 1, nb + 1, maxbal, pmask, amask, vmask))
        hi_accepted = amask.bit_length()  # newest round whose accept was sent
        for b in range(max(hi_accepted, 1), nb + 1):
            if b != nb and k.quorum(pmask, b):
                continue
            bits = k.bits[b]
            for a in k.promisers(maxbal, b):
                nm = maxbal[:a] + (b,) + maxbal[a + 1:]
                out.append((tick + 1, nb, nm, pmask | bits[a], amask, vmask))
        b = nb
        if b >= 1 and not (amask >> (b - 1) & 1):
            if k.quorum(pmask, b):
                out.append((tick + 1, nb, maxbal, pmask, amask | (1 << (b - 1)), vmask))
        elif b >= 1:
            bits = k.bits[b]
            for a in k.voters(maxbal, vmask, b):
                nm = maxbal[:a] + (b,) + maxbal[a + 1:]
                out.append((tick + 1, nb, nm, pmask, amask, vmask | bits[a]))
        return out

    seen = {init}
    frontier = deque([init])
    generated = 0
    best: Optional[int] = None
    while frontier:
        st = frontier.popleft()
        succ = successors(st)
        generated += len(succ)
        if not succ:
            raise NoConsensusPath(f"stuck without consensus at tick {st[0]}")
        for s in succ:
            if s in seen:
                continue
            if len(seen) >= max_states:
                raise BudgetExceeded("state", max_states)
            if s[0] > tick_cap:
                raise BudgetExceeded("tick", tick_cap)
            seen.add(s)
            # A state with a vote quorum is never expanded, so no frontier
            # state has a quorum in any round, and only a vote (always in
            # the newest round) changes the vote mask: a successor reached
            # consensus exactly when its newest round holds a vote quorum.
            if k.quorum(s[5], s[1]):
                if best is None or s[0] > best:
                    best = s[0]
            else:
                frontier.append(s)
    if best is None:
        raise NoConsensusPath("no behavior reached a vote quorum")
    return CheckRun(
        config=config,
        stable_start=stable_start,
        stable_length=best,
        states_generated=generated,
        distinct_states=len(seen),
        elapsed_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# exhaustive safety scan

@dataclass(frozen=True)
class SafetyReport:
    config: SystemConfig
    distinct_states: int
    states_generated: int
    violations: tuple


def safety_scan(config: SystemConfig, max_states: int = 2_000_000) -> SafetyReport:
    """Exhaustively explore the protocol state space (election timing
    unconstrained, promises/accepts/votes under plain Paxos rules) and check
    on every state that at most one value gathers a same-round vote quorum
    per slot and that learned values are quorum-backed.

    The second check is implied by the learn rule: a value is learned only
    once a quorum has voted for it, and votes and accepted values are never
    withdrawn, so it cannot fire.  It stays as a guard until a machine-level
    referee checks the kernel's moves."""
    k = _Kernel(config)

    def check(st, chosen) -> Optional[str]:
        if len(chosen) > 1:
            return f"values {sorted(chosen)} each gathered a vote quorum"
        learned = st[5]
        for n, v in enumerate(config.values):
            if learned >> n & 1 and v not in chosen:
                return f"learned value {v!r} lacks a vote quorum"
        return None

    # Each state is checked when it is popped, with the chosen values its
    # learn moves read.  BFS pops states in the order it found them and the
    # initial state has no votes, so the violations come out as they would
    # if each state were checked when found.
    seen = {k.initial}
    frontier = deque([k.initial])
    generated = 0
    violations = []
    while frontier:
        st = frontier.popleft()
        chosen = k.chosen(st)
        bad = check(st, chosen)
        if bad:
            violations.append(bad)
        for _name, s in k.moves(st, chosen):
            generated += 1
            if s in seen:
                continue
            if len(seen) >= max_states:
                raise BudgetExceeded("state", max_states)
            seen.add(s)
            frontier.append(s)
    return SafetyReport(config, len(seen), generated, tuple(violations))


# ---------------------------------------------------------------------------
# bounded counterexample-lasso search

@dataclass(frozen=True)
class LassoCheckResult:
    outcome: str                      # "holds" | "counterexample" | "undetermined"
    trace: Optional[Trace] = None
    states_explored: int = 0
    bound: Optional[int] = None

    @property
    def is_counterexample(self) -> bool:
        return self.outcome == "counterexample"


def _realize(config: SystemConfig, kernel: _Kernel, moves, drop_rest: bool,
             crash_set) -> Optional[list]:
    """Replay a path of kernel moves through the machine and close it out.

    Promise and vote steps carry their own receipt tick; an accept first
    receives the promise replies it relies on, a learn first receives the
    matching vote reports.  At the end every leftover message is received
    (or dropped, for a Raw-link search), the owing processes crash, and the
    trace stutters forever.  Every step is checked by the machine.
    """
    drv = Driver(config)

    def receive(kind, cls, rnd, receiver, sender=None) -> bool:
        return drv.take_first(lambda act: isinstance(act, cls)
                              and act.msg.kind == kind and act.msg.round == rnd
                              and act.msg.receiver == receiver
                              and sender in (None, act.msg.sender))

    shadow = kernel.initial
    for name, nxt in moves:
        if name[0] == "elect":
            drv.take(mc.StartLeaderElection(kernel.owner[name[1]]))
        elif name[0] == "promise":
            _op, a, b = name
            if not receive("1a", mc.AcceptorPromise, kernel.rounds[b - 1],
                           config.acceptors[a]):
                return None
        elif name[0] == "accept":
            b = name[1]
            p = kernel.owner[b]
            rnd = kernel.rounds[b - 1]
            for a in kernel.members(shadow[2], b):
                receive("1b", mc.DeliverMessage, rnd, p, config.acceptors[a])
            drv.take(mc.ProposerSendAccept(p))
        elif name[0] == "vote":
            _op, a, b = name
            if not receive("2a", mc.AcceptorVote, kernel.rounds[b - 1],
                           config.acceptors[a]):
                return None
        elif name[0] == "learn":
            _op, p, b, value = name
            rnd = kernel.rounds[b - 1]
            for a_name in config.acceptors:
                receive("2b", mc.DeliverMessage, rnd, p, a_name)
            drv.take(mc.Learn(p, rnd, value))
        shadow = nxt

    if drop_rest:
        drv.drop_all_pending()
    else:
        # no acceptor owes a reply, so every receipt left is a plain one
        drv.deliver_promptly()
        for p in sorted(crash_set):
            drv.crash(p)
    return drv.states


def check_liveness_lasso(config: SystemConfig, link: CatalogId,
                         server: CatalogId, assertion: CatalogId,
                         max_states: int = 500_000) -> LassoCheckResult:
    """Search for a lasso admissible under the link and server assumptions
    on which the assertion fails.

    An assumption admits a trace when the property holds on it; Raw admits
    every trace (it promises nothing about delivery).  Candidates close a
    path of kernel moves (a skeleton path) with a stuttering cycle once
    nothing more is owed: under a delivering link this means every
    prepare/accept on the table was answered and at most the proposers that
    still owe proposals or learns crash; under Raw the leftovers are simply
    dropped.  Every candidate is re-checked by evaluating all three
    properties on the realized trace.
    Exhausting the kernel's states without a candidate reports Holds; an
    exploration cut by the state budget reports Undetermined.
    """
    link_expr = build(link) if link.name != "Raw" else None
    server_expr = build(server)
    assertion_expr = build(assertion)
    raw_link = link.name == "Raw"
    k = _Kernel(config, owned=True)

    def violation_plausible(state, chosen) -> bool:
        """Cheap necessary condition for the assertion to fail on the
        realized stutter-lasso, read off the kernel state."""
        name = assertion.name
        if name == "Each-Vote":
            return not chosen
        if name == "Some-Learn":
            return not state[5]
        return True

    def crashes_admissible(state, crash) -> bool:
        """Exact precheck: would a cycle with `crash` down forever already
        defeat the server assumption?  The crashed set never recovers and
        only the top round's owner is ever flagged primary."""
        if not crash:
            return True
        name = server.name
        if name == "Alw":
            return False
        alive = set(config.acceptors) - crash
        if not any(q <= alive for q in config.quorums):
            return False
        if name in ("P-Alw-Q", "PQ-Alw", "PQ-Dur", "PQ-Extra-Dur"):
            claimant = k.owner[state[0]] if state[0] else None
            if claimant in crash:
                return False
        return True

    def try_closure(path, state, moves) -> Optional[Trace]:
        if state[0] == 0:
            return None  # the system never even tried; not an adversarial run
        acceptors_owing, proposers_owing = k.owing_processes(moves)
        if raw_link:
            crash = set()
        else:
            if acceptors_owing:
                return None  # their pending messages could never be received
            crash = proposers_owing
        if not crashes_admissible(state, crash):
            return None
        states = _realize(config, k, path, raw_link, crash)
        if states is None:
            return None
        trace = mc.trace_of(states, loop_start=len(states) - 1)
        if not eval_expr(assertion_expr, trace).is_violated:
            return None
        if not eval_expr(server_expr, trace).is_holds:
            return None
        if link_expr is not None and not eval_expr(link_expr, trace).is_holds:
            return None
        return trace

    seen = {k.initial}
    frontier = deque([(k.initial, None)])  # (state, linked path cell)
    explored = 0

    def unlink(cell) -> tuple:
        path = []
        while cell is not None:
            path.append((cell[0], cell[1]))
            cell = cell[2]
        path.reverse()
        return tuple(path)

    while frontier:
        state, cell = frontier.popleft()
        explored += 1
        chosen = k.chosen(state)
        moves = k.moves(state, chosen)
        if violation_plausible(state, chosen):
            found = try_closure(unlink(cell), state, moves)
            if found is not None:
                return LassoCheckResult("counterexample", found, explored)
        for name, nxt in moves:
            if nxt in seen:
                continue
            if len(seen) >= max_states:
                return LassoCheckResult("undetermined", None, explored,
                                        bound=max_states)
            seen.add(nxt)
            frontier.append((nxt, (name, nxt, cell)))
    return LassoCheckResult("holds", None, explored)
