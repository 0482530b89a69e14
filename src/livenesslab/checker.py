"""Explicit-state checking: stable-duration exploration, the closed-form
oracle it must reproduce, an exhaustive safety scan, and a bounded search
for liveness counterexample lassos.  All three searches run one move
relation of single-decree Paxos over one int per state, `_Kernel.moves`,
each under its own discipline, and one breadth-first search, `_search`,
which records every state's path in a `_Trail`: its parent's index and its
move's position, by discovery order.

`explore` and `safety_scan` keep one representative per orbit of the
acceptor permutations that map the quorums onto themselves
(`_Kernel.canon`), with the orbit's size.  Their counts stay those of every
state: a renamed path is a path of the same length, so an orbit lies on one
level, and its states have as many moves each.  The lasso search keeps
singleton orbits, since it realizes the exact states it visits.

The stable-duration explorer counts one tick per action and constrains
leader elections to the unstable window: an election (adopting the next
round and broadcasting its prepare, one action) may happen only while
``tick <= stable_start``, drawing from a pool of one competing round per
proposer plus the stabilizing round.  A superseded round keeps collecting
promises only until a quorum has answered it; only the newest round sends
its accept or gathers votes, and nobody promises below a round that already
reached the accept phase.  This granularity is what makes the measured
stable duration lengths land exactly on the closed form for three and four
acceptors.
"""

from __future__ import annotations

import time
from array import array
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
    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"exceeded the state budget of {limit}")

    def __reduce__(self):
        # a worker process pickles the exception; the default would call
        # __init__ with the message alone
        return type(self), (self.limit,)


class NoConsensusPath(CheckerError):
    pass


def formula_oracle(i: int, j: int, x: int) -> int:
    """Closed form for the stable duration length.

    j*x + (j + 2 + ceil((j+1)/2)) while x <= i, constant afterwards: the
    parenthesized term, base, is the length of an uncontended round (prepare
    broadcast, every acceptor's promise, the accept broadcast, and a quorum
    of votes), and each tick of instability lets one more round compete at
    a cost of j actions.

    ``explore`` follows the law (j//2 + 2)*min(x, i) + base instead, and
    only near the plateau.  It stops a superseded round's promises once
    that round has a quorum, so each extra round costs 1 + q actions, q =
    j//2 + 1, which equals j only for j in {3, 4}, where the two agree.
    Measured: (1,5) 10/14/14 and (2,5) 10/14/18/18 at x = 0, 1, ..., where
    the form gives 10/15/15 and 10/15/20/20; (1,6) 12/17/17, (1,7) 13/18
    and (2,6) 12/17.  A few ticks past x = i the length rises again, until
    it saturates (see `explore`): (2,3) gives 13 up to x = 4, then 14, 15
    and 16 at x = 5, 6 and 7, and 19 from x = 12.
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
    #: the acceptor-symmetry orbits the search kept one representative of
    orbits: int = 0

    def __post_init__(self):
        if self.distinct_states > self.states_generated + 1:   # + the initial state
            raise ValueError("distinct states exceed generated states")
        if self.orbits > self.distinct_states:
            raise ValueError("orbits exceed distinct states")


def competing_rounds_config(n_proposers: int, n_acceptors: int) -> SystemConfig:
    """Config whose round pool matches the stable-duration model: one
    competing round per proposer plus one re-election."""
    proposers = tuple(f"p{k + 1}" for k in range(n_proposers))
    rounds = tuple((1, p) for p in proposers) + ((2, proposers[0]),)
    return SystemConfig(
        proposers=proposers,
        acceptors=tuple(f"a{k + 1}" for k in range(n_acceptors)),
        clients=("c1",),
        rounds=tuple(sorted(rounds)),
    )


class _Kernel:
    """Single-decree Paxos over one int per state, built once per config.
    The three searches all run its one move relation, `moves`, each under
    its own discipline.

    Rounds are numbered 1..pool, and every round number fits in W =
    pool.bit_length() bits.  A state packs these fields, from bit 0 up:

    - nb, the number of rounds started, in W bits;
    - maxbal[a], acceptor a's highest promised or voted round, in W bits
      each, at `maxbal_at[a]`;
    - the promise mask at `promise_at`: acceptor a's promise in round b is
      bit a*pool + b-1 of it;
    - one accepted field per round at `accept_at`, `accept_width` bits each:
      one bit under "stable", and under "scan" and "owned" the accepted
      value's index in the config's values plus one, 0 for no accept;
    - the vote mask at `vote_at`, laid out as the promise mask;
    - the learned mask at `learn_at`, on top: learner l having learned the
      config's value n is bit l*|values| + n.

    A move is arithmetic on the int, with no intermediate object: an
    election adds 1; a promise or vote adds a delta that swaps maxbal[a]
    for b and sets its bit; an accept ORs its value's code into its round's
    field, and a learn ORs one bit.  Which promises and votes the maxbal
    guards allow, and their deltas, depend only on the head, the low bits
    that hold nb and maxbal, so `_head` builds them once per head.  No field
    can carry into the next: nb and maxbal stay at most pool, and a move
    sets only bits that are clear.

    The owner tables follow the config's sorted rounds: a round names its
    owner, and a round naming no proposer falls to proposer k mod
    |proposers|.  `explore` never reads them, so its pool may run past the
    config's rounds.

    The discipline fixes which moves a state offers:

    - "scan" (`safety_scan`): the pool is the config's rounds, any round may
      send its accept, and one anonymous learner learns.
    - "owned" (the lasso search): as "scan", except that a round's owner
      sends its accept only while the round is its current one, that is
      while the number of started rounds is below next_own[b], the next
      round of the same owner, and each proposer learns on its own.
    - "stable" (`explore`): the pool is one competing round per proposer
      plus the stabilizing round.  An election is offered only while the
      state's `tick` is at most stable_start.  A round is promised only if
      it is at least the newest round whose accept was sent, and only while
      it is the newest round or lacks a promise quorum; only the newest
      round accepts and votes.  An accept records True, not the 1b rule's
      value: `explore` reads no values, and a value would split states that
      differ in nothing else.  A state with a chosen value offers no move,
      since consensus ends the behavior, so nobody learns.

    A quorum test takes the promise or vote mask shifted down to bit 0,
    masks round b's acceptor bits out of it and looks the pattern up in one
    table.  Bits of different rounds never overlap, so a non-zero pattern
    names its round, and the table is filled on first use: at most
    pool * 2**j entries, far fewer in practice.

    Renaming the acceptors maps the moves of "scan" and "stable" onto
    moves, when it maps the quorums onto themselves: the 1b rule takes the
    latest vote of any promiser, and no field but maxbal and the two masks
    names an acceptor.  Such a kernel is `symmetric`, and `canon` sorts the
    per-acceptor components into slot order.  An election, accept or learn
    leaves every component as it was, so it keeps a representative
    canonical, with the same orbit size; the searches canonicalize only
    after promises and votes.
    """

    def __init__(self, config: SystemConfig, discipline: str, stable_start: int = 0):
        self.config = config
        self.stable_start = stable_start
        self.rounds = tuple(sorted(config.rounds))
        self.j = j = len(config.acceptors)
        self.stable = stable = discipline == "stable"
        self.pool = pool = len(config.proposers) + 1 if stable else len(self.rounds)
        values = config.values
        nv = len(values)
        # the fields' offsets and widths
        self.width = w = pool.bit_length()
        self.round_mask = (1 << w) - 1   # a round number; nb is the lowest field
        self.maxbal_at = tuple(w * (a + 1) for a in range(j))
        self.promise_at = w * (j + 1)
        self.accept_at = self.promise_at + j * pool
        self.accept_width = f = 1 if stable else nv.bit_length()
        self.vote_at = self.accept_at + pool * f
        self.learn_at = self.vote_at + j * pool
        self.code_mask = (1 << f) - 1                # one accepted field
        self.accepted_mask = (1 << pool * f) - 1     # all of them, shifted down
        self.vote_field = ((1 << j * pool) - 1) << self.vote_at   # in place
        #: an accepted field's code -> the value it records
        self.codes = (None, True) if stable else (None,) + values
        index = {a: k for k, a in enumerate(config.acceptors)}
        # per round b: each acceptor's bit in a mask, and each quorum's pattern
        bits = [()] + [tuple(1 << (a * pool + b - 1) for a in range(j))
                       for b in range(1, pool + 1)]
        self.quorums = [()] + [
            tuple(sum(bs[index[a]] for a in q) for q in config.quorums)
            for bs in bits[1:]]
        self.round_bits = [0] + [sum(bs) for bs in bits[1:]]
        self.quorate = {}   # round-masked pattern -> holds a quorum
        # per round b: each acceptor's promise and vote, as (name, bit)
        self.promise_moves = [()] + [
            tuple((("promise", a, b), 1 << self.promise_at + a * pool + b - 1)
                  for a in range(j)) for b in range(1, pool + 1)]
        self.vote_moves = [()] + [
            tuple((("vote", a, b), 1 << self.vote_at + a * pool + b - 1)
                  for a in range(j)) for b in range(1, pool + 1)]
        self.head_mask = (1 << self.promise_at) - 1   # nb and every maxbal
        self.heads = {}   # head -> the promises and votes its maxbal allows
        # per round b: its accepted field in place, and where the field starts
        self.accept_field = [0] + [self.code_mask << self.accept_at + (b - 1) * f
                                   for b in range(1, pool + 1)]
        self.accept_shift = [0] + [self.accept_at + (b - 1) * f for b in range(1, pool + 1)]
        self.elect_names = [None] + [("elect", b) for b in range(1, pool + 1)]
        self.accept_names = [None] + [("accept", b) for b in range(1, pool + 1)]
        proposers = config.proposers
        self.owner = [None] + [
            rnd[1] if isinstance(rnd, tuple) and rnd[1] in proposers
            else proposers[k % len(proposers)]
            for k, rnd in enumerate(self.rounds)]
        # the code of each round owner's own value
        self.owner_code = [0] + [proposers.index(p) % nv + 1 for p in self.owner[1:]]
        self.next_own = [pool + 1] * (pool + 1)
        if discipline == "owned":
            upcoming = {}
            for b in range(pool, 0, -1):
                self.next_own[b] = upcoming.get(self.owner[b], pool + 1)
                upcoming[self.owner[b]] = b
        self.learners = proposers if discipline == "owned" else (None,)
        self.learn_bits = {v: tuple(1 << (self.learn_at + k * nv + m)
                                    for k in range(len(self.learners)))
                           for m, v in enumerate(values)}
        self.initial = 0
        # The adjacent transpositions generate every acceptor permutation, so
        # j - 1 swaps decide whether all of them map the quorums onto
        # themselves.  "owned" moves are as symmetric, but the lasso search
        # realizes the states it visits and its order is pinned, so it keeps
        # singleton orbits.
        quorums = set(config.quorums)
        acceptors = config.acceptors
        self.symmetric = discipline != "owned" and all(
            {frozenset(swap.get(a, a) for a in q) for q in quorums} == quorums
            for swap in ({x: y, y: x} for x, y in zip(acceptors, acceptors[1:])))
        if self.symmetric:
            self.row_mask = (1 << pool) - 1   # one acceptor's promise or vote row
            #: per slot a: where maxbal[a], a's promise row and a's vote row sit
            self.slots = tuple((at, self.promise_at + a * pool, self.vote_at + a * pool)
                               for a, at in enumerate(self.maxbal_at))
            self.acceptor_mask = (
                (self.head_mask ^ self.round_mask) | self.vote_field
                | ((1 << j * pool) - 1) << self.promise_at)
            self.orbit_max = 1   # j!, the size of an orbit of j unlike acceptors
            for n in range(2, j + 1):
                self.orbit_max *= n

    def _head(self, head: int) -> tuple:
        """The promises and votes that a head, nb and every maxbal, allows
        per round b up to nb: (name, delta) for a promise, (name, vote bit,
        delta) for a vote, the successor being the state plus delta, which
        swaps maxbal[a] for b and sets the move's bit."""
        nb = head & self.round_mask
        promises, votes = [()], [()]
        for b in range(1, nb + 1):
            ps, vs = [], []
            for at, (promise, pbit), (vote, vbit) in zip(
                    self.maxbal_at, self.promise_moves[b], self.vote_moves[b]):
                mb = head >> at & self.round_mask
                delta = (b - mb) << at
                if mb < b:
                    ps.append((promise, delta + pbit))
                if mb <= b:
                    vs.append((vote, vbit, delta + vbit))
            promises.append(tuple(ps))
            votes.append(tuple(vs))
        row = self.heads[head] = (promises, votes)
        return row

    def canon(self, st: int) -> tuple:
        """(representative, orbit size) of the state's orbit under acceptor
        permutations: the per-acceptor components (maxbal[a], a's promise
        row, a's vote row) sorted into slot order, largest first, and j!
        over the product of the factorials of their multiplicities.  A
        kernel that is not `symmetric` ("owned", or quorums that some
        permutation does not preserve) has singleton orbits."""
        if not self.symmetric:
            return st, 1
        rm, row, pool = self.round_mask, self.row_mask, self.pool
        two = pool + pool
        keys = [(st >> m & rm) << two | (st >> p & row) << pool | st >> v & row
                for m, p, v in self.slots]
        ordered = sorted(keys, reverse=True)
        if ordered != keys:
            st &= ~self.acceptor_mask
            for (m, p, v), key in zip(self.slots, ordered):
                st |= (key >> two) << m | (key >> pool & row) << p | (key & row) << v
        weight, run = self.orbit_max, 1
        for a in range(1, self.j):
            if ordered[a] == ordered[a - 1]:
                run += 1
                weight //= run
            else:
                run = 1
        return st, weight

    def tick(self, st: int) -> int:
        """The rounds started plus the bits set above the head: under
        "stable", where each move starts one round or sets one bit, the
        length of every path to the state."""
        return (st & self.round_mask) + (st >> self.promise_at).bit_count()

    def quorum(self, mask: int, b: int) -> bool:
        """Whether the acceptors whose round-b bit (a*pool + b-1) is set in
        the mask hold a quorum."""
        m = mask & self.round_bits[b]
        hit = self.quorate.get(m)
        if hit is None:
            hit = self.quorate[m] = any(m & q == q for q in self.quorums[b])
        return hit

    def accept_value(self, st: int, b: int) -> int:
        """The 1b rule, as an accepted field's code: the value of the latest
        round below b in which a promiser of b voted, else the owner's own
        value.  Votes below b can only precede a promise of b, so the
        state's vote mask gives exactly the prior votes the promises
        reported; a promiser's latest is the bit length of its vote bits
        below b."""
        below = (1 << (b - 1)) - 1
        prior = 0
        for a, (_name, bit) in enumerate(self.promise_moves[b]):
            if st & bit:
                latest = (st >> self.vote_at + a * self.pool & below).bit_length()
                if latest > prior:
                    prior = latest
        if prior:
            return st >> self.accept_shift[prior] & self.code_mask
        return self.owner_code[b]

    def chosen(self, st: int) -> dict:
        """Each value a same-round vote quorum chose, mapped to the first
        round that chose it, in round order."""
        out = {}
        if st & self.vote_field:   # no votes, nothing chosen
            accepted = st >> self.accept_at & self.accepted_mask
            votes, codes, quorate = st >> self.vote_at, self.codes, self.quorate
            f, code_mask, round_bits = self.accept_width, self.code_mask, self.round_bits
            b = 1
            while accepted:
                code = accepted & code_mask
                if code:
                    v = codes[code]
                    if v not in out:   # `quorum`, inlined: this runs on every state
                        hit = quorate.get(votes & round_bits[b])
                        if hit is None:
                            hit = self.quorum(votes, b)
                        if hit:
                            out[v] = b
                accepted >>= f
                b += 1
        return out

    def moves(self, st: int, chosen) -> list:
        """(name, successor) for every move from ``st`` that the discipline
        allows, given its `chosen` values: an election of the next round,
        promises by round then acceptor, accepts by round, votes by round
        then acceptor, and a learn of a chosen value by each learner that
        has not learned it.  Rounds start in ascending order, and messages
        are read from a pool, so delivery interleavings stay out of the
        state."""
        stable = self.stable
        if stable and chosen:
            return []   # consensus ends a stable behavior
        nb = st & self.round_mask
        accept_field = self.accept_field
        head = st & self.head_mask
        head_promises, head_votes = self.heads.get(head) or self._head(head)
        out = []
        if nb < self.pool and (not stable or self.tick(st) <= self.stable_start):
            out.append((self.elect_names[nb + 1], st + 1))
        pmask = st >> self.promise_at
        # the lowest round that may be promised, and that may accept or vote
        low = newest = 1
        if stable and nb:
            newest = nb
            low = (st >> self.accept_at & self.accepted_mask).bit_length() or 1
        for b in range(low, nb + 1):
            if stable and b != nb and self.quorum(pmask, b):
                continue
            for name, delta in head_promises[b]:
                out.append((name, st + delta))
        for b in range(newest, nb + 1):
            if (not st & accept_field[b] and nb < self.next_own[b]
                    and self.quorum(pmask, b)):
                code = 1 if stable else self.accept_value(st, b)
                out.append((self.accept_names[b], st | code << self.accept_shift[b]))
        for b in range(newest, nb + 1):
            if st & accept_field[b]:
                for name, bit, delta in head_votes[b]:
                    if not st & bit:
                        out.append((name, st + delta))
        for v, b in chosen.items():
            for learner, bit in zip(self.learners, self.learn_bits[v]):
                if not st & bit:
                    out.append((("learn", learner, b, v), st | bit))
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


def explore(config: SystemConfig, stable_start: int,
            max_states: int = 5_000_000) -> CheckRun:
    """Breadth-first exploration of every behavior under the stable-start
    discipline; the stable duration length is the latest tick at which the
    first same-round quorum of votes can appear.

    The "stable" kernel holds the whole discipline, so `explore` runs on
    `_search` and only reads the states it visits: the tick of each one
    with a chosen value, and a state with no move and no chosen value,
    which raises NoConsensusPath.  Every behavior is finite and ends in
    one of the two, so a search that ends has found a consensus: each move
    starts one round of a finite pool or sets one clear bit, and elections
    stop after ``stable_start``.  The state budget is the only limit.

    The length never falls as ``stable_start`` grows, since a later start
    only adds elections.  Once it is at most ``stable_start + 1``, no
    undecided state lies at tick ``stable_start + 1``, where a later start
    would add one, so the length stays constant from there: (1,3) 13,
    (2,3) 19, (3,2) 21, (1,7) 25 and (2,5) 28.
    """
    if stable_start < 0:
        raise ValueError("stable_start must be non-negative")
    t0 = time.perf_counter()
    k = _Kernel(config, "stable", stable_start)
    length = 0

    def visit(st, chosen, moves, _at) -> bool:
        nonlocal length
        if chosen:   # the search visits the latest consensus last
            length = k.tick(st)
        elif not moves:
            raise NoConsensusPath(f"stuck without consensus at tick {k.tick(st)}")
        return False

    trail = _Trail(k)
    generated, distinct = _search(trail, visit, max_states)
    return CheckRun(
        config=config,
        stable_start=stable_start,
        stable_length=length,
        states_generated=generated,
        distinct_states=distinct,
        elapsed_seconds=time.perf_counter() - t0,
        orbits=len(trail.parent),
    )


# ---------------------------------------------------------------------------
# the breadth-first search all three share

class _Trail:
    """Every state's search path, indexed by discovery order, the initial
    state at 0: two columns, the index of the state's parent and the
    position of the state's move in its parent's `moves`.  A path is
    spelled by walking the parents back to 0 and replaying the moves
    forward from the initial state."""

    def __init__(self, k: _Kernel):
        self.kernel = k
        self.parent = array("I", [0])
        self.pick = array("I", [0])

    def names(self, at: int) -> list:
        """The move names on the path to the state discovered at ``at``."""
        picks = []
        while at:
            picks.append(self.pick[at])
            at = self.parent[at]
        k, st, names = self.kernel, self.kernel.initial, []
        for pick in reversed(picks):
            name, st = k.moves(st, k.chosen(st))[pick]
            st = k.canon(st)[0]
            names.append(name)
        return names


def _search(trail: _Trail, visit, max_states: int):
    """Breadth-first search over the trail's kernel's `moves`, visiting
    one representative per acceptor-symmetry orbit (`_Kernel.canon`) with
    its chosen values, its moves and its discovery index, under which the
    trail records its path; `visit` returns True to end the search.
    Returns (states generated, distinct states), counted over the whole
    orbits; the first new state past ``max_states`` raises BudgetExceeded.

    Every move adds one unit to the state (a round, a promise, an accepted
    entry, a vote or a learned bit), so all paths to a state have the same
    length: a `seen` set per level visits the states in the order a global
    one would, and each level is dropped once the next one is built.  A
    level's discovery indices are contiguous, from `start`.
    """
    k = trail.kernel
    canon, symmetric = k.canon, k.symmetric
    parent, pick = trail.parent.append, trail.pick.append
    level, start = {k.initial: 1}, 0   # representative -> orbit size
    generated, distinct = 0, 1   # the initial state counts as distinct
    while level:
        seen = {}
        for at, (st, weight) in enumerate(level.items(), start):
            chosen = k.chosen(st)
            moves = k.moves(st, chosen)
            if visit(st, chosen, moves, at):
                return generated, distinct
            generated += weight * len(moves)
            for position, (name, s) in enumerate(moves):
                w = weight   # other moves keep a representative canonical
                if symmetric and name[0] in ("promise", "vote"):
                    s, w = canon(s)
                if s in seen:
                    continue
                if distinct + w > max_states:
                    raise BudgetExceeded(max_states)
                seen[s] = w
                distinct += w
                parent(at)
                pick(position)
        start += len(level)
        level = seen
    return generated, distinct


# ---------------------------------------------------------------------------
# exhaustive safety scan

@dataclass(frozen=True)
class SafetyReport:
    config: SystemConfig
    distinct_states: int
    states_generated: int
    violations: tuple
    #: the acceptor-symmetry orbits the scan visited one representative of
    orbits: int = 0


def safety_scan(config: SystemConfig, max_states: int = 2_000_000) -> SafetyReport:
    """Exhaustively explore the protocol state space (election timing
    unconstrained, promises/accepts/votes under plain Paxos rules) and check
    on every state that at most one value gathers a same-round vote quorum
    per slot.  Learned values need no check: a value is learned only once a
    quorum has voted for it, and votes and accepted values are never
    withdrawn.

    A violation is listed once per state of its orbit, the orbits in the
    order the scan visits their representatives.  A scan of every state
    lists the same texts as often; it lists them in the same order while
    they are all alike, as they are with two values, but may interleave
    unlike texts (three values) otherwise."""
    violations = []
    k = _Kernel(config, "scan")

    def visit(st, chosen, _moves, _at) -> bool:
        if len(chosen) > 1:   # once for each state of the orbit
            violations.extend([f"values {sorted(chosen)} each gathered a vote quorum"]
                              * k.canon(st)[1])
        return False

    trail = _Trail(k)
    generated, distinct = _search(trail, visit, max_states)
    return SafetyReport(config, distinct, generated, tuple(violations),
                        len(trail.parent))


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


def _realize(config: SystemConfig, kernel: _Kernel, names, drop_rest: bool,
             crash_set) -> list:
    """Replay a path of kernel move names through the machine and close it.

    Promise and vote steps carry their own receipt tick; an accept first
    receives every promise reply its round has had, a learn first receives
    the matching vote reports.  At the end every leftover message is
    received (or dropped, for a Raw-link search), the owing processes
    crash, and the trace stutters forever.  Every step is checked by the
    machine: a promise or vote it does not enable raises CheckerError, and
    an election, accept or learn it refuses raises ActionNotEnabled.
    """
    drv = Driver(config)

    def receive(kind, cls, rnd, receiver, sender=None) -> bool:
        return drv.take_first(lambda act: isinstance(act, cls)
                              and act.msg.kind == kind and act.msg.round == rnd
                              and act.msg.receiver == receiver
                              and sender in (None, act.msg.sender))

    for name in names:
        if name[0] == "elect":
            drv.take(mc.StartLeaderElection(kernel.owner[name[1]]))
        elif name[0] == "promise":
            _op, a, b = name
            if not receive("1a", mc.AcceptorPromise, kernel.rounds[b - 1],
                           config.acceptors[a]):
                raise CheckerError(f"the machine does not enable {name}")
        elif name[0] == "accept":
            b = name[1]
            p = kernel.owner[b]
            rnd = kernel.rounds[b - 1]
            for a_name in config.acceptors:
                receive("1b", mc.DeliverMessage, rnd, p, a_name)
            drv.take(mc.ProposerSendAccept(p))
        elif name[0] == "vote":
            _op, a, b = name
            if not receive("2a", mc.AcceptorVote, kernel.rounds[b - 1],
                           config.acceptors[a]):
                raise CheckerError(f"the machine does not enable {name}")
        elif name[0] == "learn":
            _op, p, b, value = name
            rnd = kernel.rounds[b - 1]
            for a_name in config.acceptors:
                receive("2b", mc.DeliverMessage, rnd, p, a_name)
            drv.take(mc.Learn(p, rnd, value))

    if drop_rest:
        drv.drop_all_pending()
    else:
        # no acceptor owes a reply, so every receipt left is a plain one
        drv.deliver_promptly()
        for p in sorted(crash_set):
            drv.crash(p)
    return drv.states


def _crashes_admissible(kernel: _Kernel, server: str, state, crash) -> bool:
    """Exact precheck: would a cycle with `crash` down forever already
    defeat the server assumption?  The crashed set never recovers and only
    the top round's owner is ever flagged primary.

    Only Alw, Alw-Q, Q-Alw, P-Alw-Q and PQ-Alw are decided by the cycle
    alone.  PQ-Dur and PQ-Extra-Dur need one stable window, which the
    closure's prefix may supply, so their closures are always realized and
    re-checked."""
    if not crash or server in ("PQ-Dur", "PQ-Extra-Dur"):
        return True
    if server == "Alw":
        return False
    alive = set(kernel.config.acceptors) - crash
    if not any(q <= alive for q in kernel.config.quorums):
        return False
    if server in ("P-Alw-Q", "PQ-Alw"):
        nb = state & kernel.round_mask
        claimant = kernel.owner[nb] if nb else None
        if claimant in crash:
            return False
    return True


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
    k = _Kernel(config, "owned")

    def violation_plausible(state, chosen) -> bool:
        """Cheap necessary condition for the assertion to fail on the
        realized stutter-lasso, read off the kernel state."""
        name = assertion.name
        if name == "Each-Vote":
            return not chosen
        if name == "Some-Learn":
            return not state >> k.learn_at
        return True

    trail = _Trail(k)
    explored = 0
    found = None

    def visit(state, chosen, moves, at) -> bool:
        """Try to close the path to `state` into a counterexample."""
        nonlocal explored, found
        explored += 1
        if not state & k.round_mask or not violation_plausible(state, chosen):
            return False  # unstarted (not adversarial) or cannot fail the assertion
        acceptors_owing, proposers_owing = k.owing_processes(moves)
        if raw_link:
            crash = set()
        else:
            if acceptors_owing:
                return False  # their pending messages could never be received
            crash = proposers_owing
        if not _crashes_admissible(k, server.name, state, crash):
            return False
        states = _realize(config, k, trail.names(at), raw_link, crash)
        trace = mc.trace_of(states, loop_start=len(states) - 1)
        if not eval_expr(assertion_expr, trace).is_violated:
            return False
        if not eval_expr(server_expr, trace).is_holds:
            return False
        if link_expr is not None and not eval_expr(link_expr, trace).is_holds:
            return False
        found = trace
        return True

    try:
        _search(trail, visit, max_states)
    except BudgetExceeded:
        return LassoCheckResult("undetermined", None, explored, bound=max_states)
    if found is not None:
        return LassoCheckResult("counterexample", found, explored)
    return LassoCheckResult("holds", None, explored)
