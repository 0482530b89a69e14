"""Time, traces, the property AST, and three-valued temporal evaluation.

A trace is a tick-indexed sequence of observation snapshots.  A lasso trace
designates a suffix of its states as a cycle that repeats forever, which
makes ``alw``/``evt`` style properties decidable exactly.  Finite traces
without a cycle get three-valued verdicts: a prefix that neither witnesses
nor refutes a property yields ``Undetermined``.

Properties are compiled once and the compiled programs are cached.
Evaluation is purely functional over immutable traces and is safe to call
concurrently.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Union, get_args


class TemporalError(Exception):
    pass


class UnboundVariable(TemporalError):
    pass


class DomainUnknown(TemporalError):
    pass


class TimeOutOfRange(TemporalError):
    pass


class TraceInconsistent(ValueError):
    """States that do not form a trace; ``tick`` is the first state at
    fault, None where no one state is."""

    def __init__(self, message: str, tick: Optional[int] = None):
        super().__init__(message)
        self.tick = tick


class LassoInconsistent(TemporalError, TraceInconsistent):
    pass


# ---------------------------------------------------------------------------
# time terms and intervals

Tick = int


@dataclass(frozen=True)
class TLit:
    value: int


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TNow:
    pass


@dataclass(frozen=True)
class TPlus:
    base: "TimeTerm"
    offset: int


TimeTerm = Union[TLit, TVar, TNow, TPlus]


def tplus(base: TimeTerm, offset: int) -> TimeTerm:
    if offset == 0:
        return base
    if isinstance(base, TLit):
        return TLit(base.value + offset)
    if isinstance(base, TPlus):
        return TPlus(base.base, base.offset + offset)
    return TPlus(base, offset)


def _is_literal_time(term: TimeTerm) -> bool:
    if isinstance(term, TLit):
        return True
    if isinstance(term, TPlus):
        return _is_literal_time(term.base)
    return False


def _subst_now(term: TimeTerm, repl: TimeTerm) -> TimeTerm:
    if isinstance(term, TNow):
        return repl
    if isinstance(term, TPlus):
        return tplus(_subst_now(term.base, repl), term.offset)
    return term


@dataclass(frozen=True)
class Interval:
    """Time interval with the usual closed/open endpoint notation.

    ``hi is None`` encodes an unbounded (and therefore open) upper end.
    """

    lo: TimeTerm
    hi: Optional[TimeTerm]
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        if self.hi is None and self.hi_closed:
            raise ValueError("an unbounded interval must be open above")

    def subst_now(self, repl: TimeTerm) -> "Interval":
        hi = None if self.hi is None else _subst_now(self.hi, repl)
        return Interval(_subst_now(self.lo, repl), hi, self.lo_closed, self.hi_closed)


def closed(lo: TimeTerm, hi: TimeTerm) -> Interval:
    return Interval(lo, hi, True, True)


def unbounded(lo: TimeTerm) -> Interval:
    return Interval(lo, None, True, False)


# ---------------------------------------------------------------------------
# observation snapshots and traces

_HISTORY_FIELDS = (
    "sent",
    "received",
    "voted",
    "learned",
    "executed",
    "requested",
    "responded",
)


_histories = attrgetter(*_HISTORY_FIELDS)


@dataclass(frozen=True)
class ObservationState:
    """One snapshot of everything the property language can observe.

    The seven history sets are cumulative; ``nf_procs``, ``primaries``
    and ``roster`` are per-tick.

    sent/received hold (sender, message, receiver) and
    (receiver, message, sender) triples.  voted holds
    (server, round, slot, value); learned/executed hold
    (server, slot, value); requested (client, value); responded
    (client, value, result).
    """

    nf_procs: frozenset = frozenset()
    primaries: frozenset = frozenset()
    roster: frozenset = frozenset()
    sent: frozenset = frozenset()
    received: frozenset = frozenset()
    voted: frozenset = frozenset()
    learned: frozenset = frozenset()
    executed: frozenset = frozenset()
    requested: frozenset = frozenset()
    responded: frozenset = frozenset()

    def histories(self) -> tuple:
        return _histories(self)


class Trace:
    """Tick-indexed observation sequence, optionally lasso-shaped.

    ``loop_start`` designates the first state of a cycle running to the end
    of ``states``; the infinite behavior repeats that cycle forever.  The
    cumulative history sets must be identical at ``loop_start`` and at the
    final state, otherwise the wrap-around would shrink a monotone set.
    """

    __slots__ = ("states", "loop_start", "config")

    def __init__(self, states: Iterable[ObservationState], config, loop_start: Optional[int] = None):
        self.states = tuple(states)
        self.config = config
        self.loop_start = loop_start
        if not self.states:
            raise TraceInconsistent("a trace needs at least one state")
        histories = [st.histories() for st in self.states]
        for t in range(1, len(histories)):
            for name, before, after in zip(_HISTORY_FIELDS, histories[t - 1], histories[t]):
                if before is not after and not before <= after:
                    raise TraceInconsistent(f"history field {name} is not monotone", t)
        for t, st in enumerate(self.states):
            flipped = {(s, m, r) for (r, m, s) in st.received}
            if not flipped <= st.sent:
                raise TraceInconsistent("a message was received that was never sent", t)
        if loop_start is not None:
            if not 0 <= loop_start < len(self.states):
                raise LassoInconsistent("loop_start out of range")
            if histories[loop_start] != histories[-1]:
                grown = next(t for t in range(loop_start + 1, len(histories))
                             if histories[t] != histories[loop_start])
                raise LassoInconsistent(
                    "cumulative histories differ between loop start and trace end", grown
                )

    def __len__(self) -> int:
        return len(self.states)

    @property
    def period(self) -> Optional[int]:
        if self.loop_start is None:
            return None
        # the cycle is states[loop_start:], repeated forever
        return len(self.states) - self.loop_start

    def state_at(self, t: int) -> Optional[ObservationState]:
        if t < 0:
            raise TimeOutOfRange(f"tick {t} is negative")
        if t < len(self.states):
            return self.states[t]
        if self.loop_start is None:
            return None
        lam, p = self.loop_start, self.period
        return self.states[lam + (t - lam) % p]

    def unrolled(self, extra_cycles: int = 2) -> "Trace":
        """Finite unrolling of a lasso: prefix plus `extra_cycles` more cycles."""
        if self.loop_start is None:
            return self
        lam = self.loop_start
        states = list(self.states)
        for _ in range(extra_cycles):
            states.extend(self.states[lam:])
        return Trace(states, self.config, loop_start=None)

    def stuttered(self) -> "Trace":
        """Close a finite trace into a lasso whose cycle stutters the last state."""
        if self.loop_start is not None:
            return self
        return Trace(self.states, self.config, loop_start=len(self.states) - 1)


# ---------------------------------------------------------------------------
# the property AST

@dataclass(frozen=True)
class TrueE:
    pass


@dataclass(frozen=True)
class FalseE:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: object


Term = Union[Var, Const]


@dataclass(frozen=True)
class Atom:
    """Observation predicate; ``ATOM_FORMS`` lists every (name, arity)."""

    name: str
    args: tuple


class AtomForm(NamedTuple):
    written: str   # concrete syntax, ``{k}`` standing for argument k
    column: str    # the per-tick state column the atom looks up
    key: tuple     # the argument positions forming the lookup key


#: (atom name, arity) -> how the atom is written and evaluated; an arity
#: picks the single- or multi-value form.  res(v) is the deterministic
#: result of executing v, and traces record it as the value itself.
ATOM_FORMS = {
    ("nf", 1): AtomForm("{0}.nf", "nf_procs", (0,)),
    ("is_primary", 1): AtomForm("{0}.is_primary", "primaries", (0,)),
    ("sent", 3): AtomForm("{0}.sent {1} to {2}", "sent", (0, 1, 2)),
    ("received", 3): AtomForm("{0}.received {1} from {2}", "received", (0, 1, 2)),
    ("voted", 3): AtomForm("{0}.voted ({1},{2})", "voted3", (0, 1, 2)),
    ("voted", 4): AtomForm("{0}.voted ({1},{2},{3})", "voted", (0, 1, 2, 3)),
    ("learned", 2): AtomForm("{0}.learned ({1})", "learned2", (0, 1)),
    ("learned", 3): AtomForm("{0}.learned ({1},{2})", "learned", (0, 1, 2)),
    ("executed", 2): AtomForm("{0}.executed ({1})", "executed2", (0, 1)),
    ("executed", 3): AtomForm("{0}.executed ({1},{2})", "executed", (0, 1, 2)),
    ("sent_req", 2): AtomForm("{0}.sent ('req',{1})", "requested", (0, 1)),
    ("received_resp", 2): AtomForm("{0}.received ('resp',{1})", "responded2", (0, 1)),
    ("received_resp_res", 2):
        AtomForm("{0}.received ('resp',{1},res({1}))", "responded", (0, 1, 1)),
}


@dataclass(frozen=True)
class Not:
    body: "PropertyExpr"


@dataclass(frozen=True)
class And:
    left: "PropertyExpr"
    right: "PropertyExpr"


@dataclass(frozen=True)
class Or:
    left: "PropertyExpr"
    right: "PropertyExpr"


@dataclass(frozen=True)
class Implies:
    left: "PropertyExpr"
    right: "PropertyExpr"


# quantifier domains
@dataclass(frozen=True)
class NamedDomain:
    """clients / quorums / values / rounds are snapshotted from the config;
    servers is read from the per-tick roster (at `at` if given, else now)."""

    name: str
    at: Optional[TimeTerm] = None


@dataclass(frozen=True)
class SlotRange:
    n: int


@dataclass(frozen=True)
class MemberDomain:
    """Members of a set-valued bound variable (a quorum, usually)."""

    var: str


@dataclass(frozen=True)
class TickDomain:
    interval: Interval


Domain = Union[NamedDomain, SlotRange, MemberDomain, TickDomain]


@dataclass(frozen=True)
class Each:
    var: str
    domain: Domain
    body: "PropertyExpr"


@dataclass(frozen=True)
class Some:
    var: str
    domain: Domain
    body: "PropertyExpr"


@dataclass(frozen=True)
class EachSent:
    """Universal quantification over send events `p1.sent m to p2`.

    Binds the three variables and evaluates the body at the send tick.
    ``time_var`` optionally also binds that tick (used by normalize_at).
    """

    sender: str
    message: str
    receiver: str
    body: "PropertyExpr"
    time_var: Optional[str] = None


@dataclass(frozen=True)
class SomeSent:
    sender: str
    message: str
    receiver: str
    body: "PropertyExpr"
    time_var: Optional[str] = None


@dataclass(frozen=True)
class Alw:
    body: "PropertyExpr"


@dataclass(frozen=True)
class Evt:
    body: "PropertyExpr"


@dataclass(frozen=True)
class During:
    body: "PropertyExpr"
    interval: Interval


@dataclass(frozen=True)
class Lasts:
    body: "PropertyExpr"
    duration: int


@dataclass(frozen=True)
class After:
    body: "PropertyExpr"
    duration: int


@dataclass(frozen=True)
class At:
    body: "PropertyExpr"
    time: TimeTerm


@dataclass(frozen=True)
class ServersSet:
    """The roster as a set term, for `servers nf`."""


@dataclass(frozen=True)
class NfSet:
    """`ps nf`: every process in the set is non-faulty."""

    target: Union[Var, ServersSet]


@dataclass(frozen=True)
class ServersEq:
    """`servers at t1 = servers at t2` (roster unchanged)."""

    t1: TimeTerm
    t2: TimeTerm


PropertyExpr = Union[
    TrueE, FalseE, Atom, Not, And, Or, Implies,
    Each, Some, EachSent, SomeSent,
    Alw, Evt, During, Lasts, After, At,
    NfSet, ServersEq,
]
#: every property node class, for code that walks any expression
NODE_TYPES = get_args(PropertyExpr)


# ---------------------------------------------------------------------------
# verdicts

HOLDS = "holds"
VIOLATED = "violated"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Verdict:
    status: str
    bound: Optional[int] = None

    @property
    def is_holds(self) -> bool:
        return self.status == HOLDS

    @property
    def is_violated(self) -> bool:
        return self.status == VIOLATED

    @property
    def is_undetermined(self) -> bool:
        return self.status == UNDETERMINED

    def __str__(self) -> str:
        if self.status == UNDETERMINED and self.bound is not None:
            return f"Undetermined(bound={self.bound})"
        return self.status.capitalize()


def holds() -> Verdict:
    return Verdict(HOLDS)


def violated() -> Verdict:
    return Verdict(VIOLATED)


# ---------------------------------------------------------------------------
# compilation
#
# A property is compiled once into a tree of closures ``f(ctx, env, now)``
# that return True, False or None (unknown) under strong Kleene logic.
# Dispatch and scope resolution happen at compile time: every bound
# variable gets a slot in the list ``env``, so a free variable is reported
# before anything is evaluated.  Every other error (an unknown atom or
# domain, a bad time) is raised only when evaluation reaches it, visiting
# subexpressions left to right with the usual short-circuits.  ``ctx`` is
# the `_TraceIndex` of the trace evaluated.
#
# A subexpression without time terms, tick quantifiers or send quantifiers
# also compiles to a mask function ``m(ctx, env)``: on a lasso it returns
# its value at every tick 0 .. size-1 at once, as the bits of a Python int
# (bit t set where it holds at tick t).  Atoms are membership sweeps over
# their column, connectives are bitwise, quantifiers combine the masks of
# their bindings, and alw/evt/lasts/after/during [now+a,now+b] are shifts
# and ands over the periodic extension of the cycle.  On a lasso a window
# whose body has a mask answers from it, one mask per trace and binding of
# the body's free variables; a mask that raises, or an unhashable binding,
# leaves the closures to answer, so errors surface exactly where they
# reach.

class _TraceIndex:
    """Everything evaluation derives from one trace, each part computed when
    first asked for: the state columns over the states extended by one
    cycle, keyed by name (`_COLUMNS`); the config domains, and under
    "servers" every server on some roster, sorted; and the masks, of atoms
    keyed (column, key) and of window bodies keyed by mask function and
    binding.  Each part is a pure function of the trace, so threads that
    fill the same entry at once store equal values and need no lock."""

    __slots__ = ("trace", "states", "loop", "config", "n", "period", "size", "full",
                 "cols", "domains", "masks")

    def __init__(self, trace: Trace):
        self.trace = trace
        self.states = states = trace.states
        self.loop = loop = trace.loop_start
        self.config = trace.config
        extended = states if loop is None else states + states[loop:]
        self.n = len(states)
        self.period = trace.period
        self.size = len(extended)
        self.full = (1 << self.size) - 1
        self.cols = _Columns(extended)
        self.domains: dict = {}
        self.masks: dict = {}

    def wrap(self, t: int):
        """Column index of tick t >= size; None past the end of a finite trace."""
        if self.loop is None:
            return None
        return self.loop + (t - self.loop) % self.period

    def index(self, t: int):
        """Column index of any tick; a negative one is out of range."""
        if t < 0:
            raise TimeOutOfRange(f"tick {t} is negative")
        return t if t < self.size else self.wrap(t)

    def at(self, name: str, t: int):
        """Column ``name`` at tick t >= 0; None past the end of a finite trace."""
        if t >= self.size:
            t = self.wrap(t)
            if t is None:
                return None
        return self.cols[name][t]

    def positions(self, lo: int, hi: Optional[int]):
        """Ticks to enumerate for [lo, hi] plus whether an unknown tail remains.

        On a lasso, values of any forward-looking subexpression repeat with
        the cycle period once past the loop start, so ticks up to
        ``max(lo, loop_start) + period - 1`` cover every distinct suffix.
        """
        lo = max(lo, 0)
        if self.loop is not None:
            top = max(lo, self.loop) + self.period - 1
            if hi is not None and hi < top:
                top = hi
            return range(lo, top + 1), False
        last = self.n - 1
        if hi is None or hi > last:
            return range(lo, last + 1), True
        return range(lo, hi + 1), False


class _Columns(dict):
    """State columns by name, one entry per extended state, each built on
    its first read."""

    def __init__(self, states: tuple):
        super().__init__()
        self.states = states

    def __missing__(self, name: str) -> list:
        col = self[name] = _COLUMNS[name](self.states)
        return col


#: the index of the last trace evaluated: the properties checked one after
#: another on a trace share it, and the next trace replaces it
_last_index: Optional[_TraceIndex] = None


def _index_of(trace: Trace) -> _TraceIndex:
    global _last_index
    index = _last_index
    if (index is None or index.trace is not trace or index.states is not trace.states
            or index.loop != trace.loop_start or index.config is not trace.config):
        index = _last_index = _TraceIndex(trace)
    return index


def _field(name):
    get = attrgetter(name)
    return lambda states: [get(st) for st in states]


def _projection(name, pick):
    """Per state, the history set ``name`` with each tuple cut by ``pick``."""
    def column(states):
        seen = {}
        out = []
        for st in states:
            full = getattr(st, name)
            part = seen.get(full)
            if part is None:
                part = seen[full] = frozenset(map(pick, full))
            out.append(part)
        return out
    return column


def _sorted_rosters(states):
    seen = {}
    out = []
    for st in states:
        roster = seen.get(st.roster)
        if roster is None:
            roster = seen[st.roster] = tuple(sorted(st.roster))
        out.append(roster)
    return out


def _send_events(states):
    """All (sender, message, receiver, first-send tick) tuples, sorted."""
    seen = {}
    for t, st in enumerate(states):
        for triple in st.sent:
            if triple not in seen:
                seen[triple] = t
    events = [(s, m, r, t) for (s, m, r), t in seen.items()]
    try:
        return sorted(events)
    except TypeError:                 # messages of kinds that do not compare
        return sorted(events, key=repr)


#: name -> its column over a list of states; "send_events" is not per tick
_COLUMNS = {
    **{name: _field(name) for name in ("nf_procs", "primaries", "roster") + _HISTORY_FIELDS},
    "voted3": _projection("voted", itemgetter(0, 1, 3)),
    "learned2": _projection("learned", itemgetter(0, 2)),
    "executed2": _projection("executed", itemgetter(0, 2)),
    "responded2": _projection("responded", itemgetter(0, 1)),
    "servers": _sorted_rosters,
    "servers_nf": lambda states: [st.nf_procs.issuperset(st.roster) for st in states],
    "send_events": _send_events,
}

def _config_values(config, name: str) -> list:
    try:
        values = getattr(config, name)
    except AttributeError:
        raise DomainUnknown(f"domain {name!r} is not in the config")
    if name == "quorums":
        return sorted(values, key=sorted)
    return list(values)


def _true(ctx, env, now):
    return True


def _false(ctx, env, now):
    return False


def _fail(exc_type, message):
    def fail(*_args):
        raise exc_type(message)
    return fail


def _negation(body):
    def negation(ctx, env, now):
        v = body(ctx, env, now)
        return None if v is None else not v
    return negation


def _junction(left, right, decisive):
    """and (decisive False) or or (decisive True), left operand first."""
    other = not decisive

    def junction(ctx, env, now):
        a = left(ctx, env, now)
        if a is decisive:
            return decisive
        b = right(ctx, env, now)
        if b is decisive:
            return decisive
        return None if a is None or b is None else other
    return junction


def _quantifier(members, slot, body, universal):
    """``slot`` None: the body never reads the variable, so it has one
    value for every member, and is evaluated once, if there is a member."""
    if slot is None:
        def constant(ctx, env, now):
            values = members(ctx, env, now)
            if values is None:
                return None
            return body(ctx, env, now) if values else universal
        return constant

    def quantifier(ctx, env, now):
        values = members(ctx, env, now)
        if values is None:
            return None
        result = universal
        for value in values:
            env[slot] = value
            v = body(ctx, env, now)
            if v is None:
                result = None
            elif v is not universal:
                return v
        return result
    return quantifier


#: the slot of a tick quantifier whose body never reads its tick
_UNREAD = -1


def _window(bounds, body, universal=True, slot=None, body_mask=None):
    """A loop over the ticks in ``bounds``: moving ``now`` (alw, evt,
    during, lasts, after) or binding ``slot`` (tick quantifiers).  On a
    lasso, ``body_mask`` answers the whole loop from the body's mask.
    ``slot`` `_UNREAD`: the body has one value at every tick, so it is
    evaluated once, if there is a tick, as in `_quantifier`."""
    if slot == _UNREAD:
        def constant(ctx, env, now):
            positions, tail = ctx.positions(*bounds(env, now))
            v = body(ctx, env, now) if positions else universal
            if v is not universal:
                return v
            return None if tail else universal
        return constant

    def window(ctx, env, now):
        lo, hi = bounds(env, now)
        if body_mask is not None and ctx.loop is not None:
            m = body_mask(ctx, env)
            if m is not None:
                return _window_test(ctx, m, lo, hi, universal)
        positions, tail = ctx.positions(lo, hi)
        result = universal
        for t in positions:
            if slot is None:
                v = body(ctx, env, t)
            else:
                env[slot] = t
                v = body(ctx, env, now)
            if v is None:
                result = None
            elif v is not universal:
                return v
        return None if tail else result
    return window


def _from_now(env, now):
    return now, None


_UNSEEN = object()


# -- lasso masks: bit t of a mask is the value at tick t, for t < ctx.size;
# the bits of ticks n .. size-1 repeat those of the cycle

def _membership(ctx, name: str, key) -> int:
    """Where ``key`` is in the column ``name``, cached per trace; a tick
    that holds the same object as the tick before keeps its bit."""
    m = ctx.masks.get((name, key))
    if m is None:
        m = 0
        last, found = _UNSEEN, False
        for t, members in enumerate(ctx.cols[name]):
            if members is not last:
                last, found = members, key in members
            if found:
                m |= 1 << t
        ctx.masks[(name, key)] = m
    return m


def _truth(ctx, name: str) -> int:
    """Where the boolean column ``name`` is true, cached per trace."""
    m = ctx.masks.get(name)
    if m is None:
        m = 0
        for t, flag in enumerate(ctx.cols[name]):
            if flag:
                m |= 1 << t
        ctx.masks[name] = m
    return m


def _extend(ctx, m: int, length: int) -> int:
    """``m`` continued with the cycle up to ``length`` bits."""
    if length <= ctx.size:
        return m
    cycle = (m >> ctx.loop) & ((1 << ctx.period) - 1)
    for t in range(ctx.size, length, ctx.period):
        m |= cycle << t
    return m


def _always(ctx, m: int) -> int:
    """alw: nowhere if a tick of the cycle fails, else at every tick past
    the last prefix tick that fails (Markey & Schnoebelen, *Model Checking
    a Path*, 2003)."""
    cycle = (1 << ctx.period) - 1
    if (m >> ctx.loop) & cycle != cycle:
        return 0
    last_gap = (~m & ((1 << ctx.loop) - 1)).bit_length()
    return ctx.full >> last_gap << last_gap


def _lasting(ctx, m: int, d: int) -> int:
    """lasts d: ands of d+1 consecutive ticks, by doubling.  A window
    longer than the trace covers its cycle from every tick already."""
    d = min(d, ctx.n - 1)
    m = _extend(ctx, m, ctx.size + d)
    width = 1
    while width <= d:
        step = min(width, d + 1 - width)
        m &= m >> step
        width += step
    return m & ctx.full


def _shifted(ctx, m: int, s: int) -> int:
    """The mask whose tick t reads tick t+s of ``m``."""
    if s >= ctx.loop:
        s = ctx.loop + (s - ctx.loop) % ctx.period
    return (_extend(ctx, m, ctx.size + s) >> s) & ctx.full


def _eventually(ctx, m: int) -> int:
    """evt: everywhere if a tick of the cycle holds, else at every tick up
    to the last prefix tick that holds."""
    if (m >> ctx.loop) & ((1 << ctx.period) - 1):
        return ctx.full
    return (1 << (m & ((1 << ctx.loop) - 1)).bit_length()) - 1


def _window_mask(body, lo: int, hi: Optional[int], universal: bool):
    """The mask function of a window over [now+lo, now+hi] (hi None:
    unbounded), 0 <= lo, whose body has the mask function ``body``."""
    if not universal:                 # evt, the one existential window
        return lambda ctx, env: _eventually(ctx, body(ctx, env))
    if hi is None and not lo:
        return lambda ctx, env: _always(ctx, body(ctx, env))
    if hi is not None and hi < lo:    # no tick: the body is never reached
        return _all_ticks

    def window(ctx, env):
        m = body(ctx, env)
        m = _always(ctx, m) if hi is None else _lasting(ctx, m, hi - lo)
        return _shifted(ctx, m, lo) if lo else m
    return window


def _window_test(ctx, m: int, lo: int, hi: Optional[int], universal: bool) -> bool:
    """What the loop over `_TraceIndex.positions` (lo, hi) answers on a lasso
    for a body whose mask is ``m``: the same ticks, read off the bits once
    ``lo`` is moved back a whole number of cycles into the mask."""
    if lo >= ctx.n:
        back = lo - ctx.wrap(lo)
        lo -= back
        if hi is not None:
            hi -= back
    ticks, _tail = ctx.positions(lo, hi)
    ones = (1 << len(ticks)) - 1
    bits = (m >> ticks.start) & ones
    return bits == ones if universal else bits != 0


def _body_mask(free, mask):
    """The mask of a window body for the binding of its ``free`` slots,
    built once per trace and kept in ``ctx.masks`` under the mask function
    and the binding; None where the closures must answer instead."""
    binding = itemgetter(*free) if free else None

    def body_mask(ctx, env):
        key = mask if binding is None else (mask, binding(env))
        try:
            m = ctx.masks.get(key, _UNSEEN)
        except TypeError:             # an unhashable binding
            return None
        if m is _UNSEEN:
            try:
                m = mask(ctx, env)
            except Exception:         # raised again where the closures reach it
                m = None
            ctx.masks[key] = m
        return m
    return body_mask


def _all_ticks(ctx, env):
    return ctx.full


def _no_tick(ctx, env):
    return 0


def _complement(mask):
    return lambda ctx, env: ctx.full ^ mask(ctx, env)


def _junction_mask(left, right, decisive):
    """and (decisive False) or or (decisive True).  The right operand is
    skipped where the left one decides every tick, as the closures skip it."""
    def junction(ctx, env):
        a = left(ctx, env)
        if a == (ctx.full if decisive else 0):
            return a
        return a | right(ctx, env) if decisive else a & right(ctx, env)
    return junction


def _quantifier_mask(members, slot, body, universal):
    """Over a domain that does not change with the tick.  The loop stops
    where the bindings so far decide every tick: the closures, taking the
    values in the same order, never reach the rest.  ``slot`` None: the
    body never reads the variable and answers once, as in `_quantifier`."""
    if slot is None:
        def constant(ctx, env):
            if members(ctx, env, 0):
                return body(ctx, env)
            return ctx.full if universal else 0
        return constant

    def quantifier(ctx, env):
        decided = 0 if universal else ctx.full
        m = ctx.full ^ decided
        for value in members(ctx, env, 0):
            env[slot] = value
            m = m & body(ctx, env) if universal else m | body(ctx, env)
            if m == decided:
                break
        return m
    return quantifier


def _servers_mask(slot, body, universal):
    """Over the roster: each server counts at the ticks it is on it.  The
    servers of every roster are taken in sorted order, so the loop may stop
    where those so far decide every tick, as `_quantifier_mask` does.
    ``slot`` None: the body never reads the variable, so it answers once
    at the ticks whose roster is not empty (a roster is true where it has
    a server), and `each` holds at the others."""
    if slot is None:
        def constant(ctx, env):
            staffed = _truth(ctx, "servers")
            if not staffed:
                return ctx.full if universal else 0
            m = body(ctx, env)
            return m | ctx.full ^ staffed if universal else m & staffed
        return constant

    def quantifier(ctx, env):
        servers = ctx.domains.get("servers")
        if servers is None:
            servers = ctx.domains["servers"] = sorted(frozenset().union(*ctx.cols["servers"]))
        full = ctx.full
        decided = 0 if universal else full
        m = full ^ decided
        for value in servers:
            env[slot] = value
            on = _membership(ctx, "servers", value)
            if universal:
                m &= (full ^ on) | body(ctx, env)
            else:
                m |= on & body(ctx, env)
            if m == decided:
                break
        return m
    return quantifier


def _now_offsets(ivl: Interval):
    """(lo, hi) of an interval [now+lo, now+hi] (hi None: unbounded) with
    0 <= lo, as inclusive offsets; None for any other interval."""
    def offset(term):
        if isinstance(term, TNow):
            return 0
        if isinstance(term, TPlus) and isinstance(term.base, TNow):
            return term.offset
        return None

    lo = offset(ivl.lo)
    if lo is None:
        return None
    lo += 0 if ivl.lo_closed else 1
    if ivl.hi is None:
        return (lo, None) if lo >= 0 else None
    hi = offset(ivl.hi)
    if hi is None or lo < 0:
        return None
    return lo, hi - (0 if ivl.hi_closed else 1)


class _Program(NamedTuple):
    fn: Callable
    nslots: int


class _Compiler:
    """Compiles one expression into its closure and, where it has one, its
    mask function.  ``uses`` collects the slots the subtree being compiled
    reads, so a window knows the free variables of its body."""

    def __init__(self):
        self.nslots = 0
        self.uses: set = set()

    def program(self, expr: PropertyExpr) -> _Program:
        fn, _mask = self.expr(expr, {}, 0)
        return _Program(fn, self.nslots)

    def expr(self, e, scope: dict, depth: int):
        """(closure, mask function or None) of ``e``."""
        compile_node = _NODES.get(type(e))
        if compile_node is None:
            raise TypeError(f"not a property expression: {e!r}")
        return compile_node(self, e, scope, depth)

    def bind(self, scope: dict, depth: int, names):
        """Fresh slots for ``names``; a repeated name keeps one slot, so
        the last value written to it wins."""
        fresh: dict = {}
        for name in names:
            fresh.setdefault(name, depth + len(fresh))
        depth += len(fresh)
        self.nslots = max(self.nslots, depth)
        return {**scope, **fresh}, [fresh[name] for name in names], depth

    def slot(self, name: str, scope: dict, what: str = "variable") -> int:
        if name not in scope:
            raise UnboundVariable(f"{what} {name!r} is not bound")
        self.uses.add(scope[name])
        return scope[name]

    # -- terms, times and domains: functions of (env, now) or (ctx, env, now)

    def term(self, term, scope: dict, what: str = "variable"):
        if isinstance(term, Var):
            return itemgetter(self.slot(term.name, scope, what))
        if isinstance(term, Const):
            value = term.value
            return lambda env: value
        return _fail(TypeError, f"not a term: {term!r}")

    def time(self, term, scope: dict, offset: int = 0):
        """The tick ``term`` names, plus ``offset``."""
        if isinstance(term, TLit):
            value = term.value
            if not offset:
                return lambda env, now: value
            return lambda env, now: value + offset
        if isinstance(term, TNow):
            return lambda env, now: now + offset
        if isinstance(term, TVar):
            k = self.slot(term.name, scope, "time variable")
            message = f"{term.name!r} is bound to a non-tick value"

            def tick(env, now):
                value = env[k]
                if not isinstance(value, int):
                    raise DomainUnknown(message)
                return value + offset
            return tick
        if isinstance(term, TPlus):
            return self.time(term.base, scope, offset + term.offset)
        return _fail(TypeError, f"not a time term: {term!r}")

    def interval(self, ivl: Interval, scope: dict):
        """Inclusive (lo, hi) bounds: lo + 1 if open, hi - 1 if open, hi
        None if unbounded; `_TraceIndex.positions` clamps lo at 0."""
        lo = self.time(ivl.lo, scope)
        lo_shift = 0 if ivl.lo_closed else 1
        if ivl.hi is None:
            return lambda env, now: (lo(env, now) + lo_shift, None)
        hi = self.time(ivl.hi, scope)
        hi_shift = 0 if ivl.hi_closed else 1
        return lambda env, now: (lo(env, now) + lo_shift, hi(env, now) - hi_shift)

    def domain(self, dom, scope: dict):
        if isinstance(dom, NamedDomain) and dom.name == "servers":
            if dom.at is None:    # None (unknown) past the end of a finite trace
                return lambda ctx, env, now: ctx.at("servers", now)
            at = self.time(dom.at, scope)

            def servers_at(ctx, env, now):
                i = ctx.index(at(env, now))
                return None if i is None else ctx.cols["servers"][i]
            return servers_at
        if isinstance(dom, NamedDomain):
            if dom.at is not None:
                self.time(dom.at, scope)   # scope-checked, otherwise unused
            name = dom.name

            def config_domain(ctx, env, now):
                values = ctx.domains.get(name)
                if values is None:
                    values = ctx.domains[name] = _config_values(ctx.config, name)
                return values
            return config_domain
        if isinstance(dom, SlotRange):
            n = dom.n
            return lambda ctx, env, now: list(range(1, n + 1))
        if isinstance(dom, MemberDomain):
            group = self.term(Var(dom.var), scope, "set variable")
            return lambda ctx, env, now: sorted(group(env))
        return _fail(TypeError, f"not an enumerable domain: {dom!r}")

    # -- property nodes

    def atom(self, e: Atom, scope, depth):
        args = [self.term(a, scope) for a in e.args]
        form = ATOM_FORMS.get((e.name, len(args)))
        if form is None:
            if any(name == e.name for name, _arity in ATOM_FORMS):
                message = f"atom {e.name!r} does not take {len(args)} argument(s)"
            else:
                message = f"unknown atom {e.name!r}"

            def unknown(ctx, env, now):
                if now >= ctx.size and ctx.wrap(now) is None:
                    return None
                raise DomainUnknown(message)
            return unknown, _fail(DomainUnknown, message)
        name = form.column
        picks = form.key
        if all(isinstance(e.args[i], Var) for i in picks):
            key = itemgetter(*(scope[e.args[i].name] for i in picks))
        elif len(picks) == 1:
            key = args[picks[0]]
        else:
            key = lambda env: tuple(args[i](env) for i in picks)   # noqa: E731

        def atom(ctx, env, now):
            members = ctx.at(name, now)
            return None if members is None else key(env) in members

        def atom_mask(ctx, env):
            k = key(env)
            m = ctx.masks.get((name, k))     # the hit, without a call
            return _membership(ctx, name, k) if m is None else m
        return atom, atom_mask

    def not_(self, e: Not, scope, depth):
        fn, mask = self.expr(e.body, scope, depth)
        return _negation(fn), mask and _complement(mask)

    @staticmethod
    def junction(left, right, decisive):
        (f, fm), (g, gm) = left, right
        return _junction(f, g, decisive), fm and gm and _junction_mask(fm, gm, decisive)

    def and_(self, e: And, scope, depth):
        return self.junction(self.expr(e.left, scope, depth), self.expr(e.right, scope, depth),
                             False)

    def or_(self, e: Or, scope, depth):
        return self.junction(self.expr(e.left, scope, depth), self.expr(e.right, scope, depth),
                             True)

    def implies(self, e: Implies, scope, depth):
        # Kleene implication is (not left) or right, evaluated in that order
        return self.junction(self.not_(Not(e.left), scope, depth),
                             self.expr(e.right, scope, depth), True)

    def quantified(self, e, scope, depth):
        universal = isinstance(e, Each)
        dom = e.domain
        if isinstance(dom, TickDomain):
            bounds = self.interval(dom.interval, scope)
        else:
            members = self.domain(dom, scope)
        inner, (k,), depth = self.bind(scope, depth, (e.var,))
        outer, self.uses = self.uses, set()
        body, mask = self.expr(e.body, inner, depth)
        if k not in self.uses:   # evaluated once, not once per member or tick
            k = None
        self.uses |= outer
        if isinstance(dom, TickDomain):
            return _window(bounds, body, universal, _UNREAD if k is None else k), None
        fn = _quantifier(members, k, body, universal)
        roster = isinstance(dom, NamedDomain) and dom.name == "servers"
        if mask is None or roster and dom.at is not None:   # read at another tick
            return fn, None
        if roster:
            return fn, _servers_mask(k, mask, universal)
        return fn, _quantifier_mask(members, k, mask, universal)

    def sent(self, e, scope, depth):
        universal = isinstance(e, EachSent)
        names = (e.sender, e.message, e.receiver) + ((e.time_var,) if e.time_var else ())
        inner, slots, depth = self.bind(scope, depth, names)
        body, _mask = self.expr(e.body, inner, depth)
        s, m, r = slots[:3]
        tick = slots[3] if e.time_var else None

        def sent(ctx, env, now):
            result = universal
            for (sender, message, receiver, t) in ctx.cols["send_events"]:
                env[s], env[m], env[r] = sender, message, receiver
                if tick is not None:
                    env[tick] = t
                v = body(ctx, env, t)
                if v is None:
                    result = None
                elif v is not universal:
                    return v
            # on a finite non-lasso trace more messages may still be sent,
            # so a universal cannot be confirmed nor an existential refuted
            return None if ctx.loop is None else result
        return sent, None

    def window(self, e, scope, depth, bounds, offsets, universal=True):
        """alw/evt/during/lasts/after: a loop over the ticks in ``bounds``.
        On lassos it answers from the body's mask, if the body has one,
        built once per trace and binding of the body's free variables.
        ``offsets`` are the bounds relative to now when they are constant
        (see `_now_offsets`), which gives the window a mask of its own."""
        outer, self.uses = self.uses, set()
        body, mask = self.expr(e.body, scope, depth)
        free = sorted(k for k in self.uses if k < depth)
        self.uses |= outer
        body_mask = mask and _body_mask(free, mask)
        fn = _window(bounds, body, universal, body_mask=body_mask)
        return fn, mask and offsets and _window_mask(mask, *offsets, universal)

    def temporal(self, e, scope, depth):
        return self.window(e, scope, depth, _from_now, (0, None), isinstance(e, Alw))

    def during(self, e: During, scope, depth):
        return self.window(e, scope, depth, self.interval(e.interval, scope),
                           _now_offsets(e.interval))

    def lasts(self, e: Lasts, scope, depth):
        d = e.duration
        return self.window(e, scope, depth, lambda env, now: (now, now + d), (0, d))

    def after(self, e: After, scope, depth):
        d = e.duration
        return self.window(e, scope, depth, lambda env, now: (now + d + 1, None),
                           (d + 1, None))

    def at(self, e: At, scope, depth):
        time = self.time(e.time, scope)
        literal = _is_literal_time(e.time)
        body, _mask = self.expr(e.body, scope, depth)

        def at(ctx, env, now):
            t = time(env, now)
            if t < 0:
                raise TimeOutOfRange(f"time {t} is before the start of the trace")
            if literal and ctx.loop is None and t >= ctx.n:
                raise TimeOutOfRange(f"explicit time {t} lies beyond this finite trace")
            return body(ctx, env, t)
        return at, None

    def nf_set(self, e: NfSet, scope, depth):
        if isinstance(e.target, ServersSet):
            return (lambda ctx, env, now: ctx.at("servers_nf", now),
                    lambda ctx, env: _truth(ctx, "servers_nf"))
        group = self.term(e.target, scope, "set variable")

        def nf_set(ctx, env, now):
            nf = ctx.at("nf_procs", now)
            return None if nf is None else nf.issuperset(group(env))

        def nf_set_mask(ctx, env):
            m = ctx.full
            for p in group(env):
                m &= _membership(ctx, "nf_procs", p)
            return m
        return nf_set, nf_set_mask

    def servers_eq(self, e: ServersEq, scope, depth):
        t1, t2 = self.time(e.t1, scope), self.time(e.t2, scope)

        def servers_eq(ctx, env, now):
            a, b = t1(env, now), t2(env, now)
            i, j = ctx.index(a), ctx.index(b)
            if i is None or j is None:
                return None
            return ctx.cols["roster"][i] == ctx.cols["roster"][j]
        return servers_eq, None


_NODES = {
    TrueE: lambda c, e, scope, depth: (_true, _all_ticks),
    FalseE: lambda c, e, scope, depth: (_false, _no_tick),
    Atom: _Compiler.atom, Not: _Compiler.not_, And: _Compiler.and_,
    Or: _Compiler.or_, Implies: _Compiler.implies,
    Each: _Compiler.quantified, Some: _Compiler.quantified,
    EachSent: _Compiler.sent, SomeSent: _Compiler.sent,
    Alw: _Compiler.temporal, Evt: _Compiler.temporal,
    During: _Compiler.during, Lasts: _Compiler.lasts, After: _Compiler.after,
    At: _Compiler.at, NfSet: _Compiler.nf_set, ServersEq: _Compiler.servers_eq,
}

_CACHE_SIZE = 256
_cache_lock = threading.Lock()
_by_id: dict = {}      # id(expr) -> (expr, program); holding expr pins its id
_by_value: dict = {}   # expr -> program, so equal ASTs share one program


def _remember(cache: dict, key, value) -> None:
    with _cache_lock:
        if len(cache) >= _CACHE_SIZE:
            cache.pop(next(iter(cache)), None)
        cache[key] = value


def compile_expr(expr: PropertyExpr) -> _Program:
    """The compiled program of ``expr``, from a small bounded cache.

    The cache is looked up by object identity first and by structural
    equality second, so a parsed property equal to a built one shares its
    program.  Raises UnboundVariable for a free variable.
    """
    hit = _by_id.get(id(expr))
    if hit is not None:
        return hit[1]
    try:
        program = _by_value.get(expr)
    except TypeError:                 # an unhashable constant: left uncached
        return _Compiler().program(expr)
    if program is None:
        program = _Compiler().program(expr)
        _remember(_by_value, expr, program)
    _remember(_by_id, id(expr), (expr, program))
    return program


def check_scoped(expr: PropertyExpr) -> None:
    """Raise UnboundVariable if any variable occurrence is free."""
    compile_expr(expr)


def eval_expr(expr: PropertyExpr, trace: Trace, now: Tick = 0) -> Verdict:
    """Evaluate a property on a trace starting from tick ``now``.

    Lasso traces give exact Holds/Violated answers for the catalog
    properties; finite traces may answer Undetermined with the trace length
    as the bound up to which the prefix was checked.
    """
    if not 0 <= now < len(trace.states):
        raise TimeOutOfRange(f"now={now} outside trace of length {len(trace.states)}")
    program = compile_expr(expr)
    value = program.fn(_index_of(trace), [None] * program.nslots, now)
    if value is True:
        return holds()
    if value is False:
        return violated()
    return Verdict(UNDETERMINED, bound=len(trace.states))


# ---------------------------------------------------------------------------
# normalize_at and desugar

def _map_children(f, e: PropertyExpr) -> PropertyExpr:
    """``e`` with ``f`` applied, left to right, to each sub-expression."""
    if not isinstance(e, NODE_TYPES):
        raise TypeError(f"not a property expression: {e!r}")
    changes = {name: f(getattr(e, name)) for name in ("body", "left", "right")
               if hasattr(e, name)}
    return replace(e, **changes) if changes else e


def _used_names(expr: PropertyExpr) -> set:
    names = set()

    def walk(e):
        if isinstance(e, (Each, Some)):
            names.add(e.var)
        elif isinstance(e, (EachSent, SomeSent)):
            names.update({e.sender, e.message, e.receiver})
            if e.time_var:
                names.add(e.time_var)
        return _map_children(walk, e)

    walk(expr)
    return names


def _fresh_names(used: set):
    """t1, t2, ... in order, skipping the names in ``used``."""
    return (f"t{k}" for k in itertools.count(1) if f"t{k}" not in used)


def normalize_at(expr: PropertyExpr) -> PropertyExpr:
    """Push time annotations inward until every atom carries an explicit time.

    Temporal operators become quantifiers over tick intervals; the result
    evaluates identically on every trace.
    """
    fresh = _fresh_names(_used_names(expr))

    def ticks(quantifier, interval, body):
        tv = next(fresh)
        return quantifier(tv, TickDomain(interval), walk(body, TVar(tv)))

    def walk(e: PropertyExpr, tt: TimeTerm) -> PropertyExpr:
        if isinstance(e, (Atom, NfSet)):
            return At(e, tt)
        if isinstance(e, ServersEq):
            return ServersEq(_subst_now(e.t1, tt), _subst_now(e.t2, tt))
        if isinstance(e, (Each, Some)):
            dom = e.domain
            if isinstance(dom, NamedDomain) and dom.name == "servers" and dom.at is None:
                dom = NamedDomain("servers", at=tt)
            elif isinstance(dom, TickDomain):
                dom = TickDomain(dom.interval.subst_now(tt))
            return replace(e, domain=dom, body=walk(e.body, tt))
        if isinstance(e, (EachSent, SomeSent)):
            tv = e.time_var or next(fresh)
            return replace(e, body=walk(e.body, TVar(tv)), time_var=tv)
        if isinstance(e, Alw):
            return ticks(Each, unbounded(tt), e.body)
        if isinstance(e, Evt):
            return ticks(Some, unbounded(tt), e.body)
        if isinstance(e, During):
            return ticks(Each, e.interval.subst_now(tt), e.body)
        if isinstance(e, Lasts):
            return ticks(Each, Interval(tt, tplus(tt, e.duration), True, True), e.body)
        if isinstance(e, After):
            return ticks(Each, Interval(tplus(tt, e.duration), None, False, False), e.body)
        if isinstance(e, At):
            return walk(e.body, _subst_now(e.time, tt))
        return _map_children(lambda c: walk(c, tt), e)

    return walk(expr, TNow())


def desugar(expr: PropertyExpr) -> PropertyExpr:
    """Rewrite During/Lasts/After/NfSet into each-quantified at-forms."""
    fresh = _fresh_names(_used_names(expr))

    def walk(e: PropertyExpr) -> PropertyExpr:
        if isinstance(e, During):
            tv = next(fresh)
            return Each(tv, TickDomain(e.interval), At(walk(e.body), TVar(tv)))
        if isinstance(e, Lasts):
            ivl = Interval(TNow(), tplus(TNow(), e.duration), True, True)
            return walk(During(e.body, ivl))
        if isinstance(e, After):
            ivl = Interval(tplus(TNow(), e.duration), None, False, False)
            return walk(During(e.body, ivl))
        if isinstance(e, NfSet):
            tv = next(fresh)
            if isinstance(e.target, ServersSet):
                dom = NamedDomain("servers")
            else:
                dom = MemberDomain(e.target.name)
            return Each(tv, dom, Atom("nf", (Var(tv),)))
        return _map_children(walk, e)

    return walk(expr)
