"""Independent oracles and random generators shared by the tests.

`naive_eval` is a deliberately plain bounded evaluator over an explicit
state list: no lasso arithmetic, no horizon capping, just loops up to the
end of the supplied states with three-valued tail handling.  It is kept
separate from the production evaluator so the two can check each other.
`kernel_fields` decodes a checker kernel state, one int, into its fields;
`naive_quorum` and `retest_consensus` are the kernel's quorum and consensus
tests written as plain subset tests over acceptor names; `acceptor_orbit`
is a state's orbit under every acceptor permutation, by brute force.
`naive_facts` reads a machine state's protocol facts off its full histories
in one pass, where the machine derives them from the parent state.
`scan_projection`, `machine_projections`, `realized_owned_states` and
`realized_run_steps` are the referee between the machine and the checker's
bitmask kernel: a projection of machine states onto `safety_scan`'s kernel
states, a breadth-first search of the machine whose projections must be
kernel states (soundness), a replay of every owned-kernel path on the
machine whose last state must project back onto the kernel state
(completeness), and every step from the states of those replays, whose
projections must be kernel states too (soundness past the search's depth).
"""

from __future__ import annotations

import itertools
import random

from livenesslab import checker
from livenesslab import machine as mc
from livenesslab.temporal import (
    After, Alw, And, At, Atom, Const, During, Each, EachSent, Evt, FalseE,
    Implies, Interval, Lasts, MemberDomain, NamedDomain, NfSet, Not, Or,
    ServersEq, ServersSet, SlotRange, Some, SomeSent, TickDomain, TLit, TNow,
    TPlus, TrueE, TVar, Var, tplus,
)


def _t(term, env, now):
    if isinstance(term, TLit):
        return term.value
    if isinstance(term, TNow):
        return now
    if isinstance(term, TVar):
        return env[term.name]
    if isinstance(term, TPlus):
        return _t(term.base, env, now) + term.offset
    raise TypeError(term)


def _bounds(ivl, env, now):
    """Inclusive integer bounds (lo, hi) of an interval; hi None means inf."""
    lo = max(_t(ivl.lo, env, now) + (0 if ivl.lo_closed else 1), 0)
    if ivl.hi is None:
        return lo, None
    return lo, _t(ivl.hi, env, now) - (0 if ivl.hi_closed else 1)


def _arg(a, env):
    return a.value if isinstance(a, Const) else env[a.name]


def _atom(e, st, env):
    args = [_arg(a, env) for a in e.args]
    if e.name == "nf":
        return args[0] in st.nf_procs
    if e.name == "is_primary":
        return args[0] in st.primaries
    if e.name == "sent":
        return tuple(args) in st.sent
    if e.name == "received":
        return tuple(args) in st.received
    if e.name == "voted":
        if len(args) == 4:
            return tuple(args) in st.voted
        return any(x[0] == args[0] and x[1] == args[1] and x[3] == args[2]
                   for x in st.voted)
    if e.name == "learned":
        if len(args) == 3:
            return tuple(args) in st.learned
        return any(x[0] == args[0] and x[2] == args[1] for x in st.learned)
    if e.name == "executed":
        if len(args) == 3:
            return tuple(args) in st.executed
        return any(x[0] == args[0] and x[2] == args[1] for x in st.executed)
    if e.name == "sent_req":
        return tuple(args) in st.requested
    if e.name == "received_resp":
        return any(x[0] == args[0] and x[1] == args[1] for x in st.responded)
    if e.name == "received_resp_res":
        return (args[0], args[1], args[1]) in st.responded
    raise ValueError(e.name)


def _k_and(values, tail_unknown):
    got = True
    for v in values:
        if v is False:
            return False
        if v is None:
            got = None
    if tail_unknown and got is True:
        return None
    return got


def _k_or(values, tail_unknown):
    got = False
    for v in values:
        if v is True:
            return True
        if v is None:
            got = None
    if tail_unknown and got is False:
        return None
    return got


def naive_eval(e, states, config, env=None, now=0, open_ended=True):
    """Bounded three-valued evaluation over an explicit state list.

    `open_ended` says whether time continues past the last state (unknown)
    or the list is the entire infinite behavior repeated nowhere (in which
    case the tail is treated as unknown anyway: callers compare only
    determined answers).
    """
    env = env or {}
    L = len(states)

    def rec(e, env, now):
        if isinstance(e, TrueE):
            return True
        if isinstance(e, FalseE):
            return False
        if isinstance(e, Atom):
            if now >= L:
                return None
            return _atom(e, states[now], env)
        if isinstance(e, Not):
            v = rec(e.body, env, now)
            return None if v is None else not v
        if isinstance(e, And):
            return _k_and([rec(e.left, env, now), rec(e.right, env, now)], False)
        if isinstance(e, Or):
            return _k_or([rec(e.left, env, now), rec(e.right, env, now)], False)
        if isinstance(e, Implies):
            return _k_or([_negate(rec(e.left, env, now)),
                          rec(e.right, env, now)], False)
        if isinstance(e, Alw):
            vals = [rec(e.body, env, t) for t in range(now, L)]
            return _k_and(vals, open_ended)
        if isinstance(e, Evt):
            vals = [rec(e.body, env, t) for t in range(now, L)]
            return _k_or(vals, open_ended)
        if isinstance(e, During):
            lo, hi = _bounds(e.interval, env, now)
            top = L - 1 if hi is None else min(hi, L - 1)
            vals = [rec(e.body, env, t) for t in range(max(lo, 0), top + 1)]
            tail = hi is None or hi > L - 1
            return _k_and(vals, tail and open_ended)
        if isinstance(e, Lasts):
            return rec(During(e.body, Interval(TLit(now), TLit(now + e.duration))),
                       env, now)
        if isinstance(e, After):
            return rec(During(e.body, Interval(TLit(now + e.duration), None,
                                               False, False)), env, now)
        if isinstance(e, At):
            return rec(e.body, env, _t(e.time, env, now))
        if isinstance(e, (Each, Some)):
            univ = isinstance(e, Each)
            dom = e.domain
            if isinstance(dom, TickDomain):
                lo, hi = _bounds(dom.interval, env, now)
                top = L - 1 if hi is None else min(hi, L - 1)
                vals = [rec(e.body, {**env, e.var: t}, now)
                        for t in range(max(lo, 0), top + 1)]
                tail = (hi is None or hi > L - 1) and open_ended
                return _k_and(vals, tail) if univ else _k_or(vals, tail)
            if isinstance(dom, NamedDomain):
                if dom.name == "servers":
                    at = now if dom.at is None else _t(dom.at, env, now)
                    if at >= L:
                        return None
                    members = sorted(states[at].roster)
                else:
                    members = list(getattr(config, dom.name))
            elif isinstance(dom, SlotRange):
                members = list(range(1, dom.n + 1))
            else:
                members = sorted(env[dom.var])
            vals = [rec(e.body, {**env, e.var: m}, now) for m in members]
            return _k_and(vals, False) if univ else _k_or(vals, False)
        if isinstance(e, (EachSent, SomeSent)):
            univ = isinstance(e, EachSent)
            events = {}
            for t, st in enumerate(states):
                for (s, m, r) in st.sent:
                    events.setdefault((s, m, r), t)
            vals = []
            for (s, m, r), t in sorted(events.items()):
                sub = {**env, e.sender: s, e.message: m, e.receiver: r}
                if e.time_var:
                    sub[e.time_var] = t
                vals.append(rec(e.body, sub, t))
            return _k_and(vals, open_ended) if univ else _k_or(vals, open_ended)
        if isinstance(e, NfSet):
            if now >= L:
                return None
            group = states[now].roster if isinstance(e.target, ServersSet) \
                else env[e.target.name]
            return all(p in states[now].nf_procs for p in group)
        if isinstance(e, ServersEq):
            t1, t2 = _t(e.t1, env, now), _t(e.t2, env, now)
            if t1 >= L or t2 >= L:
                return None
            return states[t1].roster == states[t2].roster
        raise TypeError(e)

    return rec(e, env, now)


def _negate(v):
    return None if v is None else not v


# ---------------------------------------------------------------------------
# random well-scoped expressions

_SORTS = {
    "servers": "proc", "clients": "client", "quorums": "quorum",
    "values": "value", "rounds": "round",
}


def random_expr(rng: random.Random, depth: int = 4, bound=None):
    """A random well-scoped property over the corpus config vocabulary.

    `bound` maps the names of enclosing variables to their sorts (`proc`,
    `quorum`, `value`, ...) so the result may refer to them.
    """
    env: dict = dict(bound or {})   # variable name -> sort
    triples: list = []      # (sender, message, receiver) bound by sent-binders

    def fresh(prefix):
        k = 1
        while f"{prefix}{k}" in env:
            k += 1
        return f"{prefix}{k}"

    def vars_of(sort):
        return [v for v, s in env.items() if s == sort]

    def atom():
        options = [lambda: TrueE(), lambda: FalseE(),
                   lambda: NfSet(ServersSet())]
        procs = vars_of("proc")
        vals = vars_of("value")
        rnds = vars_of("round")
        slots = vars_of("slot")
        if procs:
            options.append(lambda: Atom("nf", (Var(rng.choice(procs)),)))
            options.append(lambda: Atom("is_primary", (Var(rng.choice(procs)),)))
            if vals:
                options.append(lambda: Atom(
                    "learned", (Var(rng.choice(procs)), Var(rng.choice(vals)))))
                options.append(lambda: Atom(
                    "executed", (Var(rng.choice(procs)), Var(rng.choice(vals)))))
                if rnds:
                    options.append(lambda: Atom(
                        "voted", (Var(rng.choice(procs)), Var(rng.choice(rnds)),
                                  Var(rng.choice(vals)))))
                    if slots:
                        options.append(lambda: Atom(
                            "voted", (Var(rng.choice(procs)), Var(rng.choice(rnds)),
                                      Var(rng.choice(slots)), Var(rng.choice(vals)))))
                if slots:
                    options.append(lambda: Atom(
                        "learned", (Var(rng.choice(procs)), Var(rng.choice(slots)),
                                    Var(rng.choice(vals)))))
        if vars_of("quorum"):
            options.append(lambda: NfSet(Var(rng.choice(vars_of("quorum")))))
        if vars_of("client") and vals:
            options.append(lambda: Atom(
                "sent_req", (Var(rng.choice(vars_of("client"))), Var(rng.choice(vals)))))
            options.append(lambda: Atom(
                "received_resp", (Var(rng.choice(vars_of("client"))),
                                  Var(rng.choice(vals)))))
        if triples:
            s, m, r = rng.choice(triples)
            options.append(lambda: Atom("received", (Var(r), Var(m), Var(s))))
            options.append(lambda: Atom("sent", (Var(s), Var(m), Var(r))))
        if vars_of("tick"):
            t1 = TVar(rng.choice(vars_of("tick")))
            t2 = TVar(rng.choice(vars_of("tick")))
            options.append(lambda: ServersEq(t1, t2))
        return rng.choice(options)()

    def interval():
        ticks = vars_of("tick")
        if ticks and rng.random() < 0.6:
            base = TVar(rng.choice(ticks))
        else:
            base = TLit(rng.randint(0, 4))
        lo = tplus(base, rng.randint(0, 2))
        if rng.random() < 0.4:
            return Interval(lo, None, rng.random() < 0.8, False)
        hi = tplus(lo, rng.randint(0, 4))
        return Interval(lo, hi, rng.random() < 0.8, rng.random() < 0.8)

    def quantifier(d):
        dom_kind = rng.randrange(4)
        if dom_kind == 0:
            name = rng.choice(list(_SORTS))
            var = fresh(_SORTS[name][0])
            sort = _SORTS[name]
            dom = NamedDomain(name)
        elif dom_kind == 1:
            var = fresh("s")
            sort = "slot"
            dom = SlotRange(rng.randint(1, 2))
        elif dom_kind == 2:
            var = fresh("t")
            sort = "tick"
            dom = TickDomain(interval())
        else:
            quos = vars_of("quorum")
            if quos:
                var = fresh("p")
                sort = "proc"
                dom = MemberDomain(rng.choice(quos))
            else:
                var = fresh("q")
                sort = "quorum"
                dom = NamedDomain("quorums")
        cls = Each if rng.random() < 0.5 else Some
        env[var] = sort
        body = build(d - 1)
        del env[var]
        return cls(var, dom, body)

    def sent_binder(d):
        s, m, r = fresh("w"), fresh("m"), fresh("x")
        env[s] = "proc"
        env[m] = "msg"
        env[r] = "proc"
        triples.append((s, m, r))
        cls = EachSent if rng.random() < 0.5 else SomeSent
        body = build(d - 1)
        triples.pop()
        del env[s], env[m], env[r]
        return cls(s, m, r, body)

    def build(d):
        if d <= 0:
            return atom()
        kind = rng.randrange(13)
        if kind == 0:
            return Not(build(d - 1))
        if kind == 1:
            return And(build(d - 1), build(d - 1))
        if kind == 2:
            return Or(build(d - 1), build(d - 1))
        if kind == 3:
            return Implies(build(d - 1), build(d - 1))
        if kind == 4:
            return Alw(build(d - 1))
        if kind == 5:
            return Evt(build(d - 1))
        if kind == 6:
            return During(build(d - 1), interval())
        if kind == 7:
            return Lasts(build(d - 1), rng.randint(0, 3))
        if kind == 8:
            return After(build(d - 1), rng.randint(0, 3))
        if kind == 9:
            return At(build(d - 1), TLit(rng.randint(0, 4)))
        if kind in (10, 11):
            return quantifier(d)
        return sent_binder(d)

    return build(depth)


# ---------------------------------------------------------------------------
# the checker kernel's states and quorum tests

def kernel_fields(kernel, st: int) -> tuple:
    """A checker kernel state decoded into (rounds started, each acceptor's
    highest round, promise mask, accepted value per started round, vote
    mask, learned mask), with acceptor a's round-b bit at a*pool + b-1 in
    both masks.  It reads only the kernel's field offsets and widths, and
    raises ValueError if a round not yet started holds an accept, the one
    part of the int the fields leave out."""
    pool, w, f = kernel.pool, kernel.width, kernel.accept_width
    mask = (1 << kernel.j * pool) - 1
    nb = st & (1 << w) - 1
    maxbal = tuple(st >> at & (1 << w) - 1 for at in kernel.maxbal_at)
    codes = [st >> kernel.accept_at + f * b & (1 << f) - 1 for b in range(pool)]
    if any(codes[nb:]):
        raise ValueError(f"an accept in a round above {nb}: {codes}")
    values = (True,) if kernel.stable else kernel.config.values
    accepted = tuple(values[c - 1] if c else None for c in codes[:nb])
    return (nb, maxbal, st >> kernel.promise_at & mask, accepted,
            st >> kernel.vote_at & mask, st >> kernel.learn_at)


def encode_fields(kernel, fields: tuple) -> int:
    """The kernel state whose `kernel_fields` are ``fields``."""
    nb, maxbal, pmask, accepted, vmask, learned = fields
    values = (True,) if kernel.stable else kernel.config.values
    st = (nb | pmask << kernel.promise_at | vmask << kernel.vote_at
          | learned << kernel.learn_at)
    for at, m in zip(kernel.maxbal_at, maxbal):
        st |= m << at
    for b, v in enumerate(accepted):
        if v is not None:
            st |= values.index(v) + 1 << kernel.accept_at + kernel.accept_width * b
    return st


def acceptor_orbit(kernel, st: int) -> set:
    """Every state that renaming the acceptors makes of ``st``: decoded,
    permuted under each of the j! permutations, and re-encoded."""
    nb, maxbal, pmask, accepted, vmask, learned = kernel_fields(kernel, st)
    pool = kernel.pool
    row = (1 << pool) - 1

    def permuted(mask, perm):
        return sum((mask >> old * pool & row) << new * pool for new, old in enumerate(perm))

    return {encode_fields(kernel, (nb, tuple(maxbal[old] for old in perm),
                                   permuted(pmask, perm), accepted,
                                   permuted(vmask, perm), learned))
            for perm in itertools.permutations(range(kernel.j))}


def naive_quorum(kernel, mask: int, b: int) -> bool:
    """Whether the acceptors whose round-b bit (a*pool + b-1) is set in
    ``mask`` include a quorum of the kernel's config.  `kernel_fields`
    decodes the promise and vote masks in this layout, and the kernel's own
    quorum test takes them shifted down to it."""
    config = kernel.config
    members = {name for a, name in enumerate(config.acceptors)
               if mask >> (a * kernel.pool + b - 1) & 1}
    return any(q <= members for q in config.quorums)


def retest_consensus(kernel, vmask: int, nb: int) -> bool:
    """The full re-test: some started round 1..nb holds a vote quorum."""
    return any(naive_quorum(kernel, vmask, b) for b in range(1, nb + 1))


# ---------------------------------------------------------------------------
# the machine's protocol facts

def naive_facts(state) -> dict:
    """The facts of ``machine.MachineState.facts``, by field name, read off
    the state's full histories; a proposer with every round started has no
    ``unused`` entry."""
    obs = state.obs
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
    for rnd in state.config.rounds:
        if rnd in started:
            current[rnd[1]] = rnd
        else:
            unused.setdefault(rnd[1], []).append(rnd)
    return dict(started=started, current=current, unused=unused,
                accepted=accepted, maxbal=maxbal, vote=vote, prepared=prepared,
                promises=promises, reports=reports)


# ---------------------------------------------------------------------------
# the referee between the machine and the checker's bitmask kernel

def scan_projection(state) -> tuple:
    """The `safety_scan` kernel state of a machine state, in the fields
    `kernel_fields` decodes, read off its histories: the index of the
    highest round whose prepare (1a) was sent among the sorted rounds, each
    acceptor's highest round, the promise (1b) bits sent, the value each
    started round's accept (2a) carried, the vote bits and the learned
    values, whoever learned them.  Acceptor a's bit for round b is
    a*pool + b-1, as `kernel_fields` decodes it."""
    config, obs = state.config, state.obs
    rounds = sorted(config.rounds)
    pool = len(rounds)
    index = {rnd: b for b, rnd in enumerate(rounds, 1)}
    acceptor = {a: k for k, a in enumerate(config.acceptors)}
    nb, pmask, vmask, learned, accepted = 0, 0, 0, 0, {}
    for (snd, wire, _rcv) in obs.sent:
        b = index[wire[1]]
        if wire[0] == "1a":
            nb = max(nb, b)
        elif wire[0] == "1b":
            pmask |= 1 << (acceptor[snd] * pool + b - 1)
        elif wire[0] == "2a":
            accepted[b] = wire[2]
    for (a, rnd, _slot, _val) in obs.voted:
        vmask |= 1 << (acceptor[a] * pool + index[rnd] - 1)
    for (_srv, _slot, val) in obs.learned:
        learned |= 1 << config.values.index(val)
    maxbal = state.facts.maxbal
    return (nb, tuple(index[maxbal[a]] if a in maxbal else 0 for a in config.acceptors),
            pmask, tuple(accepted.get(b) for b in range(1, nb + 1)), vmask, learned)


def fold_learners(kernel, st: int) -> tuple:
    """An owned-kernel state's fields with every learner's learned bits
    folded onto the value bits, which makes them a scan-kernel state's."""
    fields = kernel_fields(kernel, st)
    n_values = len(kernel.config.values)
    learned, values = fields[5], 0
    while learned:
        values |= learned & ((1 << n_values) - 1)
        learned >>= n_values
    return fields[:5] + (values,)


#: the machine actions the soundness search leaves out; none of them sends
#: a promise or an accept, records a vote or learns, so none changes a
#: state's projection
_FAULTS = (mc.Crash, mc.Recover, mc.DropMessage)


def machine_projections(config, depth: int):
    """Breadth-first search of the machine from `init` to `depth` actions,
    without Crash, Recover or DropMessage.  Returns the number of distinct
    machine states and the set of their scan projections."""
    start = mc.init(config)
    seen, level = {start}, [start]
    for _ in range(depth):
        nxt = []
        for st in level:
            for act in mc.enabled(st):
                if isinstance(act, _FAULTS):
                    continue
                s = mc.apply_action(st, act)
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        level = nxt
    return len(seen), {scan_projection(s) for s in seen}


def _realize_owned_paths(config, take) -> None:
    """Calls ``take(kernel, state, run)`` for every state of the owned
    kernel, in `_search`'s order, with the run of machine states that
    `_realize` passes through along the state's search path, the leftover
    messages dropped."""
    k = checker._Kernel(config, "owned")
    trail = checker._Trail(k)

    def visit(st, _chosen, _moves, at) -> bool:
        take(k, st, checker._realize(config, k, trail.names(at), True, set()))
        return False

    checker._search(trail, visit, 10**6)


def realized_owned_states(config) -> list:
    """Every state of the owned kernel, in `_search`'s order, realized on
    the machine by `_realize` along its search path with the leftover
    messages dropped: a list of (the state's fields with learners folded,
    the scan projection of the realized run's last state)."""
    pairs = []
    _realize_owned_paths(config, lambda k, st, states: pairs.append(
        (fold_learners(k, st), scan_projection(states[-1]))))
    return pairs


def realized_run_steps(config) -> tuple:
    """Every action but a fault, applied to each distinct machine state on
    the owned kernel's realized runs.  Returns the number of owned states,
    of distinct machine states and of steps, the set of the steps' scan
    projections, and the number of accept steps in a round one of whose
    promisers had voted in an earlier round for a value other than the
    round owner's: the accepts where the 1b rule can overrule the owner."""
    seen, projections = set(), set()
    owned = steps = prior_accepts = 0

    def take(_k, _st, states) -> None:
        nonlocal owned, steps, prior_accepts
        owned += 1
        for state in states:
            if state in seen:
                continue
            seen.add(state)
            for act in mc.enabled(state):
                if isinstance(act, _FAULTS):
                    continue
                steps += 1
                projections.add(scan_projection(mc.apply_action(state, act)))
                if isinstance(act, mc.ProposerSendAccept):
                    p, obs = act.proposer, state.obs
                    rnd = state.facts.current[p]
                    own = config.values[config.proposers.index(p) % len(config.values)]
                    promisers = {a for (a, wire, _rcv) in obs.sent
                                 if wire[0] == "1b" and wire[1] == rnd}
                    prior_accepts += any(
                        a in promisers and r < rnd and v != own
                        for (a, r, _slot, v) in obs.voted)

    _realize_owned_paths(config, take)
    return owned, len(seen), steps, projections, prior_accepts
