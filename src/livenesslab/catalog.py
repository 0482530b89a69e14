"""Programmatic constructors for every link assumption, server assumption,
and liveness assertion, plus the implication edges they form.

Each constructor builds the same AST that parsing the property's canonical
text yields, so the two routes cross-check each other in the test suite.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from typing import Optional

from .temporal import (
    After, Alw, And, Atom, During, Each, EachSent, Evt, Implies, Interval,
    Lasts, MemberDomain, NamedDomain, NfSet, PropertyExpr, ServersEq,
    ServersSet, SlotRange, Some, SomeSent, TickDomain, TLit, TVar, Var,
    tplus, unbounded,
)


class CatalogError(Exception):
    pass


class MissingParameter(CatalogError):
    pass


class UnknownProperty(CatalogError):
    pass


LINK = "link"
SERVER = "server"
ASSERTION_SINGLE = "assertion-single"
ASSERTION_MULTI = "assertion-multi"

LINK_NAMES = ("Raw", "Fair", "Sure")
SERVER_NAMES = ("Alw-Q", "Q-Alw", "P-Alw-Q", "PQ-Alw", "Alw", "PQ-Dur", "PQ-Extra-Dur")
ASSERTION_NAMES = ("Each-Vote", "Some-Learn", "Each-Learn", "Some-Exec",
                   "Each-Exec", "Resp")
_NAMES = {LINK: LINK_NAMES, SERVER: SERVER_NAMES,
          ASSERTION_SINGLE: ASSERTION_NAMES, ASSERTION_MULTI: ASSERTION_NAMES}

_PARAM_NAMES = {
    ("link", "Sure"): ("D",),
    ("server", "PQ-Dur"): ("D",),
    ("server", "PQ-Extra-Dur"): ("D1", "D2"),
}


def _key(name: str) -> str:
    """``name`` lowercased, without dashes, underscores or spaces."""
    return re.sub(r"[-_ ]", "", name).lower()


_ALIASES = {_key(n): n for n in LINK_NAMES + SERVER_NAMES + ASSERTION_NAMES}


def resolve_name(name: str) -> str:
    try:
        return _ALIASES[_key(name)]
    except KeyError:
        raise UnknownProperty(f"no property named {name!r}") from None


@dataclass(frozen=True)
class CatalogId:
    """A catalog property by kind, name and parameters.  Ids key the
    per-trace verdict caches and `build`'s cache, so the hash is computed
    once; pickles carry only the three fields, and the hash is recomputed
    on load, since string hashes differ between processes."""

    kind: str
    name: str
    params: tuple = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _NAMES:
            raise UnknownProperty(f"bad catalog kind {self.kind!r}")
        if self.name not in _NAMES[self.kind]:
            raise UnknownProperty(f"{self.name!r} is not a {self.kind} property")
        # an id may leave parameters open (hierarchy edges quantify over
        # them), but only parameterized properties may carry any
        arity = len(param_names(self.kind, self.name))
        if self.params and len(self.params) != arity:
            raise UnknownProperty(
                f"{self.name} takes {arity} parameter(s), got {self.params!r}")
        object.__setattr__(self, "_hash", hash((self.kind, self.name, self.params)))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        return {"kind": self.kind, "name": self.name, "params": self.params}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def label(self) -> str:
        if self.params:
            inner = ",".join(str(p) for p in self.params)
            return f"{self.name}({inner})"
        return self.name


# ---------------------------------------------------------------------------
# link assumptions

_RECEIVED = Atom("received", (Var("p2"), Var("m"), Var("p1")))


def link_property(name: str, D: Optional[int] = None) -> PropertyExpr:
    name = resolve_name(name)
    if name == "Raw":
        return SomeSent("p1", "m", "p2", Evt(_RECEIVED))
    if name == "Fair":
        return EachSent("p1", "m", "p2", Evt(_RECEIVED))
    if name == "Sure":
        if D is None:
            raise MissingParameter("Sure needs a delivery bound D")
        if D < 0:
            raise MissingParameter("the bound D must be non-negative")
        return EachSent("p1", "m", "p2", After(_RECEIVED, D))
    raise UnknownProperty(f"{name!r} is not a link assumption")


# ---------------------------------------------------------------------------
# server assumptions

def _p_up_and_primary() -> PropertyExpr:
    return And(Atom("nf", (Var("p"),)), Atom("is_primary", (Var("p"),)))


def server_property(name: str, D: Optional[int] = None,
                    D1: Optional[int] = None, D2: Optional[int] = None) -> PropertyExpr:
    name = resolve_name(name)
    if name == "Alw-Q":
        return Evt(Alw(Some("q", NamedDomain("quorums"), NfSet(Var("q")))))
    if name == "Q-Alw":
        return Evt(Some("q", NamedDomain("quorums"), Alw(NfSet(Var("q")))))
    if name == "P-Alw-Q":
        body = And(_p_up_and_primary(),
                   Some("q", NamedDomain("quorums"), NfSet(Var("q"))))
        return Evt(Some("p", NamedDomain("servers"), Alw(body)))
    if name == "PQ-Alw":
        body = And(_p_up_and_primary(), NfSet(Var("q")))
        return Evt(Some("p", NamedDomain("servers"),
                        Some("q", NamedDomain("quorums"), Alw(body))))
    if name == "Alw":
        return Evt(Alw(NfSet(ServersSet())))
    if name == "PQ-Dur":
        if D is None:
            raise MissingParameter("PQ-Dur needs a duration D")
        if D < 0:
            raise MissingParameter("the duration D must be non-negative")
        body = Lasts(And(_p_up_and_primary(), NfSet(Var("q"))), D)
        return Evt(Some("p", NamedDomain("servers"),
                        Some("q", NamedDomain("quorums"), body)))
    if name == "PQ-Extra-Dur":
        if D1 is None or D2 is None:
            raise MissingParameter("PQ-Extra-Dur needs durations D1 and D2")
        if D1 < 0 or D2 < 0:
            raise MissingParameter("the durations D1 and D2 must be non-negative")
        t = TVar("t")
        whole = Interval(t, tplus(t, D1 + D2), True, True)
        late = Interval(tplus(t, D1), tplus(t, D1 + D2), True, True)
        roster_stable = Each("t2", TickDomain(whole), ServersEq(TVar("t2"), t))
        primary_window = Some("p", NamedDomain("servers"),
                              During(_p_up_and_primary(), late))
        quorum_window = Some("q", NamedDomain("quorums"),
                             During(NfSet(Var("q")), whole))
        return Some("t", TickDomain(unbounded(TLit(0))),
                    And(And(roster_stable, primary_window), quorum_window))
    raise UnknownProperty(f"{name!r} is not a server assumption")


# ---------------------------------------------------------------------------
# liveness assertions

def _body(name: str, slot: tuple) -> PropertyExpr:
    """Assertion ``name`` below its `evt`, for every assertion but Resp.

    The atoms take the slot arguments ``slot``: () for the single-value
    form, (Var("s"),) for the slotted form.
    """
    fact = "learned" if name.endswith("Learn") else "executed"
    if name == "Each-Vote":
        vote = Atom("voted", (Var("p"), Var("r"), *slot, Var("v")))
        return Some("r", NamedDomain("rounds"),
                    Some("q", NamedDomain("quorums"),
                         Some("v", NamedDomain("values"),
                              Each("p", MemberDomain("q"), vote))))
    if name in ("Some-Learn", "Some-Exec"):
        return Some("p", NamedDomain("servers"),
                    Some("v", NamedDomain("values"),
                         Atom(fact, (Var("p"), *slot, Var("v")))))
    if name in ("Each-Learn", "Each-Exec"):
        return Some("q", NamedDomain("quorums"),
                    Some("v", NamedDomain("values"),
                         Each("p", MemberDomain("q"),
                              Atom(fact, (Var("p"), *slot, Var("v"))))))
    raise UnknownProperty(f"{name!r} is not a liveness assertion")


def assertion_single(name: str) -> PropertyExpr:
    name = resolve_name(name)
    if name == "Resp":
        return Evt(Each("c", NamedDomain("clients"),
                        Some("v", NamedDomain("values"),
                             Atom("received_resp", (Var("c"), Var("v"))))))
    return Evt(_body(name, ()))


def assertion_multi(name: str, n: Optional[int] = None) -> PropertyExpr:
    name = resolve_name(name)
    if name == "Resp":
        # every request, whenever it is made, is eventually answered; the
        # tick-local `evt each ...` form would be vacuously true at tick 0,
        # before any request exists
        body = Implies(Atom("sent_req", (Var("c"), Var("v"))),
                       Evt(Atom("received_resp_res", (Var("c"), Var("v")))))
        return Each("c", NamedDomain("clients"),
                    Each("v", NamedDomain("values"), Alw(body)))
    if n is None:
        raise MissingParameter(f"{name} needs the slot count n")
    if n < 1:
        raise MissingParameter("the slot count n must be at least 1")
    return Evt(Each("s", SlotRange(n), _body(name, (Var("s"),))))


# ---------------------------------------------------------------------------
# canonical text

CANONICAL_TEXT = {
    (LINK, "Raw"): "some p1.sent m to p2 has evt p2.received m from p1",
    (LINK, "Fair"): "each p1.sent m to p2 has evt p2.received m from p1",
    (LINK, "Sure"): "each p1.sent m to p2 has (p2.received m from p1 after D)",
    (SERVER, "Alw-Q"): "evt alw some q in quorums has q nf",
    (SERVER, "Q-Alw"): "evt some q in quorums has alw q nf",
    (SERVER, "P-Alw-Q"):
        "evt some p in servers has alw (p.nf and p.is_primary and some q in quorums has q nf)",
    (SERVER, "PQ-Alw"):
        "evt some p in servers, q in quorums has alw (p.nf and p.is_primary and q nf)",
    (SERVER, "Alw"): "evt alw servers nf",
    (SERVER, "PQ-Dur"):
        "evt some p in servers, q in quorums has ((p.nf and p.is_primary and q nf) lasts D)",
    (SERVER, "PQ-Extra-Dur"):
        "some t in [0,inf) has ((each t2 in [t,t+D1+D2] has (servers at t2 = servers at t))"
        " and (some p in servers has ((p.nf and p.is_primary) during [t+D1,t+D1+D2]))"
        " and (some q in quorums has (q nf during [t,t+D1+D2])))",
    (ASSERTION_SINGLE, "Each-Vote"):
        "evt some r in rounds, q in quorums, v in values has each p in q has p.voted (r,v)",
    (ASSERTION_SINGLE, "Some-Learn"):
        "evt some p in servers, v in values has p.learned (v)",
    (ASSERTION_SINGLE, "Each-Learn"):
        "evt some q in quorums, v in values has each p in q has p.learned (v)",
    (ASSERTION_SINGLE, "Some-Exec"):
        "evt some p in servers, v in values has p.executed (v)",
    (ASSERTION_SINGLE, "Each-Exec"):
        "evt some q in quorums, v in values has each p in q has p.executed (v)",
    (ASSERTION_SINGLE, "Resp"):
        "evt each c in clients has some v in values has c.received ('resp',v)",
    (ASSERTION_MULTI, "Each-Vote"):
        "evt each s in 1..n has some r in rounds, q in quorums, v in values has"
        " each p in q has p.voted (r,s,v)",
    (ASSERTION_MULTI, "Some-Learn"):
        "evt each s in 1..n has some p in servers, v in values has p.learned (s,v)",
    (ASSERTION_MULTI, "Each-Learn"):
        "evt each s in 1..n has some q in quorums, v in values has"
        " each p in q has p.learned (s,v)",
    (ASSERTION_MULTI, "Some-Exec"):
        "evt each s in 1..n has some p in servers, v in values has p.executed (s,v)",
    (ASSERTION_MULTI, "Each-Exec"):
        "evt each s in 1..n has some q in quorums, v in values has"
        " each p in q has p.executed (s,v)",
    (ASSERTION_MULTI, "Resp"):
        "each c in clients, v in values has"
        " alw (c.sent ('req',v) implies evt c.received ('resp',v,res(v)))",
}

#: the sixteen property strings of record: 3 link, 7 server, 6 single-value
CATALOG_STRINGS = {
    **{(LINK, n): CANONICAL_TEXT[(LINK, n)] for n in LINK_NAMES},
    **{(SERVER, n): CANONICAL_TEXT[(SERVER, n)] for n in SERVER_NAMES},
    **{(ASSERTION_SINGLE, n): CANONICAL_TEXT[(ASSERTION_SINGLE, n)] for n in ASSERTION_NAMES},
}


@functools.lru_cache(maxsize=256)
def build(cid: CatalogId) -> PropertyExpr:
    """The AST for a catalog id with its parameters, built once per id.

    An id that leaves a parameter open gets the constructor's
    MissingParameter error.
    """
    constructor = {
        LINK: link_property, SERVER: server_property,
        ASSERTION_SINGLE: assertion_single, ASSERTION_MULTI: assertion_multi,
    }[cid.kind]
    return constructor(cid.name, **dict(zip(param_names(cid.kind, cid.name), cid.params)))


def param_names(kind: str, name: str) -> tuple:
    if kind == ASSERTION_MULTI and name != "Resp":
        return ("n",)
    return _PARAM_NAMES.get((kind, name), ())


def catalog_entries():
    """(CatalogId, parameter names, canonical text) for `catalog list`."""
    rows = []
    for kind, names in _NAMES.items():
        for name in names:
            rows.append((CatalogId(kind, name), param_names(kind, name),
                         CANONICAL_TEXT[(kind, name)]))
    return rows


# ---------------------------------------------------------------------------
# hierarchy edges

def _link(name):
    return CatalogId(LINK, name)


def _server(name):
    return CatalogId(SERVER, name)


def _assertion(name):
    return CatalogId(ASSERTION_SINGLE, name)


def hierarchy_edges():
    """Solid (stronger, weaker) implication edges plus the one dashed edge.

    The dashed Resp -> Each-Exec edge is advisory only: it holds for some
    algorithms and fails for others, so it never takes part in implication
    checking.
    """
    solid = (
        (_link("Fair"), _link("Raw")),
        (_link("Sure"), _link("Fair")),
        (_server("Alw"), _server("PQ-Alw")),
        (_server("PQ-Alw"), _server("Q-Alw")),
        (_server("Q-Alw"), _server("Alw-Q")),
        (_server("PQ-Alw"), _server("P-Alw-Q")),
        (_server("P-Alw-Q"), _server("Alw-Q")),
        (_server("Alw"), _server("PQ-Extra-Dur")),
        (_server("PQ-Extra-Dur"), _server("PQ-Dur")),
        (_server("PQ-Alw"), _server("PQ-Dur")),
        (_assertion("Each-Exec"), _assertion("Some-Exec")),
        (_assertion("Each-Exec"), _assertion("Each-Learn")),
        (_assertion("Each-Learn"), _assertion("Some-Learn")),
        (_assertion("Some-Exec"), _assertion("Some-Learn")),
        (_assertion("Some-Learn"), _assertion("Each-Vote")),
        (_assertion("Resp"), _assertion("Some-Exec")),
    )
    dashed = ((_assertion("Resp"), _assertion("Each-Exec")),)
    return solid, dashed
