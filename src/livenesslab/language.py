"""Concrete syntax for the property language: parser and canonical printer.

The grammar mirrors the assumption/assertion notation: quantifiers bind
weakest, then implies, or, and, not; the prefix operators evt/alw and the
postfix operators during/lasts/after/at bind tightest.  A quantifier is
allowed directly after a prefix operator or a binary connective and then
swallows the rest of the expression.

Named durations and bounds (D, D1, D2, n) are resolved at parse time from a
caller-supplied binding environment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .temporal import (
    After, Alw, And, Atom, At, Const, During, Each, EachSent, Evt, FalseE,
    Implies, Interval, Lasts, MemberDomain, NamedDomain, NfSet, Not, Or,
    PropertyExpr, ServersEq, ServersSet, SlotRange, Some, SomeSent, TickDomain,
    TLit, TNow, TPlus, TVar, TimeTerm, TrueE, Var, check_scoped, tplus,
)


class LanguageError(Exception):
    pass


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start after end")


class SpecSyntaxError(LanguageError):
    def __init__(self, span: SourceSpan, expected, found: str):
        self.span = span
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            f"line {span.line}:{span.column}: expected {' or '.join(self.expected)}, "
            f"found {found!r}"
        )


class UnknownDomain(LanguageError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown domain {name!r}")


class UnboundParameter(LanguageError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"parameter {name!r} has no binding")


_KEYWORDS = {
    "each", "some", "has", "in", "and", "or", "implies", "not", "evt", "alw",
    "during", "lasts", "after", "at", "nf", "is_primary", "sent", "received",
    "voted", "learned", "executed", "to", "from", "servers", "clients",
    "quorums", "values", "rounds", "inf", "true", "false", "res",
}

_DOMAIN_NAMES = ("servers", "clients", "quorums", "values", "rounds")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>\d+)"
    r"|(?P<str>'[^']*')"
    r"|(?P<dots>\.\.)"
    r"|(?P<punct>[.()\[\],=+])"
    r")"
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # ident | int | str | punct | dots | eof
    text: str
    span: SourceSpan


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            off = pos + (len(text[pos:]) - len(stripped))
            span = _span_at(text, off, off + 1)
            raise SpecSyntaxError(span, ("a token",), stripped[0])
        pos = m.end()
        for kind in ("ident", "int", "str", "dots", "punct"):
            val = m.group(kind)
            if val is not None:
                start = m.end() - len(val)
                toks.append(_Tok(kind, val, _span_at(text, start, m.end())))
                break
    toks.append(_Tok("eof", "", _span_at(text, len(text), len(text))))
    return toks


def _span_at(text: str, start: int, end: int) -> SourceSpan:
    line = text.count("\n", 0, start) + 1
    col = start - (text.rfind("\n", 0, start) + 1) + 1
    return SourceSpan(start, end, line, col)


class _Parser:
    def __init__(self, text: str, params: Optional[dict] = None):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.params = dict(params or {})
        self.time_vars: set = set()
        self.bound: list = []  # variables in scope, innermost last

    # --- token helpers ----------------------------------------------------
    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Tok:
        tok = self.peek()
        if tok.text != text:
            raise SpecSyntaxError(tok.span, (repr(text),), tok.text or "end of input")
        return self.next()

    def expect_ident(self, what: str = "an identifier") -> _Tok:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            raise SpecSyntaxError(tok.span, (what,), tok.text or "end of input")
        return self.next()

    def at_quantifier(self) -> bool:
        return self.peek().text in ("each", "some")

    # --- entry ------------------------------------------------------------
    def parse(self) -> PropertyExpr:
        expr = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise SpecSyntaxError(tok.span, ("end of input",), tok.text)
        check_scoped(expr)
        return expr

    # --- expression levels --------------------------------------------------
    def expr(self) -> PropertyExpr:
        if self.at_quantifier():
            return self.quantified()
        return self.implies_level()

    def quantified(self) -> PropertyExpr:
        kind = self.next().text
        head = self.peek()
        if head.kind == "ident" and self.peek(1).text == "." and self.peek(2).text == "sent":
            sender = self.expect_ident().text
            self.expect(".")
            self.expect("sent")
            message = self.expect_ident().text
            self.expect("to")
            receiver = self.expect_ident().text
            self.expect("has")
            self.bound.extend((sender, message, receiver))
            body = self.expr()
            del self.bound[-3:]
            cls = EachSent if kind == "each" else SomeSent
            return cls(sender, message, receiver, body)
        binders = [self.binder()]
        self.bound.append(binders[0][0])
        while self.peek().text == ",":
            self.next()
            binders.append(self.binder())
            self.bound.append(binders[-1][0])
        self.expect("has")
        body = self.expr()
        del self.bound[-len(binders):]
        cls = Each if kind == "each" else Some
        for var, dom in reversed(binders):
            body = cls(var, dom, body)
        return body

    def binder(self):
        tok = self.peek()
        if tok.kind == "int":
            # slot range: 1..n
            self.next()
            if tok.text != "1":
                raise SpecSyntaxError(tok.span, ("'1' (slot ranges start at 1)",), tok.text)
            raise SpecSyntaxError(tok.span, ("a binder variable",), tok.text)
        var = self.expect_ident("a binder variable").text
        self.expect("in")
        dom = self.domain(var)
        return var, dom

    def domain(self, boundvar: str):
        tok = self.peek()
        if tok.text in _DOMAIN_NAMES:
            self.next()
            return NamedDomain(tok.text)
        if tok.kind == "int":
            self.next()
            if tok.text != "1":
                raise SpecSyntaxError(tok.span, ("a slot range starting at 1",), tok.text)
            self.expect("..")
            n = self.int_or_param()
            return SlotRange(n)
        if tok.text in ("[", "("):
            ivl = self.interval()
            self.time_vars.add(boundvar)
            return TickDomain(ivl)
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            self.next()
            if tok.text not in self.bound:
                raise UnknownDomain(tok.text)
            return MemberDomain(tok.text)
        raise SpecSyntaxError(
            tok.span,
            (*_DOMAIN_NAMES, "a slot range", "an interval", "a set variable"),
            tok.text or "end of input",
        )

    def int_or_param(self) -> int:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return int(tok.text)
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            self.next()
            if tok.text not in self.params:
                raise UnboundParameter(tok.text)
            return int(self.params[tok.text])
        raise SpecSyntaxError(tok.span, ("an integer", "a parameter name"), tok.text)

    def interval(self) -> Interval:
        opener = self.next()
        lo_closed = opener.text == "["
        lo = self.time_term()
        self.expect(",")
        if self.peek().text == "inf":
            self.next()
            hi = None
            hi_closed = False
            closer = self.next()
            if closer.text != ")":
                raise SpecSyntaxError(closer.span, ("')' after inf",), closer.text)
        else:
            hi = self.time_term()
            closer = self.next()
            if closer.text not in ("]", ")"):
                raise SpecSyntaxError(closer.span, ("']'", "')'"), closer.text)
            hi_closed = closer.text == "]"
        return Interval(lo, hi, lo_closed, hi_closed)

    def time_term(self) -> TimeTerm:
        term = self.time_summand()
        while self.peek().text == "+":
            self.next()
            nxt = self.time_summand()
            if isinstance(nxt, TLit):
                term = tplus(term, nxt.value)
            elif isinstance(term, TLit):
                term = tplus(nxt, term.value)
            else:
                raise SpecSyntaxError(
                    self.peek().span, ("an integer offset",), "a second variable")
        return term

    def time_summand(self) -> TimeTerm:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return TLit(int(tok.text))
        if tok.text == ".":
            self.next()
            return TNow()
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            self.next()
            if tok.text in self.time_vars:
                return TVar(tok.text)
            if tok.text in self.params:
                return TLit(int(self.params[tok.text]))
            # a variable bound by an enclosing tick quantifier that the
            # scope checker will confirm
            return TVar(tok.text)
        raise SpecSyntaxError(tok.span, ("a time term",), tok.text or "end of input")

    def implies_level(self) -> PropertyExpr:
        left = self.or_level()
        if self.peek().text == "implies":
            self.next()
            if self.at_quantifier():
                return Implies(left, self.quantified())
            return Implies(left, self.implies_level())
        return left

    def or_level(self) -> PropertyExpr:
        left = self.and_level()
        while self.peek().text == "or":
            self.next()
            if self.at_quantifier():
                return Or(left, self.quantified())
            left = Or(left, self.and_level())
        return left

    def and_level(self) -> PropertyExpr:
        left = self.unary()
        while self.peek().text == "and":
            self.next()
            if self.at_quantifier():
                return And(left, self.quantified())
            left = And(left, self.unary())
        return left

    def unary(self) -> PropertyExpr:
        tok = self.peek()
        if tok.text == "not":
            self.next()
            if self.at_quantifier():
                return Not(self.quantified())
            return Not(self.unary())
        if tok.text in ("evt", "alw"):
            self.next()
            if self.at_quantifier():
                body = self.quantified()
            else:
                body = self.unary()
            return Evt(body) if tok.text == "evt" else Alw(body)
        return self.postfix()

    def postfix(self) -> PropertyExpr:
        expr = self.primary()
        while True:
            tok = self.peek()
            if tok.text == "during":
                self.next()
                expr = During(expr, self.interval())
            elif tok.text == "lasts":
                self.next()
                expr = Lasts(expr, self.int_or_param())
            elif tok.text == "after":
                self.next()
                expr = After(expr, self.int_or_param())
            elif tok.text == "at":
                self.next()
                expr = At(expr, self.time_term())
            else:
                return expr

    def primary(self) -> PropertyExpr:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            expr = self.expr()
            self.expect(")")
            return expr
        if tok.text == "true":
            self.next()
            return TrueE()
        if tok.text == "false":
            self.next()
            return FalseE()
        if tok.text == "servers":
            self.next()
            nxt = self.peek()
            if nxt.text == "nf":
                self.next()
                return NfSet(ServersSet())
            if nxt.text == "at":
                self.next()
                t1 = self.time_term()
                self.expect("=")
                self.expect("servers")
                self.expect("at")
                t2 = self.time_term()
                return ServersEq(t1, t2)
            raise SpecSyntaxError(nxt.span, ("nf", "at"), nxt.text)
        if tok.kind in ("ident", "str") and tok.text not in _KEYWORDS:
            return self.process_form()
        raise SpecSyntaxError(
            tok.span,
            ("'('", "true", "false", "an atom"),
            tok.text or "end of input",
        )

    def _term(self) -> "Var | Const":
        tok = self.peek()
        if tok.kind == "str":
            self.next()
            return Const(tok.text[1:-1])
        if tok.kind == "int":
            self.next()
            return Const(int(tok.text))
        ident = self.expect_ident("an argument").text
        return Var(ident)

    def process_form(self) -> PropertyExpr:
        head = self._term()
        tok = self.peek()
        if tok.text == "nf":
            self.next()
            if isinstance(head, Const):
                raise SpecSyntaxError(tok.span, ("a set variable before nf",), tok.text)
            return NfSet(head)
        self.expect(".")
        field = self.next()
        if field.text == "nf":
            return Atom("nf", (head,))
        if field.text == "is_primary":
            return Atom("is_primary", (head,))
        if field.text == "sent":
            if self.peek().text == "(":
                return self.client_message("sent", head)
            msg = self._term()
            self.expect("to")
            other = self._term()
            return Atom("sent", (head, msg, other))
        if field.text == "received":
            if self.peek().text == "(":
                return self.client_message("received", head)
            msg = self._term()
            self.expect("from")
            other = self._term()
            return Atom("received", (head, msg, other))
        if field.text in ("voted", "learned", "executed"):
            args = self.fact_args()
            arity = {"voted": (2, 3), "learned": (1, 2), "executed": (1, 2)}[field.text]
            if len(args) not in arity:
                raise SpecSyntaxError(
                    field.span,
                    (f"{field.text} with {' or '.join(map(str, arity))} arguments",),
                    f"{len(args)} arguments",
                )
            return Atom(field.text, (head,) + args)
        raise SpecSyntaxError(
            field.span,
            ("nf", "is_primary", "sent", "received", "voted", "learned", "executed"),
            field.text or "end of input",
        )

    def fact_args(self) -> tuple:
        self.expect("(")
        args = [self._term()]
        while self.peek().text == ",":
            self.next()
            args.append(self._term())
        self.expect(")")
        return tuple(args)

    def client_message(self, direction: str, head) -> PropertyExpr:
        self.expect("(")
        tag = self.peek()
        if tag.kind != "str":
            raise SpecSyntaxError(tag.span, ("'req'", "'resp'"), tag.text)
        self.next()
        tag_text = tag.text[1:-1]
        self.expect(",")
        value = self._term()
        has_res = False
        if self.peek().text == ",":
            self.next()
            self.expect("res")
            self.expect("(")
            res_arg = self._term()
            self.expect(")")
            if res_arg != value:
                raise SpecSyntaxError(
                    tag.span, ("res applied to the requested value",), repr(res_arg))
            has_res = True
        self.expect(")")
        if direction == "sent":
            if tag_text != "req" or has_res:
                raise SpecSyntaxError(tag.span, ("'req'",), tag.text)
            return Atom("sent_req", (head, value))
        if tag_text != "resp":
            raise SpecSyntaxError(tag.span, ("'resp'",), tag.text)
        if has_res:
            return Atom("received_resp_res", (head, value))
        return Atom("received_resp", (head, value))


def parse(text: str, params: Optional[dict] = None) -> PropertyExpr:
    """Parse one property expression; parameters like D resolve via params."""
    return _Parser(text, params).parse()


_BLOCK_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z][\w-]*)\s*(?:\((?P<formals>[^)]*)\))?\s*=\s*(?P<body>.+)$"
)


def parse_blocks(text: str, params: Optional[dict] = None) -> dict:
    """Parse a `.lspec` file of `Name = expr` / `Name(P,..) = expr` blocks.

    Blank lines and lines starting with `#` are skipped.  A file holding a
    single bare expression parses to the name ``property``.
    """
    out = {}
    lines = [l for l in text.splitlines() if l.strip() and not l.lstrip().startswith("#")]
    if len(lines) == 1 and not _BLOCK_RE.match(lines[0]):
        out["property"] = parse(lines[0], params)
        return out
    for line in lines:
        m = _BLOCK_RE.match(line)
        if not m:
            out["property"] = parse(line, params)
            continue
        formals = [f.strip() for f in (m.group("formals") or "").split(",") if f.strip()]
        missing = [f for f in formals if f not in (params or {})]
        if missing:
            raise UnboundParameter(missing[0])
        out[m.group("name")] = parse(m.group("body"), params)
    return out


# ---------------------------------------------------------------------------
# canonical printer

_PREC_QUANT = 0
_PREC_IMPLIES = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_UNARY = 4
_PREC_POSTFIX = 5


def _time_text(t: TimeTerm) -> str:
    if isinstance(t, TLit):
        return str(t.value)
    if isinstance(t, TVar):
        return t.name
    if isinstance(t, TNow):
        return "."
    if isinstance(t, TPlus):
        return f"{_time_text(t.base)}+{t.offset}"
    raise TypeError(f"not a time term: {t!r}")


def _interval_text(ivl: Interval) -> str:
    lo = "[" if ivl.lo_closed else "("
    hi_txt = "inf" if ivl.hi is None else _time_text(ivl.hi)
    hi = "]" if ivl.hi is not None and ivl.hi_closed else ")"
    return f"{lo}{_time_text(ivl.lo)},{hi_txt}{hi}"


def _term_text(term) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Const):
        if isinstance(term.value, int):
            return str(term.value)
        return f"'{term.value}'"
    raise TypeError(f"not a term: {term!r}")


def _domain_text(dom) -> str:
    if isinstance(dom, NamedDomain):
        return dom.name
    if isinstance(dom, SlotRange):
        return f"1..{dom.n}"
    if isinstance(dom, MemberDomain):
        return dom.var
    if isinstance(dom, TickDomain):
        return _interval_text(dom.interval)
    raise TypeError(f"not a printable domain: {dom!r}")


def print_expr(expr: PropertyExpr) -> str:
    """Canonical text; ``parse(print_expr(e))`` is structurally ``e``.

    A quantifier's body runs to the end of the enclosing expression, so a
    quantified subexpression prints bare only in tail position; anywhere
    else it is parenthesized to keep the following tokens outside its body.
    """

    def group(e, parent_prec: int, tail: bool) -> str:
        text, prec = render(e, tail)
        if prec < parent_prec:
            return f"({text})"
        return text

    def render(e, tail: bool) -> tuple:
        if isinstance(e, TrueE):
            return "true", _PREC_POSTFIX
        if isinstance(e, FalseE):
            return "false", _PREC_POSTFIX
        if isinstance(e, Atom):
            return atom_text(e), _PREC_POSTFIX
        if isinstance(e, NfSet):
            if isinstance(e.target, ServersSet):
                return "servers nf", _PREC_POSTFIX
            return f"{e.target.name} nf", _PREC_POSTFIX
        if isinstance(e, ServersEq):
            return (
                f"servers at {_time_text(e.t1)} = servers at {_time_text(e.t2)}",
                _PREC_POSTFIX,
            )
        if isinstance(e, Not):
            return f"not {group(e.body, _PREC_UNARY, tail)}", _PREC_UNARY
        if isinstance(e, And):
            left = group(e.left, _PREC_AND, False)
            return f"{left} and {group(e.right, _PREC_AND + 1, tail)}", _PREC_AND
        if isinstance(e, Or):
            left = group(e.left, _PREC_OR, False)
            return f"{left} or {group(e.right, _PREC_OR + 1, tail)}", _PREC_OR
        if isinstance(e, Implies):
            left = group(e.left, _PREC_IMPLIES + 1, False)
            right = group(e.right, _PREC_IMPLIES, tail)
            return f"{left} implies {right}", _PREC_IMPLIES
        if isinstance(e, (Each, Some)):
            kind = "each" if isinstance(e, Each) else "some"
            binders = [(e.var, e.domain)]
            body = e.body
            while isinstance(body, type(e)) and not isinstance(body.domain, TickDomain):
                if isinstance(binders[-1][1], TickDomain):
                    break
                binders.append((body.var, body.domain))
                body = body.body
            btxt = ", ".join(f"{v} in {_domain_text(d)}" for v, d in binders)
            text = f"{kind} {btxt} has {group(body, _PREC_QUANT, True)}"
            if not tail:
                return f"({text})", _PREC_POSTFIX
            return text, _PREC_QUANT
        if isinstance(e, (EachSent, SomeSent)):
            kind = "each" if isinstance(e, EachSent) else "some"
            text = (f"{kind} {e.sender}.sent {e.message} to {e.receiver} has "
                    f"{group(e.body, _PREC_QUANT, True)}")
            if not tail:
                return f"({text})", _PREC_POSTFIX
            return text, _PREC_QUANT
        if isinstance(e, Alw):
            return f"alw {prefix_body(e.body, tail)}", _PREC_UNARY
        if isinstance(e, Evt):
            return f"evt {prefix_body(e.body, tail)}", _PREC_UNARY
        if isinstance(e, During):
            return (
                f"{group(e.body, _PREC_POSTFIX, False)} during {_interval_text(e.interval)}",
                _PREC_POSTFIX,
            )
        if isinstance(e, Lasts):
            return (f"{group(e.body, _PREC_POSTFIX, False)} lasts {e.duration}",
                    _PREC_POSTFIX)
        if isinstance(e, After):
            return (f"{group(e.body, _PREC_POSTFIX, False)} after {e.duration}",
                    _PREC_POSTFIX)
        if isinstance(e, At):
            return (f"{group(e.body, _PREC_POSTFIX, False)} at {_time_text(e.time)}",
                    _PREC_POSTFIX)
        raise TypeError(f"not a printable expression: {e!r}")

    def prefix_body(body, tail: bool) -> str:
        text, prec = render(body, tail)
        if prec in (_PREC_QUANT, _PREC_UNARY, _PREC_POSTFIX):
            return text
        return f"({text})"

    def atom_text(a: Atom) -> str:
        args = a.args
        if a.name == "nf":
            return f"{_term_text(args[0])}.nf"
        if a.name == "is_primary":
            return f"{_term_text(args[0])}.is_primary"
        if a.name == "sent":
            return f"{_term_text(args[0])}.sent {_term_text(args[1])} to {_term_text(args[2])}"
        if a.name == "received":
            return f"{_term_text(args[0])}.received {_term_text(args[1])} from {_term_text(args[2])}"
        if a.name in ("voted", "learned", "executed"):
            inner = ",".join(_term_text(x) for x in args[1:])
            return f"{_term_text(args[0])}.{a.name} ({inner})"
        if a.name == "sent_req":
            return f"{_term_text(args[0])}.sent ('req',{_term_text(args[1])})"
        if a.name == "received_resp":
            return f"{_term_text(args[0])}.received ('resp',{_term_text(args[1])})"
        if a.name == "received_resp_res":
            v = _term_text(args[1])
            return f"{_term_text(args[0])}.received ('resp',{v},res({v}))"
        raise TypeError(f"unknown atom {a.name!r}")

    check_scoped(expr)
    text, _prec = render(expr, True)
    return text
