"""Concrete syntax for the property language: parser and canonical printer.

The grammar mirrors the assumption/assertion notation: quantifiers bind
weakest, then implies, or, and, not; the prefix operators evt/alw and the
postfix operators during/lasts/after/at bind tightest.  A quantifier is
allowed directly after a prefix operator or a binary connective and then
swallows the rest of the expression.

The atoms' written forms (``temporal.ATOM_FORMS``) and the operator tables
below are the one description of the syntax that both directions read.

Named durations and bounds (D, D1, D2, n) are resolved at parse time from a
caller-supplied binding environment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .temporal import (
    ATOM_FORMS, After, Alw, And, Atom, At, Const, During, Each, EachSent, Evt,
    FalseE, Implies, Interval, Lasts, MemberDomain, NamedDomain, NfSet, Not,
    Or, PropertyExpr, ServersEq, ServersSet, SlotRange, Some, SomeSent,
    TickDomain, TLit, TNow, TPlus, TVar, TimeTerm, TrueE, Var, check_scoped,
    tplus,
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
        self.reason = f"expected {' or '.join(self.expected)}, found {found!r}"
        super().__init__(f"line {span.line}:{span.column}: {self.reason}")


class UnknownDomain(LanguageError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unknown domain {name!r}")


class UnboundParameter(LanguageError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"parameter {name!r} has no binding")


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


# ---------------------------------------------------------------------------
# the syntax tables, read by the parser and the printer

def _atom_pattern(written: str) -> tuple:
    """An atom's written form as tokens: token texts to match, and ints for
    the argument positions."""
    items = []
    for k, part in enumerate(re.split(r"\{(\d)\}", written)):
        items += [int(part)] if k % 2 else [tok.text for tok in _tokenize(part)[:-1]]
    return tuple(items)


#: (atom name, arity) -> its written form's tokens after the head argument
_ATOM_PATTERNS = {key: _atom_pattern(form.written)[1:] for key, form in ATOM_FORMS.items()}

#: prefix operators; each may be followed directly by a quantifier
_PREFIX = {"not": Not, "evt": Evt, "alw": Alw}

#: binary connectives, weakest first: (word, node class, right-associative)
_BINARY = (("implies", Implies, True), ("or", Or, False), ("and", And, False))

#: postfix operators: word -> (node class, operand field, the _Parser
#: method reading the operand, the function writing it)
_POSTFIX = {
    "during": (During, "interval", "interval", _interval_text),
    "lasts": (Lasts, "duration", "int_or_param", str),
    "after": (After, "duration", "int_or_param", str),
    "at": (At, "time", "time_term", _time_text),
}

#: words that cannot name a variable: the literal words and every word of
#: the tables above
_KEYWORDS = {
    "each", "some", "has", "in", "inf", "true", "false", *_PREFIX, *_POSTFIX, *_DOMAIN_NAMES,
    *(word for word, _cls, _right in _BINARY),
    *(tok for pattern in _ATOM_PATTERNS.values() for tok in pattern
      if isinstance(tok, str) and tok.isidentifier()),
}

# printing precedences: a quantifier, then the binary levels, then the rest
_PREC_QUANT, _PREC_UNARY, _PREC_POSTFIX = 0, len(_BINARY) + 1, len(_BINARY) + 2

#: the deepest nesting the parser accepts: every parenthesis, prefix
#: operator, quantifier and chained binary or postfix operator opens one
#: level.  The parser and the tree walkers after it recurse per level, so
#: this keeps them well inside Python's recursion limit.
MAX_NESTING = 64


class _Parser:
    def __init__(self, text: str, params: Optional[dict] = None):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.params = dict(params or {})
        self.time_vars: set = set()
        self.bound: list = []  # variables in scope, innermost last
        self.depth = -1        # nesting levels open; see MAX_NESTING

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

    def nest(self, tok: _Tok) -> None:
        """Open one level of nesting at ``tok``; the caller closes it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise LanguageError(f"line {tok.span.line}:{tok.span.column}: nesting "
                                f"deeper than {MAX_NESTING} levels")

    def param(self, tok: _Tok) -> int:
        """The value bound to the parameter ``tok`` names; durations, slot
        counts and tick offsets are never negative."""
        if tok.text not in self.params:
            raise UnboundParameter(tok.text)
        value = int(self.params[tok.text])
        if value < 0:
            raise LanguageError(f"line {tok.span.line}:{tok.span.column}: parameter "
                                f"{tok.text!r} is bound to {value}, not a non-negative integer")
        return value

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
        self.nest(self.peek())
        expr = self.quantified() if self.at_quantifier() else self.binary(0)
        self.depth -= 1
        return expr

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
            count = self.peek()
            n = self.int_or_param()
            if n < 1:
                raise LanguageError(f"line {count.span.line}:{count.span.column}: the slot "
                                    f"count must be at least 1, got {n}")
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
            return self.param(tok)
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
            if tok.text not in self.time_vars and tok.text in self.params:
                return TLit(self.param(tok))
            # a variable bound by an enclosing tick quantifier that the
            # scope checker will confirm
            return TVar(tok.text)
        raise SpecSyntaxError(tok.span, ("a time term",), tok.text or "end of input")

    def binary(self, level: int) -> PropertyExpr:
        if level == len(_BINARY):
            return self.unary()
        word, cls, right_assoc = _BINARY[level]
        depth = self.depth
        left = self.binary(level + 1)
        while self.peek().text == word:
            self.nest(self.next())
            if self.at_quantifier():
                left = cls(left, self.quantified())
                break
            if right_assoc:
                left = cls(left, self.binary(level))
                break
            left = cls(left, self.binary(level + 1))
        self.depth = depth
        return left

    def unary(self) -> PropertyExpr:
        cls = _PREFIX.get(self.peek().text)
        if cls is None:
            return self.postfix()
        self.nest(self.next())
        expr = cls(self.quantified() if self.at_quantifier() else self.unary())
        self.depth -= 1
        return expr

    def postfix(self) -> PropertyExpr:
        depth = self.depth
        expr = self.primary()
        while self.peek().text in _POSTFIX:
            self.nest(self.peek())
            cls, _field, read, _write = _POSTFIX[self.next().text]
            expr = cls(expr, getattr(self, read)())
        self.depth = depth
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
        head = _term_of(tok)
        if head is None or tok.kind == "int":
            raise SpecSyntaxError(
                tok.span,
                ("'('", "true", "false", "an atom"),
                tok.text or "end of input",
            )
        self.next()
        nf = self.peek()
        if nf.text == "nf":
            self.next()
            if isinstance(head, Const):
                raise SpecSyntaxError(nf.span, ("a set variable before nf",), nf.text)
            return NfSet(head)
        return self.atom(head)

    def atom(self, head) -> Atom:
        """The atom whose written form the tokens after ``head`` spell."""
        start = self.pos
        failures = []    # (token position, the pattern item not matched there)
        for (name, arity), pattern in _ATOM_PATTERNS.items():
            self.pos = start
            args = {0: head}
            for item in pattern:
                tok = self.peek()
                if isinstance(item, str):
                    matched = tok.text == item
                else:
                    term = _term_of(tok)
                    matched = term is not None and args.setdefault(item, term) == term
                if not matched:
                    failures.append((self.pos, item))
                    break
                self.next()
            else:
                return Atom(name, tuple(args[k] for k in range(arity)))
        self.pos = max(pos for pos, _item in failures)
        tok = self.peek()
        expected = dict.fromkeys(
            repr(item) if isinstance(item, str) else "an argument"
            for pos, item in failures if pos == self.pos)
        raise SpecSyntaxError(tok.span, expected, tok.text or "end of input")


def _term_of(tok: _Tok) -> "Var | Const | None":
    """The atom argument ``tok`` spells, or None."""
    if tok.kind == "str":
        return Const(tok.text[1:-1])
    if tok.kind == "int":
        return Const(int(tok.text))
    if tok.kind == "ident" and tok.text not in _KEYWORDS:
        return Var(tok.text)
    return None


def parse(text: str, params: Optional[dict] = None) -> PropertyExpr:
    """Parse one property expression; parameters like D resolve via params."""
    return _Parser(text, params).parse()


_BLOCK_RE = re.compile(
    r"^\s*(?P<name>[A-Za-z][\w-]*)\s*(?:\((?P<formals>[^)]*)\))?\s*=\s*(?P<body>.+)$"
)


def parse_blocks(text: str, params: Optional[dict] = None) -> dict:
    """Parse a `.lspec` file of `Name = expr` / `Name(P,..) = expr` blocks.

    Blank lines and lines starting with `#` are skipped.  A line holding a
    bare expression parses to the name ``property``.
    """
    out = {}
    lines = [l for l in text.splitlines() if l.strip() and not l.lstrip().startswith("#")]
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


_PREFIX_WORD = {cls: word for word, cls in _PREFIX.items()}
_BINARY_OP = {cls: (word, prec, right_assoc)
              for prec, (word, cls, right_assoc) in enumerate(_BINARY, _PREC_QUANT + 1)}
_POSTFIX_OP = {cls: (word, field, write) for word, (cls, field, _read, write) in _POSTFIX.items()}


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
            form = ATOM_FORMS.get((e.name, len(e.args)))
            if form is None:
                raise TypeError(f"unknown atom {e.name!r} of arity {len(e.args)}")
            return form.written.format(*map(_term_text, e.args)), _PREC_POSTFIX
        if isinstance(e, NfSet):
            if isinstance(e.target, ServersSet):
                return "servers nf", _PREC_POSTFIX
            return f"{e.target.name} nf", _PREC_POSTFIX
        if isinstance(e, ServersEq):
            return (
                f"servers at {_time_text(e.t1)} = servers at {_time_text(e.t2)}",
                _PREC_POSTFIX,
            )
        if type(e) in _PREFIX_WORD:
            text, prec = render(e.body, tail)
            # evt and alw take a quantified body bare; not parenthesizes it
            if prec < _PREC_UNARY and (prec != _PREC_QUANT or isinstance(e, Not)):
                text = f"({text})"
            return f"{_PREFIX_WORD[type(e)]} {text}", _PREC_UNARY
        if type(e) in _BINARY_OP:
            word, prec, right_assoc = _BINARY_OP[type(e)]
            left_prec, right_prec = (prec + 1, prec) if right_assoc else (prec, prec + 1)
            left = group(e.left, left_prec, False)
            return f"{left} {word} {group(e.right, right_prec, tail)}", prec
        if isinstance(e, (Each, Some, EachSent, SomeSent)):
            kind = "each" if isinstance(e, (Each, EachSent)) else "some"
            body = e.body
            if isinstance(e, (EachSent, SomeSent)):
                head = f"{e.sender}.sent {e.message} to {e.receiver}"
            else:
                binders = [(e.var, e.domain)]
                while (isinstance(body, type(e)) and not isinstance(body.domain, TickDomain)
                       and not isinstance(binders[-1][1], TickDomain)):
                    binders.append((body.var, body.domain))
                    body = body.body
                head = ", ".join(f"{v} in {_domain_text(d)}" for v, d in binders)
            text = f"{kind} {head} has {group(body, _PREC_QUANT, True)}"
            if not tail:
                return f"({text})", _PREC_POSTFIX
            return text, _PREC_QUANT
        if type(e) in _POSTFIX_OP:
            word, field, write = _POSTFIX_OP[type(e)]
            return (f"{group(e.body, _PREC_POSTFIX, False)} {word} {write(getattr(e, field))}",
                    _PREC_POSTFIX)
        raise TypeError(f"not a printable expression: {e!r}")

    check_scoped(expr)
    text, _prec = render(expr, True)
    return text
