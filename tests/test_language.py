import contextlib
import hashlib
import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from livenesslab import catalog
from livenesslab.cli import main
from livenesslab.language import (
    _KEYWORDS, LanguageError, SpecSyntaxError, UnboundParameter, parse,
    parse_blocks, print_expr,
)
from livenesslab.temporal import (
    Alw, And, Atom, Each, EachSent, Evt, Implies, NfSet, Some, TemporalError,
    Var, eval_expr,
)
from livenesslab.hierarchy import make_corpus

from oracles import random_expr

PARAMS = {"D": 3, "D1": 2, "D2": 2, "n": 2}


def build_for(kind, name):
    if kind == catalog.LINK:
        return catalog.link_property(name, D=PARAMS["D"] if name == "Sure" else None)
    if kind == catalog.SERVER:
        if name == "PQ-Dur":
            return catalog.server_property(name, D=PARAMS["D"])
        if name == "PQ-Extra-Dur":
            return catalog.server_property(name, D1=PARAMS["D1"], D2=PARAMS["D2"])
        return catalog.server_property(name)
    if kind == catalog.ASSERTION_SINGLE:
        return catalog.assertion_single(name)
    return catalog.assertion_multi(name, None if name == "Resp" else PARAMS["n"])


def test_all_catalog_strings_parse_to_the_constructors():
    for (kind, name), text in catalog.CANONICAL_TEXT.items():
        assert parse(text, PARAMS) == build_for(kind, name), (kind, name)


def test_catalog_print_reparses_identically():
    for (kind, name), text in catalog.CANONICAL_TEXT.items():
        expr = parse(text, PARAMS)
        assert parse(print_expr(expr), PARAMS) == expr, (kind, name)


def test_sixteen_strings_of_record():
    assert len(catalog.CATALOG_STRINGS) == 16
    kinds = [k for (k, _n) in catalog.CATALOG_STRINGS]
    assert kinds.count(catalog.LINK) == 3
    assert kinds.count(catalog.SERVER) == 7
    assert kinds.count(catalog.ASSERTION_SINGLE) == 6


def test_fair_parses_to_event_quantification():
    expr = parse("each p1.sent m to p2 has evt p2.received m from p1")
    assert isinstance(expr, EachSent)
    assert expr.body == Evt(Atom("received", (Var("p2"), Var("m"), Var("p1"))))


def test_alwq_string_shape():
    expr = parse("evt alw some q in quorums has q nf")
    assert isinstance(expr, Evt)
    assert isinstance(expr.body, Alw)
    assert isinstance(expr.body.body, Some)
    assert expr.body.body.body == NfSet(Var("q"))


def test_paren_normalization():
    expr = parse("some p in servers, q in quorums has (p.nf and (q nf))")
    printed = print_expr(expr)
    assert printed == "some p in servers, q in quorums has p.nf and q nf"
    assert parse(printed) == expr


def test_quantifier_swallows_rest_after_connective():
    expr = parse("some p in servers has p.nf and some q in quorums has q nf and p.is_primary")
    # the inner quantifier owns everything to its right
    inner = expr.body
    assert isinstance(inner, And)
    assert isinstance(inner.right, Some)
    assert isinstance(inner.right.body, And)


def test_implies_is_right_associative():
    expr = parse("some c in clients, v in values has "
                 "c.sent ('req',v) implies c.sent ('req',v) implies c.received ('resp',v)")
    body = expr.body.body
    assert isinstance(body, Implies)
    assert isinstance(body.right, Implies)


def test_syntax_error_carries_span_and_expectations():
    with pytest.raises(SpecSyntaxError) as err:
        parse("evt alw some q in has q nf")
    assert err.value.span.line == 1
    assert err.value.expected


def test_unbound_parameter():
    with pytest.raises(UnboundParameter):
        parse("each p1.sent m to p2 has (p2.received m from p1 after D)")


def test_unknown_domain_rejected_at_parse_time():
    from livenesslab.language import UnknownDomain

    with pytest.raises(UnknownDomain):
        parse("some q in quorumz has q nf")
    # a set variable bound by an enclosing quantifier is a valid domain
    parse("some q in quorums has each p in q has p.nf")
    parse("some q in quorums, p in q has p.nf")


def test_parse_blocks():
    text = """
# two named properties
Mine = evt alw some q in quorums has q nf
Yours(D) = each p1.sent m to p2 has (p2.received m from p1 after D)
"""
    blocks = parse_blocks(text, {"D": 4})
    assert set(blocks) == {"Mine", "Yours"}
    assert blocks["Mine"] == catalog.server_property("Alw-Q")
    assert blocks["Yours"] == catalog.link_property("Sure", D=4)
    with pytest.raises(UnboundParameter):
        parse_blocks("Yours(D) = alw servers nf", {})


def test_single_expression_file():
    blocks = parse_blocks("evt alw servers nf\n")
    assert blocks == {"property": catalog.server_property("Alw")}


def test_random_roundtrip():
    rng = random.Random(5)
    exprs = [random_expr(rng, depth=4) for _ in range(300)]
    # constant terms, and a literal before a variable in a time term
    exprs += [parse(text) for text in (
        "some v in values has 'p1'.learned (v)",
        "some p in servers has p.voted (2,1,'v1')",
        "some t in [0,5] has servers at 3+t = servers at t")]
    for expr in exprs:
        printed = print_expr(expr)
        assert parse(printed) == expr, printed


def test_print_expr_golden_digest():
    """Printed text of the catalog and of 2000 random expressions is pinned."""
    params = {"D": 2, "D1": 1, "D2": 3, "n": 2}
    exprs = [parse(text, params) for text in catalog.CANONICAL_TEXT.values()]
    exprs += [random_expr(random.Random(k), depth=4) for k in range(2000)]
    digest = hashlib.sha256()
    for e in exprs:
        digest.update(f"{print_expr(e)}\n".encode())
    assert digest.hexdigest() == \
        "de94871d47edef6b92744ef85663d9f7fa23acdcaa4dbe412471035aa65a7114"


def test_parsed_equals_built_eval_equivalence_on_random_traces():
    corpus = make_corpus(40, seed=3)
    for (kind, name), text in catalog.CATALOG_STRINGS.items():
        parsed = parse(text, PARAMS)
        built = build_for(kind, name)
        for trace in corpus[:10]:
            assert eval_expr(parsed, trace) == eval_expr(built, trace)


def test_negative_parameter_bindings_are_rejected():
    # the least value each parameter takes: durations and tick offsets 0, a
    # slot count 1 (a slot range 1..0 would be empty)
    for text, name, least in [("some x in servers has alw (x.nf lasts D)", "D", 0),
                              ("some x in servers has x.nf after D", "D", 0),
                              ("evt each s in 1..n has true", "n", 1),
                              ("some t in [D,inf) has servers nf at t", "D", 0)]:
        with pytest.raises(LanguageError, match=rf"line 1:\d+: parameter '{name}'"):
            parse(text, {name: -2})
        parse(text, {name: least})
        if least:
            with pytest.raises(LanguageError, match=r"line 1:18: the slot count must be at "
                                                    r"least 1, got 0"):
                parse(text, {name: 0})


def test_syntax_error_names_what_each_atom_form_expects():
    with pytest.raises(SpecSyntaxError) as err:
        parse("some p in servers has p.bogus")
    assert err.value.span.column == 25
    assert "'voted'" in err.value.expected and "'nf'" in err.value.expected
    with pytest.raises(SpecSyntaxError) as err:
        parse("some c in clients, v in values, w in values has "
              "c.received ('resp',v,res(w))")
    assert str(err.value).startswith("line 1:")


# random token streams over the language's own vocabulary: every keyword and
# punctuation mark, a few identifiers, ints and quoted strings
_VOCAB = sorted(_KEYWORDS) + ["(", ")", ".", "..", "[", "]", ",", "=", "+",
                              "p", "q", "v", "x", "t", "m", "D", "n", "0", "1", "3",
                              "'req'", "'resp'", "'a'"]
_CATALOG_TOKENS = [re.findall(r"'[^']*'|\.\.|\w+|\S", text)
                   for text in catalog.CANONICAL_TEXT.values()]


@st.composite
def _token_stream(draw):
    words = st.lists(st.sampled_from(_VOCAB), max_size=12)
    if draw(st.booleans()):
        return " ".join(draw(words))
    toks = list(draw(st.sampled_from(_CATALOG_TOKENS)))
    i = draw(st.integers(0, len(toks)))
    j = draw(st.integers(i, min(len(toks), i + 3)))
    toks[i:j] = draw(words)
    return " ".join(toks)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_token_stream())
def test_fuzz_parse_and_spec_parse(text):
    params = {"D": 2, "D1": 1, "D2": 3, "n": 2}
    try:
        expr = parse(text, params)
    except (LanguageError, TemporalError):
        expr = None
    if expr is not None:
        assert parse(print_expr(expr)) == expr, text
    argv = ["spec", "parse", text] + [f"--param={k}={v}" for k, v in params.items()]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code == (2 if expr is None else 0), (text, err.getvalue())


@pytest.mark.parametrize("text", [
    " and ".join(["true"] * 2000),
    " implies ".join(["true"] * 2000),
    "true" + " lasts 1" * 2000,
    "evt " * 2000 + "true",
    "each x in servers has " * 2000 + "true",
])
def test_long_chains_are_refused_not_overflowed(text):
    with pytest.raises(LanguageError, match="nesting deeper than"):
        parse(text)
