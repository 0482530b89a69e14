import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from livenesslab import catalog
from livenesslab.catalog import (
    ASSERTION_MULTI, ASSERTION_SINGLE, LINK, SERVER, CatalogId,
    MissingParameter, UnknownProperty, assertion_multi, assertion_single, build,
    catalog_entries, hierarchy_edges, link_property, resolve_name,
    server_property,
)
from livenesslab.hierarchy import corpus_config
from livenesslab.scenarios import TraceBuilder
from livenesslab.temporal import eval_expr

from oracles import naive_eval


def test_resolve_name_accepts_spec_spellings():
    assert resolve_name("AlwQ") == "Alw-Q"
    assert resolve_name("PQExtraDur") == "PQ-Extra-Dur"
    assert resolve_name("some-learn") == "Some-Learn"
    assert resolve_name("EachVote") == "Each-Vote"
    with pytest.raises(UnknownProperty):
        resolve_name("Nope")


def test_resolve_name_keys_every_spelling_without_separators():
    assert resolve_name("alw_q") == "Alw-Q"
    assert resolve_name("PQ Extra Dur") == "PQ-Extra-Dur"
    assert resolve_name("pqextradur") == "PQ-Extra-Dur"
    assert resolve_name("Each-Vote") == "Each-Vote"
    assert resolve_name("q_alw-") == "Q-Alw"
    names = catalog.LINK_NAMES + catalog.SERVER_NAMES + catalog.ASSERTION_NAMES
    for name in names:
        for spelling in (name, name.upper(), name.lower(), name.replace("-", ""),
                         name.replace("-", "_"), name.replace("-", " ")):
            assert resolve_name(spelling) == name
    for unknown in ("Nope", "", "Alw-Q-Q", "Sure2", "Alw.Q"):
        with pytest.raises(UnknownProperty):
            resolve_name(unknown)


def test_durations_must_be_non_negative():
    for bad in (dict(D=-1), dict(D=-3)):
        with pytest.raises(MissingParameter, match="non-negative"):
            server_property("PQ-Dur", **bad)
    for bad in (dict(D1=-1, D2=5), dict(D1=1, D2=-5), dict(D1=-1, D2=-5)):
        with pytest.raises(MissingParameter, match="non-negative"):
            server_property("PQ-Extra-Dur", **bad)
    assert server_property("PQ-Dur", D=0) is not None
    assert server_property("PQ-Extra-Dur", D1=0, D2=0) is not None


def test_parameter_validation():
    with pytest.raises(MissingParameter):
        link_property("Sure")
    with pytest.raises(MissingParameter):
        server_property("PQ-Dur")
    with pytest.raises(MissingParameter):
        server_property("PQ-Extra-Dur", D1=2)
    with pytest.raises(MissingParameter):
        assertion_multi("Each-Vote")
    with pytest.raises(MissingParameter):
        assertion_multi("Some-Exec", 0)
    assert assertion_multi("Resp") is not None  # multi Resp has no n


def test_build_dispatch_matches_constructors():
    constructors = {LINK: link_property, SERVER: server_property,
                    ASSERTION_SINGLE: assertion_single,
                    ASSERTION_MULTI: assertion_multi}
    values = {"D": 4, "D1": 1, "D2": 2, "n": 3}
    missing = {
        (LINK, "Sure"): "Sure needs a delivery bound D",
        (SERVER, "PQ-Dur"): "PQ-Dur needs a duration D",
        (SERVER, "PQ-Extra-Dur"): "PQ-Extra-Dur needs durations D1 and D2",
        **{(ASSERTION_MULTI, n): f"{n} needs the slot count n"
           for n in ("Each-Vote", "Some-Learn", "Each-Learn", "Some-Exec",
                     "Each-Exec")},
    }
    for cid, names, _text in catalog_entries():
        kwargs = {k: values[k] for k in names}
        full = CatalogId(cid.kind, cid.name, tuple(kwargs.values()))
        assert build(full) == constructors[cid.kind](cid.name, **kwargs), full
        if names:
            with pytest.raises(MissingParameter) as exc:
                build(cid)
            assert str(exc.value) == missing.pop((cid.kind, cid.name))
    assert not missing


def test_catalog_entries_cover_everything():
    rows = catalog_entries()
    assert len(rows) == 3 + 7 + 6 + 6
    by_label = {(cid.kind, cid.name): params for cid, params, _text in rows}
    assert by_label[(LINK, "Sure")] == ("D",)
    assert by_label[(SERVER, "PQ-Extra-Dur")] == ("D1", "D2")
    assert by_label[("assertion-multi", "Each-Vote")] == ("n",)
    assert by_label[("assertion-multi", "Resp")] == ()


def test_hierarchy_edges_content():
    solid, dashed = hierarchy_edges()
    labels = {(s.name, w.name) for s, w in solid}
    assert ("Fair", "Raw") in labels
    assert ("Sure", "Fair") in labels
    assert {("Alw", "PQ-Alw"), ("PQ-Alw", "Q-Alw"), ("Q-Alw", "Alw-Q"),
            ("PQ-Alw", "P-Alw-Q"), ("P-Alw-Q", "Alw-Q"),
            ("Alw", "PQ-Extra-Dur"), ("PQ-Extra-Dur", "PQ-Dur"),
            ("PQ-Alw", "PQ-Dur")} <= labels
    assert {("Each-Exec", "Some-Exec"), ("Each-Exec", "Each-Learn"),
            ("Each-Learn", "Some-Learn"), ("Some-Exec", "Some-Learn"),
            ("Some-Learn", "Each-Vote"), ("Resp", "Some-Exec")} <= labels
    assert len(solid) == 16
    assert dashed == ((CatalogId(ASSERTION_SINGLE, "Resp"),
                       CatalogId(ASSERTION_SINGLE, "Each-Exec")),)
    assert (("Resp", "Each-Exec")) not in labels


def _delivery_trace():
    """Five ticks; both sent messages get received before the cycle."""
    b = TraceBuilder(corpus_config())
    b.commit()
    b.send("s1", "m1", "s2").commit()
    b.deliver("s1", "m1", "s2").send("s2", "m2", "s3").commit()
    b.commit()
    b.deliver("s2", "m2", "s3").commit()
    return b.build(loop_start=4)


def test_fair_on_fully_delivered_trace_by_enumeration():
    tr = _delivery_trace()
    # oracle first: every sent triple shows up flipped in received
    limit = tr.states[-1]
    for (s, m, r) in limit.sent:
        assert (r, m, s) in limit.received
    assert eval_expr(link_property("Fair"), tr).is_holds
    assert eval_expr(link_property("Raw"), tr).is_holds
    # closed-world enumeration over the unrolled cycle agrees
    assert naive_eval(link_property("Fair"), list(tr.unrolled(2).states),
                      tr.config, open_ended=False) is True


def test_sure_boundary_semantics():
    # m2 is sent at tick 2 and received at tick 4: a lag of two ticks.
    # `after D` is strictly-after, so the bound 1 admits it and 0 does not.
    tr = _delivery_trace()
    assert eval_expr(link_property("Sure", D=1), tr).is_holds
    assert eval_expr(link_property("Sure", D=0), tr).is_violated
    # same-tick delivery satisfies every bound
    b = TraceBuilder(corpus_config())
    b.commit()
    b.deliver("s1", "m1", "s2").commit()
    prompt = b.build(loop_start=1)
    assert eval_expr(link_property("Sure", D=0), prompt).is_holds


def test_rotating_quorum_separates_alwq_from_qalw():
    # quorum {a1,a2} of the witness config is up on even ticks and {a2,a3}
    # on odd ticks: some quorum is always up, no quorum is up forever
    from livenesslab.machine import SystemConfig

    cfg = SystemConfig(proposers=("p1",), acceptors=("a1", "a2", "a3"),
                       clients=("c1",), rounds=(1,))
    b = TraceBuilder(cfg)
    everyone = set(b.nf)
    b.nf = everyone - {"a3"}
    b.commit()
    b.nf = everyone - {"a1"}
    b.commit()
    tr = b.build(loop_start=0)
    assert eval_expr(server_property("Alw-Q"), tr).is_holds
    assert eval_expr(server_property("Q-Alw"), tr).is_violated
    # hand enumeration on the unrolled prefix agrees
    assert naive_eval(server_property("Q-Alw"), list(tr.unrolled(3).states),
                      cfg) is not True


def test_alw_on_all_healthy_trace():
    b = TraceBuilder(corpus_config())
    for _ in range(3):
        b.commit()
    tr = b.build(loop_start=2)
    assert eval_expr(server_property("Alw"), tr).is_holds


def test_resp_single_three_tick_trace():
    b = TraceBuilder(corpus_config())
    b.commit()
    b.vote("s1", 1, 1, "v1").vote("s2", 1, 1, "v1").commit()
    b.learn("s1", 1, "v1").execute("s1", 1, "v1").respond("c1", "v1").commit()
    tr = b.build(loop_start=2)
    assert eval_expr(assertion_single("Resp"), tr).is_holds
    assert eval_expr(assertion_single("Some-Exec"), tr).is_holds


def test_sure_monotone_in_the_bound():
    tr = _delivery_trace()
    for d1 in range(0, 4):
        for d2 in range(d1, 5):
            v1 = eval_expr(link_property("Sure", D=d1), tr)
            v2 = eval_expr(link_property("Sure", D=d2), tr)
            if v1.is_holds:
                assert v2.is_holds


def test_ids_hash_once_and_pickle_their_fields_only():
    a = CatalogId(SERVER, "PQ-Dur", (3,))
    b = CatalogId(SERVER, "PQ-Dur", (3,))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((SERVER, "PQ-Dur", (3,)))
    assert a != CatalogId(SERVER, "PQ-Dur", (4,))
    assert {a: 1}[b] == 1
    assert repr(a) == "CatalogId(kind='server', name='PQ-Dur', params=(3,))"
    assert a.__reduce_ex__(4)[2] == {"kind": SERVER, "name": "PQ-Dur", "params": (3,)}
    loaded = pickle.loads(pickle.dumps(a))
    assert loaded == a and hash(loaded) == hash(a)
    # a process with another string hash seed finds a loaded id in its dicts
    code = ("import pickle, sys; from livenesslab.catalog import CatalogId; "
            "cid = pickle.loads(bytes.fromhex(sys.argv[1])); "
            "assert {CatalogId('server', 'PQ-Dur', (3,)): 1}[cid] == 1")
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": str(Path(catalog.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code, pickle.dumps(a).hex()],
                   env=env, check=True, timeout=60)

def test_params_only_on_parameterized_properties():
    with pytest.raises(UnknownProperty):
        CatalogId(ASSERTION_SINGLE, "Resp", (1,))
    with pytest.raises(UnknownProperty):
        CatalogId(LINK, "Fair", (2,))
    with pytest.raises(UnknownProperty):
        CatalogId(SERVER, "PQ-Extra-Dur", (1,))   # needs both durations
    CatalogId(SERVER, "PQ-Extra-Dur", (1, 2))
    CatalogId(LINK, "Sure")                       # open parameter is fine
