import hashlib
import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from livenesslab.adversary import alwq_adversary, raw_blackout
from livenesslab.hierarchy import random_lasso
from livenesslab.machine import make_config
from livenesslab.scenarios import paxos_complex_livelock_lasso, raft_eachvote_lasso
from livenesslab.temporal import _HISTORY_FIELDS, ObservationState, Trace
from livenesslab.tracefile import TraceFormatError, _dump, trace_from_text, trace_to_text


def roundtrip(trace):
    text = trace_to_text(trace)
    loaded = trace_from_text(text)
    again = trace_to_text(loaded)
    assert again == text
    assert loaded.loop_start == trace.loop_start
    assert len(loaded.states) == len(trace.states)
    for a, b in zip(loaded.states, trace.states):
        assert a == b
    return loaded


def test_scenario_traces_roundtrip_bit_exact():
    roundtrip(raft_eachvote_lasso())
    roundtrip(paxos_complex_livelock_lasso())


def test_machine_traces_roundtrip_bit_exact():
    cfg = make_config(2, 3)
    roundtrip(alwq_adversary(cfg))
    roundtrip(raw_blackout(cfg))


def test_random_lassos_roundtrip():
    rng = random.Random(88)
    for _ in range(30):
        roundtrip(random_lasso(rng))


def test_look_alike_elements_keep_their_own_text():
    # 1, true and 1.0 are equal as set elements but are written differently
    looks = (1, True, 1.0)
    trace = Trace([ObservationState(sent=frozenset({("p1", x, "a1")})) for x in looks],
                  make_config(2, 3))
    roundtrip(trace)
    for line, word in zip(trace_to_text(trace).splitlines()[1:], ("1", "true", "1.0")):
        assert f'"sent":[["p1",{word},"a1"]]' in line


def _spaced_key(value):
    """The order sets were once written in: each element's spaced JSON text."""
    def sorted_set(s):
        if isinstance(s, frozenset):
            return sorted(s, key=_spaced_key)
        raise TypeError(type(s).__name__)
    return json.dumps(value, sort_keys=True, default=sorted_set)


_ELEMENTS = st.recursive(
    st.text(alphabet=',"\\[]: a1', max_size=4) | st.integers(-20, 20) | st.booleans()
    | st.floats(allow_nan=False, allow_infinity=False, width=16),
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.frozensets(inner, max_size=3),
    max_leaves=6)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.frozensets(_ELEMENTS, max_size=8))
def test_compact_text_orders_sets_as_the_spaced_text_did(members):
    by_compact = [_spaced_key(x) for x in sorted(members, key=_dump)]
    assert by_compact == sorted(map(_spaced_key, members))


def test_header_first_line_carries_config_and_loop():
    import json

    text = trace_to_text(raft_eachvote_lasso())
    header = json.loads(text.splitlines()[0])
    assert header["kind"] == "header"
    assert header["loop_start"] == 8
    assert header["config"]["slot_bound"] == 1
    assert sorted(header["config"]["proposers"]) == ["s1", "s2", "s3"]


def test_round_tuples_survive_the_trip():
    cfg = make_config(2, 3)
    loaded = roundtrip(alwq_adversary(cfg))
    assert loaded.config.rounds == cfg.rounds
    assert all(isinstance(r, tuple) for r in loaded.config.rounds)


def _broken_trace_text(edit):
    lines = trace_to_text(raft_eachvote_lasso()).splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


def _set_field(lines, n, field, value):
    rec = json.loads(lines[n])
    rec[field] = value
    lines[n] = json.dumps(rec)


def _set_config(lines, field, value):
    header = json.loads(lines[0])
    header["config"][field] = value
    lines[0] = json.dumps(header)


def _drop_field(lines, n, field):
    rec = json.loads(lines[n])
    del rec[field]
    lines[n] = json.dumps(rec)


def test_malformed_trace_files_name_the_line():
    def blank_then_drop(lines):
        lines.insert(1, "")           # blank lines are skipped but counted
        _drop_field(lines, 3, "sent")

    def unhashable_sent_then_short_vote(lines):
        _set_field(lines, 4, "sent", [["s1", {"m": 1}, "s2"]])
        _set_field(lines, 4, "voted", [["s1", 1, 1]])

    cases = [
        (lambda ls: _drop_field(ls, 2, "sent"), 3, "state record lacks 'sent'"),
        (blank_then_drop, 4, "state record lacks 'sent'"),
        (lambda ls: _drop_field(ls, 0, "config"), 1, "header record lacks 'config'"),
        (lambda ls: _drop_field(ls, 0, "kind"), 1, "trace file must start with"),
        (lambda ls: ls.__setitem__(0, ls[0].replace('"loop_start":8', '"loop_start":"8"')),
         1, "loop_start must be an integer or null, got '8'"),
        (lambda ls: ls.__setitem__(4, ls[4][:-1]), 5, "bad JSON"),
        (lambda ls: ls.insert(3, ls[0]), 4, "unexpected record kind 'header'"),
        (lambda ls: _set_field(ls, 2, "nf_procs", "s1s2"), 3,
         "nf_procs must be a list, got 's1s2'"),
        (lambda ls: _set_field(ls, 4, "voted", []), 5, "history field voted is not monotone"),
        (lambda ls: _set_field(ls, 10, "received", [["s2", "m", "s1"]]), 11,
         "a message was received that was never sent"),
        (lambda ls: _set_field(ls, 0, "loop_start", 6), 9,   # tick 7 votes again
         "cumulative histories differ between loop start and trace end"),
        (lambda ls: _set_field(ls, 0, "loop_start", 40), 1, "loop_start out of range"),
        (lambda ls: _set_field(ls, 4, "voted", [["s1", 1, 1]]), 5,
         "voted elements must be lists of 4, got ['s1', 1, 1]"),
        (unhashable_sent_then_short_vote, 5,           # every shape check before hashing
         "voted elements must be lists of 4, got ['s1', 1, 1]"),
        (lambda ls: _set_field(ls, 4, "sent", [["s1", {"m": 1}, "s2"]]), 5,
         "bad state record: unhashable type: 'dict'"),
        (lambda ls: _set_field(ls, 2, "received", [["a", "b"]]), 3,
         "received elements must be lists of 3, got ['a', 'b']"),
        (lambda ls: _set_field(ls, 2, "sent", ["abc"]), 3,
         "sent elements must be lists of 3, got 'abc'"),
        (lambda ls: _set_field(ls, 3, "requested", [["c1", "v1", "x"]]), 4,
         "requested elements must be lists of 2, got ['c1', 'v1', 'x']"),
        (lambda ls: _set_field(ls, 2, "roster", [["s1"]]), 3,
         "roster elements must be strings, got ['s1']"),
        (lambda ls: _set_field(ls, 2, "nf_procs", [{"s1": 1}]), 3,
         "nf_procs elements must be strings, got {'s1': 1}"),
        (lambda ls: _set_config(ls, "proposers", "s1"), 1,
         "bad config: proposers must be a list, got 's1'"),
        (lambda ls: _set_config(ls, "quorums", ["s1"]), 1,
         "bad config: a quorum must be a list, got 's1'"),
        (lambda ls: _set_config(ls, "slot_bound", "x"), 1,
         "bad config: slot_bound must be an integer, got 'x'"),
        (lambda ls: _set_config(ls, "acceptors", ["s1", None]), 1,
         "bad config: process names must be strings, got None"),
        (lambda ls: _set_config(ls, "values", ["v1", [{"v": 2}]]), 1,
         "bad config: values and rounds must not hold objects"),
    ]
    for edit, line, message in cases:
        with pytest.raises(TraceFormatError) as exc:
            trace_from_text(_broken_trace_text(edit))
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: {message}")
    with pytest.raises(TraceFormatError, match="line 1: empty trace file"):
        trace_from_text("\n")


def test_malformed_schedule_files_name_the_line():
    from livenesslab.adversary import AssumptionTarget, Demand, SATISFY, generate
    from livenesslab.catalog import LINK, CatalogId
    from livenesslab.tracefile import read_schedule, write_schedule

    with pytest.raises(TraceFormatError, match="line 1: empty schedule file"):
        read_schedule(io.StringIO(""))
    schedule = generate(AssumptionTarget(link=Demand(CatalogId(LINK, "Fair"), SATISFY)),
                        make_config(2, 3), seed=1)
    buf = io.StringIO()
    write_schedule(schedule, buf)
    lines = buf.getvalue().splitlines()
    lines[2] = '{"kind":"step"}'
    with pytest.raises(TraceFormatError,
                       match="line 3: step record needs an integer rank, got None"):
        read_schedule(io.StringIO("\n".join(lines)))
    with pytest.raises(TraceFormatError, match="line 1: bad JSON"):
        read_schedule(io.StringIO("{" + "\n".join(lines)))

    header = json.loads(lines[0])
    link = header["target"]["link"]
    header_cases = [
        ({"target": [1]}, "target must be an object or null, got [1]"),
        ({"fault_plan": 5}, "fault_plan must be a list, got 5"),
        ({"seed": "x"}, "seed must be an integer or null, got 'x'"),
        ({"target": {"link": {k: v for k, v in link.items() if k != "name"}}},
         "target demand lacks 'name'"),
        ({"target": {"link": {**link, "name": "Nope"}}},
         "bad target: 'Nope' is not a link property"),
        ({"target": {"link": {**link, "mode": "maybe"}}},
         "bad target: bad mode 'maybe'"),
        ({"target": {"link": {**link, "params": ["2"]}}},
         "bad target: params must be integers, got ['2']"),
        ({"target": {"server": link}},
         "bad target: server demand must name a server assumption"),
        ({"config": {**header["config"], "rounds": [1, 2]}},
         "bad config: a schedule's values must be strings and its rounds "
         "[integer, proposer] pairs"),
    ]
    for change, message in header_cases:
        text = "\n".join([json.dumps({**header, **change})] + lines[1:])
        with pytest.raises(TraceFormatError) as exc:
            read_schedule(io.StringIO(text))
        assert exc.value.line == 1
        assert str(exc.value) == f"line 1: {message}"


def _schedule_text():
    from livenesslab.adversary import AssumptionTarget, Demand, SATISFY, generate
    from livenesslab.catalog import LINK, CatalogId
    from livenesslab.tracefile import write_schedule

    schedule = generate(AssumptionTarget(link=Demand(CatalogId(LINK, "Fair"), SATISFY)),
                        make_config(2, 3), seed=1)
    buf = io.StringIO()
    write_schedule(schedule, buf)
    return buf.getvalue()


_CANONICAL = {"trace": trace_to_text(raft_eachvote_lasso()), "schedule": _schedule_text()}
_FUZZ_PROPERTIES = ("Each-Vote", "Some-Learn", "Fair", "Sure(2)", "PQ-Dur(2)", "Alw-Q")
_SUBSTITUTES = (None, True, 0, 1, -1, 3, "", "s1", "x", [], ["s1"], ["s1", 1], {}, {"a": 1})


def _paths(value, path=()):
    """Every path (of keys and indices) to a value inside ``value``."""
    yield path
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _paths(value[key], path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from _paths(item, path + (k,))


def _retyped(value):
    if isinstance(value, list):
        return json.dumps(value)
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, str):
        return [value]
    return str(value)


@st.composite
def _mutated_file(draw):
    """A canonical trace or schedule file with one JSON value replaced,
    dropped or retyped, or one line cut short."""
    kind = draw(st.sampled_from(sorted(_CANONICAL)))
    lines = _CANONICAL[kind].splitlines()
    n = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(("replace", "drop", "retype", "truncate")))
    if how == "truncate":
        lines[n] = lines[n][:draw(st.integers(0, len(lines[n]) - 1))]
        return kind, "\n".join(lines) + "\n"
    record = json.loads(lines[n])
    *parent, last = draw(st.sampled_from(list(_paths(record))[1:]))
    holder = record
    for step in parent:
        holder = holder[step]
    if how == "drop":
        del holder[last]
    elif how == "replace":
        holder[last] = draw(st.sampled_from(_SUBSTITUTES))
    else:
        holder[last] = _retyped(holder[last])
    lines[n] = json.dumps(record)
    return kind, "\n".join(lines) + "\n"


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_mutated_file(), st.sampled_from(_FUZZ_PROPERTIES))
def test_fuzz_mutated_trace_and_schedule_files(mutated, prop):
    import contextlib
    import tempfile

    from livenesslab.adversary import AdversaryError, run_schedule
    from livenesslab.cli import main
    from livenesslab.tracefile import read_schedule

    kind, text = mutated
    if kind == "trace":
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/mutated.trace"
            with open(path, "w") as fp:
                fp.write(text)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["trace", "check", path, "--property", prop])
        assert code in (0, 1, 2, 3), text
        return
    try:
        schedule = read_schedule(io.StringIO(text))
    except TraceFormatError:
        return
    try:
        run_schedule(schedule)
    except AdversaryError:
        pass


#: sha256 over the trace and schedule files of `adversary.simulate` for the
#: 84 demand targets, captured while `machine.apply_action` still copied
#: every history at every action
SIMULATED_FILES_SHA256 = "3f0bddd852275f922e97b040309f134072fc78f123ca708030b2f71cc69e944c"


def test_simulated_files_are_pinned_and_share_unchanged_histories():
    from livenesslab.adversary import CannotRealize, simulate
    from livenesslab.tracefile import write_schedule

    from test_evaluation import _demand_targets

    digest = hashlib.sha256()
    for target in _demand_targets():
        try:
            schedule, trace, _verdicts = simulate(target, make_config(2, 3), seed=0)
        except CannotRealize as exc:
            digest.update(f"unrealized: {exc}\n".encode())
            continue
        buf = io.StringIO()
        write_schedule(schedule, buf)
        text = trace_to_text(trace)
        digest.update(text.encode() + buf.getvalue().encode())
        for states in (trace.states, trace_from_text(text).states):
            for before, after in zip(states, states[1:]):
                for field in ("primaries",) + _HISTORY_FIELDS:
                    a, b = getattr(before, field), getattr(after, field)
                    assert a is b or a != b, field
    assert digest.hexdigest() == SIMULATED_FILES_SHA256
