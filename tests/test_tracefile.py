import io
import json
import random

import pytest

from livenesslab.adversary import alwq_adversary, raw_blackout
from livenesslab.hierarchy import random_lasso
from livenesslab.machine import make_config
from livenesslab.scenarios import paxos_complex_livelock_lasso, raft_eachvote_lasso
from livenesslab.tracefile import TraceFormatError, trace_from_text, trace_to_text


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


def _drop_field(lines, n, field):
    rec = json.loads(lines[n])
    del rec[field]
    lines[n] = json.dumps(rec)


def test_malformed_trace_files_name_the_line():
    def blank_then_drop(lines):
        lines.insert(1, "")           # blank lines are skipped but counted
        _drop_field(lines, 3, "sent")

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
    ]
    for change, message in header_cases:
        text = "\n".join([json.dumps({**header, **change})] + lines[1:])
        with pytest.raises(TraceFormatError) as exc:
            read_schedule(io.StringIO(text))
        assert exc.value.line == 1
        assert str(exc.value) == f"line 1: {message}"
