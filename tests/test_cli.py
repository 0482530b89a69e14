"""Every invocation documented in the README runs here and must match its
recorded output."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from livenesslab.cli import main
from livenesslab.language import MAX_NESTING


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_modelcheck_documented_line(capsys):
    code, out, _err = run(capsys, "modelcheck", "--proposers", "2",
                          "--acceptors", "3", "--start", "0")
    assert code == 0
    assert out.startswith("start=0 length=7 states=62 distinct_states=37 seconds=")


def test_modelcheck_with_one_acceptor(capsys):
    # every generated state is new, so the initial state is the one more
    code, out, _err = run(capsys, "modelcheck", "--proposers", "1",
                          "--acceptors", "1", "--start", "0")
    assert code == 0
    assert out.startswith("start=0 length=4 states=4 distinct_states=5 seconds=")


def test_modelcheck_csv_columns(tmp_path, capsys):
    csv = tmp_path / "stable.csv"
    code, out, _err = run(capsys, "modelcheck", "--proposers", "2",
                          "--acceptors", "3", "--start", "0", "1", "2", "3",
                          "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "start,length,states,distinct_states,seconds"
    lengths = [int(line.split(",")[1]) for line in lines[1:]]
    assert lengths == [7, 10, 13, 13]


def test_scenario_and_trace_check_verdicts(tmp_path, capsys):
    lasso = tmp_path / "raft.lasso"
    code, _out, _err = run(capsys, "scenario", "raft-eachvote", "--out", str(lasso))
    assert code == 0
    code, out, _err = run(capsys, "trace", "check", str(lasso),
                          "--property", "Some-Learn")
    assert code == 1
    assert out.strip() == "Some-Learn: Violated"
    code, out, _err = run(capsys, "trace", "check", str(lasso),
                          "--property", "Each-Vote")
    assert code == 0
    assert out.strip() == "Each-Vote: Holds"


def test_spec_parse_documented_dump(capsys):
    code, out, _err = run(capsys, "spec", "parse",
                          "evt alw some q in quorums has q nf")
    assert code == 0
    assert out == (
        "property:\n"
        "  Evt\n"
        "    Alw\n"
        "      Some(var='q', domain=NamedDomain(name='quorums', at=None))\n"
        "        NfSet(target=Var(name='q'))\n"
    )


def test_spec_parse_catalog_golden_digest(capsys):
    from livenesslab.catalog import CANONICAL_TEXT

    params = ["--param", "D=2", "--param", "D1=1", "--param", "D2=3",
              "--param", "n=2"]
    digest = hashlib.sha256()
    for text in CANONICAL_TEXT.values():
        code, out, _err = run(capsys, "spec", "parse", text, *params)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == \
        "a2bf49b3c2aa9e33932b5381ddfccbb5f02b99dd059acbfce0656ca1338d09cd"


def test_spec_print_with_param(capsys):
    code, out, _err = run(capsys, "spec", "print",
                          "each p1.sent m to p2 has (p2.received m from p1 after D)",
                          "--param", "D=3")
    assert code == 0
    assert out.strip() == \
        "property = each p1.sent m to p2 has p2.received m from p1 after 3"


def test_spec_parse_syntax_error_is_usage(capsys):
    code, _out, err = run(capsys, "spec", "parse", "evt alw some q in has q nf")
    assert code == 2
    assert "syntax error at 1:" in err


def test_catalog_list_has_all_rows(capsys):
    code, out, _err = run(capsys, "catalog", "list")
    assert code == 0
    assert len(out.strip().splitlines()) == 22
    assert "evt alw some q in quorums has q nf" in out


def test_catalog_list_formats(capsys):
    code, out, _err = run(capsys, "catalog", "list", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,name,params,text"
    assert len(lines) == 1 + 22
    code, out, _err = run(capsys, "catalog", "list", "--format", "records")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 22
    assert all(set(r) == {"kind", "name", "params", "text"} for r in records)


def test_format_is_a_catalog_list_option_only(tmp_path, capsys):
    lasso = tmp_path / "raft.lasso"
    assert run(capsys, "scenario", "raft-eachvote", "--out", str(lasso))[0] == 0
    for argv in (["trace", "check", str(lasso), "--property", "Fair",
                  "--format", "csv"],
                 ["--format", "csv", "catalog", "list"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_simulate_documented_runs(tmp_path, capsys):
    out_file = tmp_path / "run.trace"
    code, _out, err = run(capsys, "simulate", "--target", "Fair,Alw-Q",
                          "--mode", "satisfy", "--seed", "7",
                          "--out", str(out_file))
    assert code == 0
    assert "Fair: wanted satisfy, got Holds" in err
    rotate = tmp_path / "rotate.trace"
    code, _out, err = run(capsys, "simulate", "--target",
                          "Fair:satisfy,Q-Alw:violate", "--seed", "7",
                          "--out", str(rotate))
    assert code == 0
    assert "Q-Alw: wanted violate, got Violated" in err
    from livenesslab.tracefile import read_trace

    with open(out_file) as fp:
        trace = read_trace(fp)
    assert trace.loop_start is not None


def test_simulate_replays_no_schedule(tmp_path, capsys, monkeypatch):
    from livenesslab import adversary

    replays = []
    replay = adversary.run_schedule
    monkeypatch.setattr(adversary, "run_schedule",
                        lambda schedule: replays.append(schedule) or replay(schedule))
    code, _out, err = run(capsys, "simulate", "--target", "Fair,Alw-Q",
                          "--seed", "7", "--out", str(tmp_path / "run.trace"))
    assert code == 0
    assert "Fair: wanted satisfy, got Holds" in err
    assert len(replays) == 0


def test_hierarchy_check_documented(tmp_path, capsys):
    report = tmp_path / "hierarchy.txt"
    code, out, _err = run(capsys, "hierarchy", "check", "--corpus", "200",
                          "--seed", "1", "--report", str(report))
    assert code == 0
    assert "=> Raw" in out
    text = report.read_text()
    assert '"corpus_size": 200' in text


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["modelcheck", "--proposers", "2", "--acceptors", "3",
              "--start", "0", "--bogus"])
    assert exc.value.code == 2


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace multiprocessing.Pool by an in-process stand-in that records
    each pool's size, on a machine reporting three CPUs."""
    import multiprocessing

    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

        def starmap(self, fn, items, chunksize=1):
            return [fn(*x) for x in items]

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return sizes


def test_jobs_below_one_is_usage_error(capsys, pool_sizes):
    for argv in (["modelcheck", "--proposers", "1", "--acceptors", "1",
                  "--start", "0", "1"],
                 ["hierarchy", "check", "--corpus", "2"]):
        code, _out, err = run(capsys, *argv, "--jobs", "0")
        assert code == 2
        assert "error: --jobs must be at least 1, got 0" in err
    assert pool_sizes == []


def test_jobs_capped_at_cpus_and_work_items(capsys, pool_sizes):
    code, out, _err = run(capsys, "modelcheck", "--proposers", "1",
                          "--acceptors", "1", "--start", "0", "1",
                          "--jobs", "8")
    assert code == 0
    assert len(out.splitlines()) == 2
    for corpus in ("5", "1"):
        code, _out, _err = run(capsys, "hierarchy", "check",
                               "--corpus", corpus, "--jobs", "8")
        assert code == 0
    assert pool_sizes == [2, 3]           # two starts; three CPUs; one trace


def test_trace_check_undetermined_exit_code(tmp_path, capsys):
    # a finite prefix of the raft lasso cannot refute an eventuality
    from livenesslab.scenarios import raft_eachvote_lasso
    from livenesslab.temporal import Trace
    from livenesslab.tracefile import write_trace

    lasso = raft_eachvote_lasso()
    finite = Trace(lasso.states[:4], lasso.config)
    path = tmp_path / "prefix.trace"
    with open(path, "w") as fp:
        write_trace(finite, fp)
    code, out, _err = run(capsys, "trace", "check", str(path),
                          "--property", "Some-Learn")
    assert code == 3
    assert "Undetermined" in out


def test_trace_check_now_out_of_range_is_usage(tmp_path, capsys):
    lasso = tmp_path / "raft.lasso"
    run(capsys, "scenario", "raft-eachvote", "--out", str(lasso))
    code, out, err = run(capsys, "trace", "check", str(lasso),
                         "--property", "Some-Learn", "--now", "50")
    assert code == 2
    assert out == ""
    assert err.startswith("error: now=50 outside trace of length 10")


def test_trace_check_inconsistent_loop_start_is_usage(tmp_path, capsys):
    import json

    lasso = tmp_path / "raft.lasso"
    run(capsys, "scenario", "raft-eachvote", "--out", str(lasso))
    lines = lasso.read_text().splitlines()
    header = json.loads(lines[0])
    header["loop_start"] = 0          # histories grow after tick 0
    lines[0] = json.dumps(header)
    lasso.write_text("\n".join(lines) + "\n")
    code, _out, err = run(capsys, "trace", "check", str(lasso),
                          "--property", "Some-Learn")
    assert code == 2
    assert err.strip() == ("error: line 3: cumulative histories differ "
                           "between loop start and trace end")


def test_catalog_reference_missing_its_parameter_is_named(tmp_path, capsys):
    lasso = tmp_path / "raft.lasso"
    run(capsys, "scenario", "raft-eachvote", "--out", str(lasso))
    code, _out, err = run(capsys, "trace", "check", str(lasso), "--property", "Sure")
    assert code == 2
    assert err.strip() == "error: Sure needs a delivery bound D"


@pytest.mark.parametrize("ref, message", [
    ("Sure(1,2)", "Sure takes 1 parameter(s), got (1, 2)"),
    ("PQ-Dur(1,2,3)", "PQ-Dur takes 1 parameter(s), got (1, 2, 3)"),
    ("Fair(1)", "Fair takes 0 parameter(s), got (1,)"),
    ("Sure(x)", "Sure parameter D expects an integer, got 'x'"),
])
def test_catalog_reference_with_the_wrong_parameter_count_is_named(tmp_path, capsys,
                                                                   ref, message):
    lasso = tmp_path / "raft.lasso"
    run(capsys, "scenario", "raft-eachvote", "--out", str(lasso))
    code, out, err = run(capsys, "trace", "check", str(lasso), "--property", ref)
    assert (code, out) == (2, "")
    assert err.strip() == f"error: {message}"


def test_trace_check_with_an_empty_spec_file_is_usage(tmp_path, capsys):
    lasso = tmp_path / "raft.lasso"
    run(capsys, "scenario", "raft-eachvote", "--out", str(lasso))
    spec = tmp_path / "empty.lspec"
    spec.write_text("# nothing but a comment\n")
    code, out, err = run(capsys, "trace", "check", str(lasso), "--property", str(spec))
    assert (code, out) == (2, "")
    assert err.strip() == f"error: {spec} holds no property"


def test_spec_file_blocks_print_and_check(tmp_path, capsys):
    lasso = tmp_path / "raft.lasso"
    run(capsys, "scenario", "raft-eachvote", "--out", str(lasso))
    spec = tmp_path / "s.lspec"
    spec.write_text(
        "# a link and an assertion\n"
        "Sure(D) = each p1.sent m to p2 has (p2.received m from p1 after D)\n"
        "\n"
        "Learn = evt some p in servers, v in values has p.learned (v)\n")
    code, out, _err = run(capsys, "spec", "print", str(spec), "--param", "D=2")
    assert (code, out) == (0, (
        "Sure = each p1.sent m to p2 has p2.received m from p1 after 2\n"
        "Learn = evt some p in servers, v in values has p.learned (v)\n"))
    # the check takes the file's first property
    code, out, _err = run(capsys, "trace", "check", str(lasso), "--property", str(spec),
                          "--param", "D=2")
    assert (code, out) == (0, "Sure: Holds\n")
    for argv in (("spec", "print", str(spec)),
                 ("trace", "check", str(lasso), "--property", str(spec))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.strip() == "error: parameter 'D' has no binding"


def test_unreadable_or_malformed_trace_file_is_usage(tmp_path, capsys):
    code, out, err = run(capsys, "trace", "check", str(tmp_path / "missing.trace"),
                         "--property", "Some-Learn")
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2] No such file or directory")
    lasso = tmp_path / "raft.lasso"
    run(capsys, "scenario", "raft-eachvote", "--out", str(lasso))
    lines = lasso.read_text().splitlines()
    lines[2] = lines[2].replace('"sent"', '"sont"')
    lasso.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "trace", "check", str(lasso), "--property", "Some-Learn")
    assert (code, out) == (2, "")
    assert err.strip() == "error: line 3: state record lacks 'sent'"

    run(capsys, "scenario", "raft-eachvote", "--out", str(lasso))
    records = [json.loads(line) for line in lasso.read_text().splitlines()]
    for rec in records[1:]:
        rec["voted"] = [["s1", 1, 1]]
    lasso.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    code, out, err = run(capsys, "trace", "check", str(lasso), "--property", "Each-Vote")
    assert (code, out) == (2, "")
    assert err.strip() == "error: line 2: voted elements must be lists of 4, got ['s1', 1, 1]"


@pytest.mark.parametrize("target, message", [
    ("Each-Vote", "--target takes link and server assumptions, not Each-Vote"),
    ("Fair,Alw,Some-Learn", "--target takes link and server assumptions, not Some-Learn"),
    ("Fair,Raw", "--target takes at most one link and one server assumption"),
    ("Fair,Alw,Alw-Q", "--target takes at most one link and one server assumption"),
])
def test_simulate_target_must_name_one_link_and_one_server(capsys, target, message):
    code, out, err = run(capsys, "simulate", "--target", target)
    assert (code, out) == (2, "")
    assert err.strip() == f"error: {message}"


@pytest.mark.parametrize("size", ["0", "-3"])
def test_hierarchy_check_needs_a_corpus(capsys, size):
    code, out, err = run(capsys, "hierarchy", "check", "--corpus", size)
    assert (code, out) == (2, "")
    assert err.strip() == f"error: --corpus must be at least 1, got {size}"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_modelcheck_needs_a_state_budget(capsys, budget):
    code, out, err = run(capsys, "modelcheck", "--proposers", "2", "--acceptors", "3",
                         "--start", "0", "--max-states", budget)
    assert (code, out) == (2, "")
    assert err.strip() == f"error: --max-states must be at least 1, got {budget}"


@pytest.mark.parametrize("argv, message", [
    (["trace", "check", "LASSO", "--property", "PQ-Dur(-3)"],
     "error: the duration D must be non-negative"),
    (["trace", "check", "LASSO", "--property", "PQ-Extra-Dur(-1,-5)"],
     "error: the durations D1 and D2 must be non-negative"),
    (["simulate", "--target", "PQ-Dur(-2)"],
     "error: the duration D must be non-negative"),
    (["spec", "print", "some x in servers has alw (x.nf lasts D)", "--param", "D=-3"],
     "error: line 1:39: parameter 'D' is bound to -3, not a non-negative integer"),
    (["spec", "parse", "evt each s in 1..n has true", "--param", "n=-2"],
     "error: line 1:18: parameter 'n' is bound to -2, not a non-negative integer"),
])
def test_negative_durations_and_parameters_are_usage(tmp_path, capsys, argv, message):
    lasso = tmp_path / "raft.lasso"
    run(capsys, "scenario", "raft-eachvote", "--out", str(lasso))
    code, out, err = run(capsys, *[str(lasso) if a == "LASSO" else a for a in argv])
    assert (code, out) == (2, "")
    assert err.strip() == message


@pytest.mark.parametrize("argv", [
    ["evt each s in 1..n has true", "--param", "n=0"],
    ["evt each s in 1..0 has true"],
])
def test_an_empty_slot_range_is_usage(capsys, argv):
    code, out, err = run(capsys, "spec", "print", *argv)
    assert (code, out) == (2, "")
    assert err.strip() == "error: line 1:18: the slot count must be at least 1, got 0"


@pytest.mark.parametrize("param, message", [
    ("D=x", "--param D expects an integer, got 'x'"),
    ("D", "--param expects NAME=INT, got 'D'"),
])
def test_a_malformed_param_is_usage(capsys, param, message):
    code, out, err = run(capsys, "spec", "print", "alw true", "--param", param)
    assert (code, out) == (2, "")
    assert err.strip() == f"error: {message}"


def test_syntax_error_names_its_location_once(capsys):
    code, out, err = run(capsys, "spec", "parse", "evt alw some q in has q nf")
    assert (code, out) == (2, "")
    assert err.startswith("syntax error at 1:19: expected servers or clients")
    assert err.count("1:19") == 1


@pytest.mark.parametrize("action", ["parse", "print"])
def test_spec_on_an_empty_spec_file_is_usage(tmp_path, capsys, action):
    spec = tmp_path / "empty.lspec"
    spec.write_text("# nothing but a comment\n\n")
    code, out, err = run(capsys, "spec", action, str(spec))
    assert (code, out) == (2, "")
    assert err.strip() == f"error: {spec} holds no property"


def test_modelcheck_and_hierarchy_write_their_tables_to_out(tmp_path, capsys):
    mc = ["modelcheck", "--proposers", "2", "--acceptors", "3", "--start", "0", "1"]
    _code, shown, _err = run(capsys, *mc)
    code, out, _err = run(capsys, *mc, "--out", str(tmp_path / "mc.txt"))
    assert (code, out) == (0, "")
    written = (tmp_path / "mc.txt").read_text()
    drop_seconds = re.compile(r" seconds=\S+")
    assert drop_seconds.sub("", written) == drop_seconds.sub("", shown)
    assert written.count("\n") == 2
    h = ["hierarchy", "check", "--corpus", "20", "--seed", "1"]
    _code, shown, _err = run(capsys, *h)
    code, out, _err = run(capsys, *h, "--out", str(tmp_path / "h.txt"))
    assert (code, out) == (0, "")
    assert (tmp_path / "h.txt").read_text() == shown


@pytest.mark.parametrize("nested, column", [
    (lambda n: "(" * n + "true" + ")" * n, MAX_NESTING + 2),   # at the true
    (lambda n: "not " * n + "true", 4 * MAX_NESTING + 1),      # at the last not
], ids=["parentheses", "not chain"])
def test_nesting_bound_on_spec_and_trace_check(tmp_path, capsys, nested, column):
    lasso = str(tmp_path / "raft.lasso")
    assert run(capsys, "scenario", "raft-eachvote", "--out", lasso)[0] == 0
    for depth, codes in ((MAX_NESTING, (0, 1)), (MAX_NESTING + 1, (2,))):
        text = nested(depth)
        for argv in (["spec", "parse", text], ["spec", "print", text],
                     ["trace", "check", lasso, "--property", text]):
            code, _out, err = run(capsys, *argv)
            assert code in codes, (argv[:2], depth, err)
            if code == 2:
                assert err == (f"error: line 1:{column}: nesting deeper than "
                               f"{MAX_NESTING} levels\n")


def test_modelcheck_over_its_budget_exits_3(capsys):
    code, out, err = run(capsys, "modelcheck", "--proposers", "2", "--acceptors",
                         "3", "--start", "2", "--max-states", "10")
    assert (code, out) == (3, "")
    assert err.startswith("budget exceeded:")


def test_modelcheck_over_its_budget_in_a_worker_exits_3():
    # a real process pool, which pickles the worker's BudgetExceeded back
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "livenesslab.cli", "modelcheck", "--proposers", "2",
         "--acceptors", "3", "--start", "0", "1", "--jobs", "2", "--max-states", "10"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert (done.returncode, done.stdout) == (3, "")
    assert "budget exceeded: exceeded the state budget of 10" in done.stderr
    assert "Traceback" not in done.stderr


def test_simulate_of_an_unrealizable_target_exits_3(capsys):
    code, out, err = run(capsys, "simulate", "--target", "Sure(0)")
    assert (code, out) == (3, "")
    assert err.startswith("cannot realize:")


def test_simulate_schedule_out_replays_to_its_trace(tmp_path, capsys):
    from livenesslab.adversary import run_schedule
    from livenesslab.tracefile import read_schedule, trace_to_text

    trace, schedule = tmp_path / "run.trace", tmp_path / "run.schedule"
    code, _out, _err = run(capsys, "simulate", "--target", "Fair,Alw-Q", "--seed",
                           "7", "--out", str(trace), "--schedule-out", str(schedule))
    assert code == 0
    with open(schedule) as fp:
        replayed = run_schedule(read_schedule(fp))
    assert trace_to_text(replayed) == trace.read_text()


# --- argv fuzz ---------------------------------------------------------------

def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


_SMALL = st.integers(-1, 3)             # process counts and corpus sizes
_JOBS = st.sampled_from([-1, 0, 1])     # never a process pool
_FILES = st.sampled_from(["LASSO", "OUT", "MISSING"])
_PROPERTIES = st.one_of(
    st.sampled_from(["Some-Learn", "Each-Vote", "Sure(2)", "Sure(x)", "Sure(1,2)",
                     "Some-Learn(0)", "Bogus", "alw true", "evt (", "alw evt D",
                     "(" * (MAX_NESTING + 1) + "true" + ")" * (MAX_NESTING + 1)]),
    st.text(alphabet="() notalwevtrusD,.", max_size=24))
_TARGETS = st.sampled_from(["Fair,Alw-Q", "Sure(0)", "Raw:violate,Alw", "Q-Alw",
                            "Fair:bogus", "Some-Learn", "Fair,Raw", "",
                            "Sure(1):violate,PQ-Dur(2):violate"])

_COMMANDS = st.one_of(
    st.tuples(st.just(["catalog", "list"]),
              _opt("--format", st.sampled_from(["text", "csv", "records", "xml"]))),
    st.tuples(st.just(["spec"]), st.sampled_from([["parse"], ["print"], ["check"]]),
              _PROPERTIES.map(lambda p: [p]), _opt("--param", st.sampled_from(
                  ["D=2", "D=-1", "D=x", "=3", "D"]))),
    st.tuples(st.just(["trace", "check"]), _FILES.map(lambda f: [f]),
              _PROPERTIES.map(lambda p: ["--property", p]),
              _opt("--now", st.integers(-2, 40))),
    st.tuples(st.just(["simulate"]), _TARGETS.map(lambda t: ["--target", t]),
              _opt("--mode", st.sampled_from(["satisfy", "violate", "x"])),
              _opt("--proposers", _SMALL), _opt("--acceptors", _SMALL),
              _opt("--schedule-out", _FILES)),
    st.tuples(st.just(["scenario"]),
              st.sampled_from([["raft-eachvote"], ["paxos-complex-livelock"], ["x"]])),
    st.tuples(st.just(["modelcheck"]), _SMALL.map(lambda n: ["--proposers", str(n)]),
              _SMALL.map(lambda n: ["--acceptors", str(n)]),
              st.lists(st.integers(-1, 4).map(str), min_size=1, max_size=2).map(
                  lambda xs: ["--start", *xs]),
              st.integers(-1, 1000).map(lambda n: ["--max-states", str(n)]),
              _opt("--jobs", _JOBS)),
    st.tuples(st.just(["hierarchy", "check"]),
              _SMALL.map(lambda n: ["--corpus", str(n)]),
              _opt("--jobs", _JOBS), _opt("--report", _FILES)),
)


@st.composite
def _argv(draw):
    argv = [tok for part in draw(_COMMANDS) for tok in part]
    argv += draw(_opt("--seed", st.integers(-1, 9)))
    argv += draw(_opt("--out", _FILES))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(argv)))
        argv.insert(k, draw(st.sampled_from(["--bogus", "-", "--jobs", "3x", ""])))
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_argv())
def test_fuzz_argv_exits_with_a_documented_code(tmp_path_factory, argv):
    work = tmp_path_factory.mktemp("argv")
    lasso = str(work / "raft.lasso")
    files = {"LASSO": lasso, "OUT": str(work / "out"), "MISSING": str(work / "none")}
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["scenario", "raft-eachvote", "--out", lasso]) == 0
        try:
            code = main([files.get(tok, tok) for tok in argv])
        except SystemExit as exc:      # argparse rejects the command line
            code = exc.code
            assert code == 2, argv
    assert code in (0, 1, 2, 3), argv
