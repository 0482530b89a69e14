"""Line-delimited trace and schedule files.

One JSON record per line: a header carrying the system config and the
optional loop start, then one record per tick with every set rendered as an
array sorted by its elements' written text.  Writing is canonical (sorted
keys, fixed separators), so write -> read -> write is byte-identical.

Each set and each element is encoded and decoded once per trace, because
consecutive ticks share unchanged sets and a grown set keeps its elements.
``write_trace`` keeps each set's and element's text by object identity and
``read_trace`` keeps each list's and element's decoded form by its
``marshal`` bytes (format 2, which writes no back-references), which tag
every value with its type.  Neither memo is keyed by value: ``1``, ``1.0``
and ``true`` are equal as set elements and as lists, but are written
differently.
"""

from __future__ import annotations

import io
import itertools
import json
import marshal
from typing import IO, Optional

from .adversary import AssumptionTarget, Demand, Schedule
from .catalog import CatalogError, CatalogId
from .machine import MachineError, SystemConfig
from .temporal import ObservationState, Trace, TraceInconsistent

#: set field -> the length of the arrays it holds; 0 for the per-tick
#: sets, whose elements are single values
_ARITY = {
    "nf_procs": 0, "primaries": 0, "roster": 0, "sent": 3, "received": 3, "voted": 4,
    "learned": 3, "executed": 3, "requested": 2, "responded": 3,
}
_SET_FIELDS = tuple(_ARITY)
#: a state record's keys in ``sort_keys`` order
_STATE_KEYS = tuple(sorted(_SET_FIELDS + ("kind", "tick")))


class TraceFormatError(ValueError):
    """A trace or schedule file that cannot be read, with the line at fault."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _records(fp: IO[str], what: str, header_kind: str, body_kind: str) -> list:
    """(line number, record) for every non-blank line: one header record,
    then body records."""
    records = []
    for n, line in enumerate(fp.read().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(n, f"bad JSON: {exc.msg}") from None
        kind = rec.get("kind") if isinstance(rec, dict) else None
        if not records and kind != header_kind:
            raise TraceFormatError(n, f"{what} file must start with a {header_kind} record")
        if records and kind != body_kind:
            raise TraceFormatError(n, f"unexpected record kind {kind!r}")
        records.append((n, rec))
    if not records:
        raise TraceFormatError(1, f"empty {what} file")
    return records


def _header_config(line: int, header: dict) -> SystemConfig:
    if "config" not in header:
        raise TraceFormatError(line, f"{header['kind']} record lacks 'config'")
    try:
        return config_from_record(header["config"])
    except KeyError as exc:
        raise TraceFormatError(line, f"config lacks {exc.args[0]!r}") from None
    except (TypeError, ValueError, MachineError) as exc:
        raise TraceFormatError(line, f"bad config: {exc}") from None


def _header_target(line: int, header: dict):
    record = header.get("target")
    if record is not None and not isinstance(record, dict):
        raise TraceFormatError(line, f"target must be an object or null, got {record!r}")
    try:
        return target_from_record(record)
    except KeyError as exc:
        raise TraceFormatError(line, f"target demand lacks {exc.args[0]!r}") from None
    except (TypeError, ValueError, CatalogError) as exc:
        raise TraceFormatError(line, f"bad target: {exc}") from None


def _int_or_null(line: int, header: dict, key: str):
    value = header.get(key)
    if value is not None and type(value) is not int:
        raise TraceFormatError(line, f"{key} must be an integer or null, got {value!r}")
    return value


def _sorted_set(value):
    """``json``'s hook for sets: an array ordered by its elements' text."""
    if isinstance(value, frozenset):
        return sorted(value, key=_dump)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _frozen(value):
    if isinstance(value, list):
        return tuple(_frozen(v) for v in value)
    return value


#: one value as canonical JSON text: sorted keys, no spaces, sets as arrays
_dump = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=_sorted_set).encode


def config_record(config: SystemConfig) -> dict:
    return {
        "proposers": list(config.proposers),
        "acceptors": list(config.acceptors),
        "clients": list(config.clients),
        "quorums": sorted((sorted(q) for q in config.quorums), key=_dump),
        "values": list(config.values),
        "rounds": list(config.rounds),
        "slot_bound": config.slot_bound,
    }


def _array(value, what: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a list, got {value!r}")
    return value


def config_from_record(rec: dict) -> SystemConfig:
    proposers, acceptors, clients, quorums, values, rounds = (_array(rec[key], key) for key in (
        "proposers", "acceptors", "clients", "quorums", "values", "rounds"))
    quorums = [_array(q, "a quorum") for q in quorums]
    for name in itertools.chain(proposers, acceptors, clients, *quorums):
        if not isinstance(name, str):
            raise TypeError(f"process names must be strings, got {name!r}")
    if type(rec["slot_bound"]) is not int:
        raise TypeError(f"slot_bound must be an integer, got {rec['slot_bound']!r}")
    values, rounds = tuple(map(_frozen, values)), tuple(map(_frozen, rounds))
    try:
        hash((values, rounds))        # bound to variables, so hashed
    except TypeError:
        raise TypeError("values and rounds must not hold objects") from None
    return SystemConfig(
        proposers=tuple(proposers),
        acceptors=tuple(acceptors),
        clients=tuple(clients),
        quorums=tuple(map(frozenset, quorums)),
        values=values,
        rounds=rounds,
        slot_bound=rec["slot_bound"],
    )


def target_record(target: Optional[AssumptionTarget]) -> Optional[dict]:
    if target is None:
        return None

    def demand(d):
        if d is None:
            return None
        return {"kind": d.prop.kind, "name": d.prop.name,
                "params": list(d.prop.params), "mode": d.mode}
    return {"link": demand(target.link), "server": demand(target.server)}


def target_from_record(rec: Optional[dict]) -> Optional[AssumptionTarget]:
    if rec is None:
        return None

    def demand(r):
        if r is None:
            return None
        params = tuple(r["params"])
        if not all(type(p) is int for p in params):
            raise TypeError(f"params must be integers, got {r['params']!r}")
        return Demand(CatalogId(r["kind"], r["name"], params), r["mode"])
    return AssumptionTarget(demand(rec.get("link")), demand(rec.get("server")))


def write_trace(trace: Trace, fp: IO[str]) -> None:
    header = {"kind": "header", "config": config_record(trace.config),
              "loop_start": trace.loop_start}
    fp.write(_dump(header) + "\n")
    memo = {}           # id of a set or element -> (it, its text); holding it keeps the id

    def text(value) -> str:
        hit = memo.get(id(value))
        if hit is None:
            if isinstance(value, frozenset):
                hit = value, "[" + ",".join(sorted(map(text, value))) + "]"
            else:
                hit = value, _dump(value)
            memo[id(value)] = hit
        return hit[1]

    for t, st in enumerate(trace.states):
        fields = {f: text(getattr(st, f)) for f in _SET_FIELDS}
        fields["kind"], fields["tick"] = '"state"', str(t)
        fp.write("{" + ",".join(f'"{k}":{fields[k]}' for k in _STATE_KEYS) + "}\n")


def read_trace(fp: IO[str]) -> Trace:
    records = _records(fp, "trace", "header", "state")
    line, header = records[0]
    config = _header_config(line, header)
    states = []
    last = dict.fromkeys(_SET_FIELDS, (None, None))   # field -> (key of its list, its set)
    elements = {}       # key of an element -> the element as tuples

    def element(item):
        key = marshal.dumps(item, 2)
        got = elements.get(key)
        if got is None:
            got = elements[key] = _frozen(item)
        return got

    for n, rec in records[1:]:
        try:
            values = [rec[f] for f in _SET_FIELDS]
        except KeyError as exc:
            raise TraceFormatError(n, f"state record lacks {exc.args[0]!r}") from None
        keys = []
        for f, v in zip(_SET_FIELDS, values):
            if not isinstance(v, list):
                raise TraceFormatError(n, f"{f} must be a list, got {v!r}")
            keys.append(marshal.dumps(v, 2))
            if keys[-1] == last[f][0]:
                continue                # checked at the tick before
            arity = _ARITY[f]
            want = f"lists of {arity}" if arity else "strings"
            for item in v:
                if not (type(item) is list and len(item) == arity if arity else type(item) is str):
                    raise TraceFormatError(n, f"{f} elements must be {want}, got {item!r}")
        try:
            for f, v, key in zip(_SET_FIELDS, values, keys):
                if key != last[f][0]:
                    last[f] = key, frozenset(map(element, v))
        except TypeError as exc:
            raise TraceFormatError(n, f"bad state record: {exc}") from None
        states.append(ObservationState(**{f: last[f][1] for f in _SET_FIELDS}))
    loop_start = _int_or_null(line, header, "loop_start")
    try:
        return Trace(states, config, loop_start=loop_start)
    except TraceInconsistent as exc:
        at = line if exc.tick is None else records[1 + exc.tick][0]
        raise TraceFormatError(at, str(exc)) from None


def trace_to_text(trace: Trace) -> str:
    buf = io.StringIO()
    write_trace(trace, buf)
    return buf.getvalue()


def trace_from_text(text: str) -> Trace:
    return read_trace(io.StringIO(text))


# ---------------------------------------------------------------------------
# schedule files

def write_schedule(schedule, fp: IO[str]) -> None:
    header = {
        "kind": "schedule",
        "config": config_record(schedule.config),
        "seed": schedule.seed,
        "target": target_record(schedule.target),
        "loop_start": schedule.loop_start,
        "fault_plan": list(schedule.fault_plan),
    }
    fp.write(_dump(header) + "\n")
    for rank in schedule.steps:
        fp.write(_dump({"kind": "step", "rank": rank}) + "\n")


def read_schedule(fp: IO[str]) -> Schedule:
    records = _records(fp, "schedule", "schedule", "step")
    line, header = records[0]
    config = _header_config(line, header)
    if not (all(isinstance(v, str) for v in config.values) and all(
            type(r) is tuple and len(r) == 2 and type(r[0]) is int and r[1] in config.proposers
            for r in config.rounds)):
        raise TraceFormatError(line, "bad config: a schedule's values must be strings and "
                                     "its rounds [integer, proposer] pairs")
    fault_plan = header.get("fault_plan", [])
    if not isinstance(fault_plan, list):
        raise TraceFormatError(line, f"fault_plan must be a list, got {fault_plan!r}")
    loop_start = _int_or_null(line, header, "loop_start")
    seed = _int_or_null(line, header, "seed")
    target = _header_target(line, header)
    steps = []
    for n, rec in records[1:]:
        rank = rec.get("rank")
        if type(rank) is not int:
            raise TraceFormatError(n, f"step record needs an integer rank, got {rank!r}")
        steps.append(rank)
    return Schedule(
        config=config,
        steps=tuple(steps),
        fault_plan=tuple(_frozen(x) for x in fault_plan),
        loop_start=loop_start,
        seed=seed,
        target=target,
    )
