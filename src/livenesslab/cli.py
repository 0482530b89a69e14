"""Command-line entry point.

Exit codes: 0 success, 1 a property was violated or a counterexample was
found, 2 usage error, 3 budget exhausted or verdict undetermined.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional

from . import adversary, catalog, checker, hierarchy, scenarios, tracefile
from .language import LanguageError, SpecSyntaxError, parse, parse_blocks, print_expr
from .machine import make_config
from .temporal import NODE_TYPES, PropertyExpr, TemporalError, eval_expr

OK, PROPERTY_VIOLATED, USAGE, BUDGET = 0, 1, 2, 3

_REF_RE = re.compile(r"^(?P<name>[A-Za-z][\w-]*)\s*(?:\((?P<args>[^)]*)\))?$")


def parse_property_ref(text: str) -> catalog.CatalogId:
    """Resolve references like `Fair`, `Sure(3)`, or `Some-Learn(2)`.

    An assertion with a slot-count parameter names the multi-value form;
    without one it names the single-value form.
    """
    m = _REF_RE.match(text.strip())
    if not m:
        raise catalog.UnknownProperty(f"cannot read property reference {text!r}")
    name = catalog.resolve_name(m.group("name"))
    args = [x.strip() for x in (m.group("args") or "").split(",") if x.strip()]
    if name in catalog.LINK_NAMES:
        kind = catalog.LINK
    elif name in catalog.SERVER_NAMES:
        kind = catalog.SERVER
    else:
        kind = catalog.ASSERTION_MULTI if args else catalog.ASSERTION_SINGLE
    names = catalog.param_names(kind, name)
    params = []
    for k, arg in enumerate(args):
        try:
            params.append(int(arg))
        except ValueError:
            what = names[k] if k < len(names) else f"#{k + 1}"
            raise catalog.UnknownProperty(
                f"{name} parameter {what} expects an integer, got {arg!r}") from None
    return catalog.CatalogId(kind, name, tuple(params))


def _params_dict(pairs) -> dict:
    out = {}
    for p in pairs or ():
        name, eq, value = p.partition("=")
        name = name.strip()
        if not eq or not name:
            raise ValueError(f"--param expects NAME=INT, got {p!r}")
        try:
            out[name] = int(value)
        except ValueError:
            raise ValueError(f"--param {name} expects an integer, got {value!r}") from None
    return out


def _ast_dump(expr: PropertyExpr, indent: int = 0) -> str:
    pad = "  " * indent
    name = type(expr).__name__
    simple = []
    nested = []
    for f in expr.__dataclass_fields__:
        v = getattr(expr, f)
        if isinstance(v, NODE_TYPES):
            nested.append(v)
        else:
            simple.append(f"{f}={v!r}")
    head = f"{pad}{name}({', '.join(simple)})" if simple else f"{pad}{name}"
    return "\n".join([head] + [_ast_dump(v, indent + 1) for v in nested])


def _read_spec(path: str, params: dict) -> Optional[dict]:
    """The named properties of the `.lspec` file at ``path``, or None when
    there is no such file; a file that names none is a usage error."""
    if not os.path.exists(path):
        return None
    with open(path) as fp:
        blocks = parse_blocks(fp.read(), params)
    if not blocks:
        raise ValueError(f"{path} holds no property")
    return blocks


def _names_catalog_property(text: str) -> bool:
    m = _REF_RE.match(text.strip())
    if m is None:
        return False
    try:
        catalog.resolve_name(m.group("name"))
    except catalog.UnknownProperty:
        return False
    return True


def _load_property(ref: str, params: dict):
    """A `.lspec` file's first property, a catalog reference, or else
    property text; a reference with the wrong parameters is an error."""
    blocks = _read_spec(ref, params)
    if blocks is not None:
        return next(iter(blocks.items()))
    if not _names_catalog_property(ref):
        return "property", parse(ref, params)
    cid = parse_property_ref(ref)
    return cid.label(), catalog.build(cid)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="livenesslab",
        description="Liveness laboratory for quorum-based consensus.",
    )
    parser.add_argument("--seed", type=int, default=0, help="global seed")
    parser.add_argument("--out", help="output file (defaults to stdout)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spec", help="parse or pretty-print a property",
                            parents=[common])
    p_spec.add_argument("action", choices=("parse", "print"))
    p_spec.add_argument("text", help="property text or .lspec file")
    p_spec.add_argument("--param", action="append", metavar="NAME=INT")

    p_cat = sub.add_parser("catalog", help="catalog operations", parents=[common])
    p_cat.add_argument("action", choices=("list",))
    p_cat.add_argument("--format", choices=("text", "csv", "records"),
                       default="text")

    p_trace = sub.add_parser("trace", help="trace file operations", parents=[common])
    p_trace.add_argument("action", choices=("check",))
    p_trace.add_argument("file", help="trace file")
    p_trace.add_argument("--property", required=True,
                         help="catalog name like Some-Learn or Sure(3), "
                              "inline text, or a .lspec file")
    p_trace.add_argument("--param", action="append", metavar="NAME=INT")
    p_trace.add_argument("--now", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="generate an assumption-driven run", parents=[common])
    p_sim.add_argument("--target", required=True,
                       help="LINK,SERVER (e.g. Fair,Alw-Q); append :satisfy "
                            "or :violate per name to mix modes")
    p_sim.add_argument("--mode", choices=("satisfy", "violate"),
                       default="satisfy")
    p_sim.add_argument("--proposers", type=int, default=2)
    p_sim.add_argument("--acceptors", type=int, default=3)
    p_sim.add_argument("--schedule-out", help="also write the schedule file")

    p_scen = sub.add_parser("scenario", help="emit a scripted counterexample", parents=[common])
    p_scen.add_argument("name", choices=("raft-eachvote", "paxos-complex-livelock"))

    p_mc = sub.add_parser("modelcheck", help="stable-duration exploration", parents=[common])
    p_mc.add_argument("--proposers", type=int, required=True)
    p_mc.add_argument("--acceptors", type=int, required=True)
    p_mc.add_argument("--start", type=int, nargs="+", required=True)
    p_mc.add_argument("--csv", help="write start,length,states,distinct_states,seconds")
    p_mc.add_argument("--max-states", type=int, default=5_000_000)
    p_mc.add_argument("--jobs", type=int, default=1)

    p_h = sub.add_parser("hierarchy", help="implication-edge checking", parents=[common])
    p_h.add_argument("action", choices=("check",))
    p_h.add_argument("--corpus", type=int, default=1000)
    p_h.add_argument("--report", help="write the report file")
    p_h.add_argument("--jobs", type=int, default=1)

    args = parser.parse_args(argv)

    try:
        return _dispatch(args)
    except SpecSyntaxError as exc:
        print(f"syntax error at {exc.span.line}:{exc.span.column}: {exc.reason}",
              file=sys.stderr)
        return USAGE
    except (LanguageError, catalog.CatalogError, TemporalError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except adversary.CannotRealize as exc:
        print(f"cannot realize: {exc}", file=sys.stderr)
        return BUDGET
    except checker.BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return BUDGET


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fp:
            fp.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _dispatch(args) -> int:
    if getattr(args, "jobs", 1) < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.command == "spec":
        params = _params_dict(args.param)
        blocks = _read_spec(args.text, params)
        if blocks is None:
            blocks = {"property": parse(args.text, params)}
        chunks = []
        for name, expr in blocks.items():
            if args.action == "parse":
                chunks.append(f"{name}:")
                chunks.append(_ast_dump(expr, 1))
            else:
                chunks.append(f"{name} = {print_expr(expr)}")
        _emit(args, "\n".join(chunks))
        return OK

    if args.command == "catalog":
        rows = []
        for cid, params, text in catalog.catalog_entries():
            rows.append((f"{cid.kind}", cid.name,
                         ",".join(params) if params else "-", text))
        if args.format == "csv":
            lines = ["kind,name,params,text"] + [
                f"{k},{n},{p},\"{t}\"" for (k, n, p, t) in rows]
        elif args.format == "records":
            lines = [json.dumps({"kind": k, "name": n, "params": p, "text": t},
                                sort_keys=True) for (k, n, p, t) in rows]
        else:
            width = max(len(n) for (_k, n, _p, _t) in rows)
            lines = [f"{k:16} {n:<{width}} {p:8} {t}" for (k, n, p, t) in rows]
        _emit(args, "\n".join(lines))
        return OK

    if args.command == "trace":
        with open(args.file) as fp:
            trace = tracefile.read_trace(fp)
        name, expr = _load_property(args.property, _params_dict(args.param))
        verdict = eval_expr(expr, trace, now=args.now)
        _emit(args, f"{name}: {verdict}")
        if verdict.is_holds:
            return OK
        if verdict.is_violated:
            return PROPERTY_VIOLATED
        return BUDGET

    if args.command == "simulate":
        demands = []
        for part in args.target.split(","):
            part = part.strip()
            mode = args.mode
            if ":" in part:
                part, mode = part.rsplit(":", 1)
            demands.append(adversary.Demand(parse_property_ref(part), mode))
        links = [d for d in demands if d.prop.kind == catalog.LINK]
        servers = [d for d in demands if d.prop.kind == catalog.SERVER]
        others = [d.prop.label() for d in demands if d not in links + servers]
        if others:
            raise ValueError("--target takes link and server assumptions, not "
                             + ", ".join(others))
        if len(links) > 1 or len(servers) > 1:
            raise ValueError("--target takes at most one link and one server "
                             "assumption")
        link = links[0] if links else None
        server = servers[0] if servers else None
        target = adversary.AssumptionTarget(link, server)
        config = make_config(args.proposers, args.acceptors)
        schedule, trace, verdicts = adversary.simulate(target, config, seed=args.seed)
        for d, v in zip(target.demands(), verdicts):
            print(f"{d.prop.label()}: wanted {d.mode}, got {v}", file=sys.stderr)
        _emit(args, tracefile.trace_to_text(trace).rstrip("\n"))
        if args.schedule_out:
            with open(args.schedule_out, "w") as fp:
                tracefile.write_schedule(schedule, fp)
        return OK

    if args.command == "scenario":
        trace = (scenarios.raft_eachvote_lasso() if args.name == "raft-eachvote"
                 else scenarios.paxos_complex_livelock_lasso())
        _emit(args, tracefile.trace_to_text(trace).rstrip("\n"))
        return OK

    if args.command == "modelcheck":
        if args.max_states < 1:
            raise ValueError(f"--max-states must be at least 1, got {args.max_states}")
        config = make_config(args.proposers, args.acceptors)
        jobs = min(args.jobs, os.cpu_count() or 1, len(args.start))
        if jobs > 1:
            import functools
            import multiprocessing as mp

            work = functools.partial(checker.explore, config,
                                     max_states=args.max_states)
            with mp.Pool(jobs) as pool:
                rows = pool.map(work, args.start)
        else:
            rows = [checker.explore(config, x, max_states=args.max_states)
                    for x in args.start]
        _emit(args, "\n".join(
            f"start={run.stable_start} length={run.stable_length} "
            f"states={run.states_generated} distinct_states={run.distinct_states} "
            f"seconds={run.elapsed_seconds:.3f}" for run in rows))
        if args.csv:
            with open(args.csv, "w") as fp:
                fp.write("start,length,states,distinct_states,seconds\n")
                for run in rows:
                    fp.write(f"{run.stable_start},{run.stable_length},"
                             f"{run.states_generated},{run.distinct_states},"
                             f"{run.elapsed_seconds:.3f}\n")
        return OK

    if args.command == "hierarchy":
        if args.corpus < 1:
            raise ValueError(f"--corpus must be at least 1, got {args.corpus}")
        corpus = hierarchy.make_corpus(args.corpus, seed=args.seed)
        reports = hierarchy.check_edges(corpus, jobs=args.jobs)
        lines = []
        bad = 0
        for rep in reports:
            stronger, weaker = rep.edge
            status = "ok" if not rep.violations else f"{len(rep.violations)} violations"
            wit = "witness" if rep.witness is not None else "no-witness-shipped"
            lines.append(f"{stronger.label():>22} => {weaker.label():<22} "
                         f"{status:16} {wit}")
            bad += len(rep.violations)
        table = "\n".join(lines)
        _emit(args, table)
        if args.report:
            records = [
                json.dumps({
                    "stronger": rep.edge[0].label(),
                    "weaker": rep.edge[1].label(),
                    "corpus_size": rep.corpus_size,
                    "violations": list(rep.violations),
                    "witness_shipped": rep.witness is not None,
                }, sort_keys=True)
                for rep in reports
            ]
            with open(args.report, "w") as fp:
                fp.write(table + "\n\n" + "\n".join(records) + "\n")
        return PROPERTY_VIOLATED if bad else OK

    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
