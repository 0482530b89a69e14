"""livenesslab benchmark: four batch-verification jobs, end to end and per layer.

One run:
    python3 bench/run.py --workload corpus-check --seed 1 --seconds 25 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``), writes ``bench/out/<workload>.trace<0|1>.json`` (and the
traced run's spans as ``bench/out/<workload>.spans.jsonl``), and ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}.  It exits 1
when a correctness gate fails.

    python3 bench/run.py --all [--seed N] [--seconds S]   every workload, both modes
    python3 bench/run.py --compare OLD.json NEW.json       ratios and counter drift
    python3 bench/run.py --self-test                       tiny runs and forged outputs

See bench/README.md for the workloads, metrics and what is left out.
"""

import time

T_START = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 11
MIN_JOBS = 2          # so every run checks that its job repeats its counts


def import_package() -> None:
    """Import livenesslab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import livenesslab
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import livenesslab from {SRC}: {exc}")
    if Path(livenesslab.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"bench: livenesslab came from {livenesslab.__file__}, not {SRC}")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "cpu_count": os.cpu_count(),
            "commit": git_commit(), "seed": seed}


# ---------------------------------------------------------------------------
# one run

class SetupProbes:
    """Set-up seconds of fresh interpreters: imports plus inputs.

    The probes are spread evenly over the run, between ops, so that their
    median sees the same host as the ops do; any not yet taken when the
    run ends are taken then.
    """

    def __init__(self, name: str, seed: int, count: int, seconds: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", name, "--seed", str(seed)]
        self.count = count
        self.every = seconds / count
        self.start = time.perf_counter()
        self.seconds: list = []

    def take(self) -> None:
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed:\n{proc.stderr}")
        self.seconds.append(float(proc.stdout.split()[-1]))

    def when_due(self) -> None:
        due = self.start + self.every * len(self.seconds)
        if len(self.seconds) < self.count and time.perf_counter() >= due:
            self.take()

    def finish(self) -> list:
        while len(self.seconds) < self.count:
            self.take()
        return self.seconds


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple:
    """Repeat the workload's job, at least MIN_JOBS times, until the run ends
    at the job boundary nearest to `seconds`; returns (result dict, tracer or
    None)."""
    import tracing
    from workloads import WORKLOADS, Recorder, edge_cids, gate_repeat, percentile_ms

    wl = WORKLOADS[name](tiny=tiny)
    wl.setup(seed)
    tracer = tracing.install(tracing.Tracer()) if trace else None
    probes = None if trace else SetupProbes(name, seed, 1 if tiny else SETUP_PROBES, seconds)
    rec = Recorder(tracer, None if probes is None else probes.when_due)
    counters = None
    start = time.perf_counter()
    try:
        while True:
            rec.counters = Counter()
            wl.job(rec)
            rec.job += 1
            if counters is None:
                counters = dict(rec.counters)
            else:
                rec.check(gate_repeat(rec.job, dict(rec.counters), counters))
            elapsed = time.perf_counter() - start
            if rec.job >= MIN_JOBS and elapsed + elapsed / rec.job / 2 > seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    wl.finish(rec)

    jobs = [0.0] * rec.job
    ops = []
    for job, d, is_op in rec.segments:
        jobs[job] += d
        if is_op:
            ops.append(d)
    latencies = jobs if wl.latency == "job" else ops
    result = {
        "workload": name, "seconds": seconds, "trace": int(trace), "tiny": tiny,
        **environment(seed),
        "correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed,
        "ops_failed_ratio": rec.failed / rec.attempted, "errors": rec.errors[:20],
        "jobs": rec.job, "ops": len(ops), "latency": wl.latency,
        "samples": len(latencies), "counters": counters,
        "job_wall_s": jobs, "wall_s": sum(jobs) / rec.job,
    }
    if trace:
        labels = [tracing.metric_label(cid.label()) for cid in edge_cids()]
        metrics = tracing.layer_metrics(tracer, rec.job, labels)
    else:
        result["setup_probes_s"] = probes.finish()
        metrics = {
            "setup_s": (statistics.median(result["setup_probes_s"]), "s"),
            "wall_s": (result["wall_s"], "s"),
            "ops_per_s": (len(ops) / sum(jobs), "1/s"),
            "op_p50_ms": (percentile_ms(latencies, 50), "ms"),
            "op_p90_ms": (percentile_ms(latencies, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result, tracer


def tracing_overhead(result: dict):
    """Traced wall_s minus the untraced wall_s of the same workload, commit,
    seed, size and run length; None when no such untraced run is on file."""
    path = OUT / f"{result['workload']}.trace0.json"
    try:
        plain = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if any(plain.get(k) != result[k] for k in ("commit", "seed", "tiny", "seconds")):
        return None
    return result["wall_s"] - plain["wall_s"]


def single_run(args) -> int:
    result, tracer = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        spans = OUT / f"{args.workload}.spans.jsonl"
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["spans"] = tracer.write_spans(spans)
        result["tracing_overhead_s"] = tracing_overhead(result)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"{args.workload}: {result['jobs']} job(s), {result['ops']} timed ops, "
          f"{result['samples']} {result['latency']} latency samples, "
          f"{result['failed']}/{result['attempted']} failed")
    for name, m in result["metrics"].items():
        print(f"  {args.workload:15} {name:48} {m['value']:14.6g} {m['unit']}")
    for err in result["errors"]:
        print(f"  gate: {err}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# every workload, both modes

def run_all(args) -> int:
    """Each workload untraced, then traced; a run that ends without writing
    its result file is recorded as null rather than read from an old file."""
    from workloads import WORKLOADS

    suite = {**environment(args.seed), "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            path = OUT / f"{name}.trace{trace}.json"
            path.unlink(missing_ok=True)
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT)
            status = status or proc.returncode
            entry[f"trace{trace}"] = json.loads(path.read_text()) if path.exists() else None
        traced = entry["trace1"]
        entry["tracing_overhead_s"] = traced and traced["tracing_overhead_s"]
        suite["workloads"][name] = entry
    OUT.mkdir(exist_ok=True)
    (OUT / "suite.json").write_text(json.dumps(suite, indent=1, sort_keys=True) + "\n")
    print(f"\nseed {args.seed}, {args.seconds} s per run; written to bench/out/suite.json")
    for name, entry in suite["workloads"].items():
        plain = entry["trace0"]
        if plain is None:
            print(f"{name}: the untraced run wrote no result")
            continue
        print(f"{name}: {plain['samples']} {plain['latency']} latency samples, "
              f"ops_failed_ratio {plain['ops_failed_ratio']:.6g}, "
              f"tracing overhead {entry['tracing_overhead_s']} s")
        for metric, m in plain["metrics"].items():
            print(f"  {metric:12} {m['value']:14.6g} {m['unit']}")
    return status


# ---------------------------------------------------------------------------
# compare two result files

def _by_workload(doc: dict) -> dict:
    """{workload: {"seed", "tiny", "metrics": {name: (value, unit)}, "counters"}}."""
    runs = ([r for e in doc["workloads"].values() for r in (e["trace0"], e["trace1"]) if r]
            if "workloads" in doc else [doc])
    out = {}
    for run in runs:
        entry = out.setdefault(run["workload"], {"seed": run["seed"], "tiny": run["tiny"],
                                                 "metrics": {}, "counters": {}})
        for name, m in run["metrics"].items():
            entry["metrics"][name] = (m["value"], m["unit"])
        entry["counters"].update(run["counters"] or {})
    return out


def compare(old_doc: dict, new_doc: dict) -> tuple:
    """Lines of the comparison, and the drifted deterministic counts."""
    old, new = _by_workload(old_doc), _by_workload(new_doc)
    lines, drift = [], []
    for wl in sorted(old.keys() & new.keys()):
        o, n = old[wl], new[wl]
        same_input = (o["seed"], o["tiny"]) == (n["seed"], n["tiny"])
        lines.append(f"{wl} (seed {o['seed']} -> {n['seed']})")
        for name in sorted(o["metrics"].keys() & n["metrics"].keys()):
            (ov, unit), (nv, _) = o["metrics"][name], n["metrics"][name]
            ratio = f"{nv / ov:8.3f}x" if ov else "       -"
            flag = ""
            if unit in ("count", "ratio") and same_input and ov != nv:
                flag = "  DRIFT"
                drift.append((wl, name))
            lines.append(f"  {name:48} {ov:14.6g} -> {nv:14.6g} {unit:6} {ratio}{flag}")
        for name in sorted(o["counters"].keys() | n["counters"].keys()):
            ov, nv = o["counters"].get(name), n["counters"].get(name)
            if same_input and ov != nv:
                drift.append((wl, name))
                lines.append(f"  counter {name}: {ov} -> {nv}  DRIFT")
    return lines, drift


def run_compare(args) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in args.compare)
    lines, drift = compare(old, new)
    print("\n".join(lines))
    if drift:
        print(f"{len(drift)} deterministic count(s) drifted: behaviour changed, "
              f"not only speed")
        return 1
    return 0


# ---------------------------------------------------------------------------
# self-test

def self_test() -> int:
    import selftest

    return selftest.main(run_workload, compare, json.loads((ROOT / "BENCHMARK.json").read_text()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(args)

    import_package()
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.self_test:
        return self_test()
    if args.all:
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload]().setup(args.seed)
        print(time.perf_counter() - T_START)
        return 0
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
