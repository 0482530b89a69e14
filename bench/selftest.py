"""Self-test: every workload at a tiny size in both modes, and every gate fed
a forged wrong output.  Run with ``python3 bench/run.py --self-test``; it
exits 1 if a tiny run fails or a gate lets a forgery through.
"""

from __future__ import annotations

import copy
import dataclasses

from livenesslab import adversary, checker, hierarchy, machine
from livenesslab.adversary import AssumptionTarget, Demand
from livenesslab.catalog import ASSERTION_SINGLE, LINK, SERVER, CatalogId
from livenesslab.temporal import holds, violated

import workloads as w


def _counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")}


def _flip(verdict):
    return violated() if verdict.is_holds else holds()


def main(run_workload, compare, spec: dict) -> int:
    failures = []

    def expect(what: str, ok) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    print("tiny runs")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect("BENCHMARK.json names the four workloads",
           [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS))
    traced = {}
    for name in w.WORKLOADS:
        for trace in (False, True):
            result, _ = run_workload(name, w.DEFAULT_SEED, 0.0, trace, tiny=True)
            mode = "traced" if trace else "untraced"
            expect(f"{name} {mode}: {result['attempted']} ops pass their gates "
                   f"{result['errors']}", result["correct"])
            units = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(f"{name} {mode}: reports exactly the BENCHMARK.json metrics and units",
                   units == (layer if trace else e2e))
            if trace:
                traced[name] = result
    again, _ = run_workload("simulate-check", w.DEFAULT_SEED, 0.0, True, tiny=True)
    expect("simulate-check traced: deterministic counts repeat exactly",
           _counts(again) == _counts(traced["simulate-check"]))
    expect("corpus-check traced: every edge-instance label gets a time",
           all(traced["corpus-check"]["metrics"][k]["value"] > 0
               for k in layer if k.startswith("temporal.eval_expr.") and k.count(".") == 3))

    print("forged outputs")
    expect("corpus-check: a violated edge instance trips", w.gate_edges([3]))
    corpus = hierarchy.make_corpus(20, w.DEFAULT_SEED)
    counts = w.holds_counts(corpus, w.edge_cids())
    pinned = w.PINNED_HOLDS[(w.DEFAULT_SEED, 20)]
    expect("corpus-check: the true Holds counts pass", not w.gate_holds(counts, pinned))
    expect("corpus-check: a tampered Holds count trips",
           w.gate_holds({**counts, "Some-Learn": counts["Some-Learn"] + 1}, pinned))

    run = checker.explore(machine.make_config(3, 4), 1)
    expect("state-space: the true run passes", not w.gate_explore(1, run))
    expect("state-space: a stable_length off the oracle trips",
           w.gate_explore(1, dataclasses.replace(run, stable_length=run.stable_length + 1)))
    expect("state-space: a tampered distinct-state count trips",
           w.gate_explore(1, dataclasses.replace(run, distinct_states=run.distinct_states - 1)))
    scan_cfg = checker.competing_rounds_config(2, 3)
    expect("state-space: the pinned safety report passes",
           not w.gate_scan(checker.SafetyReport(scan_cfg, 126121, 352516, ())))
    expect("state-space: a reported safety violation trips",
           w.gate_scan(checker.SafetyReport(scan_cfg, 126121, 352516, ("forged",))))
    expect("state-space: a tampered safety-scan count trips",
           w.gate_scan(checker.SafetyReport(scan_cfg, 126120, 352516, ())))

    case = w.LASSO_CASES[0]
    res = checker.check_liveness_lasso(scan_cfg, CatalogId(LINK, case[0]),
                                       CatalogId(SERVER, case[1]),
                                       CatalogId(ASSERTION_SINGLE, case[2]))
    expect("lasso-search: the true counterexample passes", not w.gate_lasso(case, res))
    expect("lasso-search: a flipped outcome trips",
           w.gate_lasso(case, dataclasses.replace(res, outcome="holds")))
    expect("lasso-search: a counterexample the link assumption rejects trips",
           w.gate_lasso(case, dataclasses.replace(
               res, trace=adversary.raw_blackout(scan_cfg))))

    sim = w.SimulateCheck(tiny=True)
    sim.setup(w.DEFAULT_SEED)
    target, gen_seed = sim.ops[0]
    out = sim.pipeline(target, gen_seed)
    expect("simulate-check: the true pipeline output passes",
           not w.gate_simulate(target, out))
    link = target.link
    flipped = AssumptionTarget(
        Demand(link.prop, w.VIOLATE if link.mode == w.SATISFY else w.SATISFY), target.server)
    expect("simulate-check: a flipped expected verdict trips", w.gate_simulate(flipped, out))
    forged = list(out)
    forged[2] = out[2].replace('"tick":1', '"tick":7', 1)
    expect("simulate-check: tampered trace bytes trip", w.gate_simulate(target, forged))
    forged = list(out)
    forged[3] = out[3].replace('"rank":', '"rank": ', 1)
    expect("simulate-check: tampered schedule bytes trip", w.gate_simulate(target, forged))
    forged = list(out)
    forged[7] = [_flip(out[7][0])] + list(out[7][1:])
    expect("simulate-check: a parsed-text verdict unlike build() trips",
           w.gate_simulate(target, forged))

    first = {"schedule_steps": 40}
    expect("every workload: a job whose counts differ from job 1 trips",
           w.gate_repeat(2, {"schedule_steps": 41}, first))
    plain = traced["state-space"]
    tampered = copy.deepcopy(plain)
    tampered["metrics"]["checker.safety_scan.distinct_states"]["value"] += 1
    expect("compare: an unchanged result shows no drift", not compare(plain, plain)[1])
    expect("compare: a tampered count is flagged as drift", compare(plain, tampered)[1])

    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0
