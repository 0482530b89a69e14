import io

import pytest

from livenesslab.adversary import (
    SATISFY, VIOLATE, AssumptionTarget, CannotRealize, Demand, Schedule,
    alwq_adversary, generate, raw_blackout, run_schedule, simulate, validate,
)
from livenesslab.catalog import (
    ASSERTION_NAMES, LINK, SERVER, CatalogId, assertion_single,
    link_property, server_property,
)
from livenesslab.machine import make_config
from livenesslab.temporal import eval_expr
from livenesslab.tracefile import read_schedule, trace_to_text, write_schedule


def _link(name, *params):
    return CatalogId(LINK, name, params)


def _server(name, *params):
    return CatalogId(SERVER, name, params)


def test_alwq_adversary_verdicts():
    cfg = make_config(2, 3)
    tr = alwq_adversary(cfg)
    assert eval_expr(link_property("Fair"), tr).is_holds
    assert eval_expr(server_property("Alw-Q"), tr).is_holds
    assert eval_expr(assertion_single("Some-Learn"), tr).is_violated


def test_alwq_adversary_at_most_one_faulty():
    cfg = make_config(2, 3)
    tr = alwq_adversary(cfg)
    everyone = frozenset(cfg.servers) | frozenset(cfg.clients)
    for st in tr.states:
        assert len(everyone - st.nf_procs) <= 1


def test_alwq_adversary_needs_two_proposers():
    with pytest.raises(ValueError):
        alwq_adversary(make_config(1, 3))


def test_raw_blackout_violates_every_assertion():
    cfg = make_config(2, 3)
    tr = raw_blackout(cfg)
    for name in ASSERTION_NAMES:
        assert eval_expr(assertion_single(name), tr).is_violated, name
    # the Raw property itself fails on the trace even though the Raw regime
    # admits it: regimes admit traces, they are not satisfied by them
    assert eval_expr(link_property("Raw"), tr).is_violated
    assert not tr.states[-1].received
    assert tr.states[-1].sent


def test_validate_reports_in_demand_order():
    cfg = make_config(2, 3)
    tr = alwq_adversary(cfg)
    target = AssumptionTarget(Demand(_link("Fair"), SATISFY),
                              Demand(_server("Alw-Q"), SATISFY))
    fair_v, alwq_v = validate(tr, target)
    assert fair_v.is_holds and alwq_v.is_holds


def test_generate_failure_free_run():
    cfg = make_config(2, 3)
    target = AssumptionTarget(Demand(_link("Fair"), SATISFY),
                              Demand(_server("Alw"), SATISFY))
    schedule = generate(target, cfg, seed=7)
    trace = run_schedule(schedule)
    assert not schedule.fault_plan or all(
        d[1] != "drop" for d in schedule.fault_plan)
    verdicts = validate(trace, target)
    assert all(v.is_holds for v in verdicts)


def test_generate_rotating_failures_separate_alwq_from_qalw():
    cfg = make_config(2, 3)
    target = AssumptionTarget(Demand(_link("Fair"), SATISFY),
                              Demand(_server("Q-Alw"), VIOLATE))
    schedule = generate(target, cfg, seed=5)
    trace = run_schedule(schedule)
    assert eval_expr(server_property("Q-Alw"), trace).is_violated
    assert eval_expr(server_property("Alw-Q"), trace).is_holds


def test_generate_one_message_lost_forever():
    cfg = make_config(2, 3)
    target = AssumptionTarget(Demand(_link("Raw"), SATISFY),
                              Demand(_server("Alw"), SATISFY))
    # Raw asks nothing, so the schedule may deliver everything; force the
    # interesting case instead
    target = AssumptionTarget(Demand(_link("Fair"), VIOLATE),
                              Demand(_server("Alw"), SATISFY))
    schedule = generate(target, cfg, seed=9)
    trace = run_schedule(schedule)
    assert eval_expr(link_property("Fair"), trace).is_violated
    assert eval_expr(link_property("Raw"), trace).is_holds


def test_generate_reproducible_byte_for_byte():
    cfg = make_config(2, 3)
    target = AssumptionTarget(Demand(_link("Fair"), SATISFY),
                              Demand(_server("PQ-Alw"), VIOLATE))
    s1 = generate(target, cfg, seed=13)
    s2 = generate(target, cfg, seed=13)
    assert s1.steps == s2.steps
    from livenesslab.tracefile import trace_to_text

    assert trace_to_text(run_schedule(s1)) == trace_to_text(run_schedule(s2))
    s3 = generate(target, cfg, seed=14)
    # a different seed may or may not pick a different plan, but must validate
    assert validate(run_schedule(s3), target)


def test_generate_cannot_realize_reports_failure():
    cfg = make_config(2, 3)
    # delivery on the very tick a message is sent is impossible here: the
    # prepare broadcast precedes any receipt by at least one action
    target = AssumptionTarget(Demand(_link("Sure", 0), SATISFY), None)
    with pytest.raises(CannotRealize):
        generate(target, cfg, seed=3, max_attempts=6)


def test_schedule_file_round_trip():
    cfg = make_config(2, 3)
    target = AssumptionTarget(Demand(_link("Fair"), SATISFY),
                              Demand(_server("Alw"), VIOLATE))
    schedule = generate(target, cfg, seed=21)
    buf = io.StringIO()
    write_schedule(schedule, buf)
    text = buf.getvalue()
    loaded = read_schedule(io.StringIO(text))
    assert loaded.steps == schedule.steps
    assert loaded.loop_start == schedule.loop_start
    assert loaded.target == schedule.target
    buf2 = io.StringIO()
    write_schedule(loaded, buf2)
    assert buf2.getvalue() == text
    from livenesslab.tracefile import trace_to_text

    assert trace_to_text(run_schedule(loaded)) == trace_to_text(run_schedule(schedule))


def _demand_matrix():
    links = [(_link("Raw"), SATISFY), (_link("Fair"), SATISFY),
             (_link("Sure", 8), SATISFY), (_link("Fair"), VIOLATE),
             (_link("Raw"), VIOLATE), (_link("Sure", 3), VIOLATE)]
    servers = [(_server("Alw-Q"), SATISFY), (_server("Alw-Q"), VIOLATE),
               (_server("Q-Alw"), SATISFY), (_server("Q-Alw"), VIOLATE),
               (_server("P-Alw-Q"), SATISFY), (_server("P-Alw-Q"), VIOLATE),
               (_server("PQ-Alw"), SATISFY), (_server("PQ-Alw"), VIOLATE),
               (_server("Alw"), SATISFY), (_server("Alw"), VIOLATE),
               (_server("PQ-Dur", 3), SATISFY), (_server("PQ-Dur", 3), VIOLATE),
               (_server("PQ-Extra-Dur", 2, 2), SATISFY),
               (_server("PQ-Extra-Dur", 2, 2), VIOLATE)]
    return links, servers


def test_generator_soundness_two_hundred_pairs():
    """Every (target, config, seed) pair either validates in the requested
    modes or is rejected; nothing unvalidated is ever returned, and replaying
    the returned schedule rebuilds the returned trace byte for byte."""
    cfg = make_config(2, 3)
    links, servers = _demand_matrix()
    pairs = 0
    for k, (lp, lm) in enumerate(links):
        for m, (sp, sm) in enumerate(servers):
            seeds = (0, 1, 2) if (k + m) % 2 else (0, 1)
            for seed in seeds:
                target = AssumptionTarget(Demand(lp, lm), Demand(sp, sm))
                schedule, trace, verdicts = simulate(
                    target, cfg, seed=1000 * seed + k * 17 + m)
                replayed = run_schedule(schedule)
                assert trace_to_text(replayed) == trace_to_text(trace)
                assert validate(replayed, target) == verdicts
                for v, d in zip(verdicts, target.demands()):
                    assert v.is_holds if d.mode == SATISFY else v.is_violated
                pairs += 1
    assert pairs >= 200


def test_validate_on_finite_prefix_may_be_undetermined():
    from livenesslab.temporal import Trace

    cfg = make_config(2, 3)
    lasso = alwq_adversary(cfg)
    prefix = Trace(lasso.states[:3], cfg)
    target = AssumptionTarget(Demand(_link("Fair"), SATISFY), None)
    (verdict,) = validate(prefix, target)
    assert verdict.is_undetermined


def test_schedule_rank_must_resolve():
    from livenesslab.adversary import AdversaryError

    cfg = make_config(2, 3)
    bogus = Schedule(config=cfg, steps=(999,))
    with pytest.raises(AdversaryError, match="rank"):
        run_schedule(bogus)
    with pytest.raises(AdversaryError, match="loop_start out of range"):
        run_schedule(Schedule(config=cfg, steps=(), loop_start=3))
