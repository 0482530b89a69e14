"""Scripted counterexample traces.

These are deliberate constructions, not general state machines: each builds
exactly the lasso its verdicts require, with all cumulative facts placed in
the prefix and only the transient fields (non-faulty sets, primary flags)
varying inside the cycle.
"""

from __future__ import annotations

from typing import Optional

from .machine import SystemConfig
from .temporal import ObservationState, Trace


class TraceBuilder:
    """Accumulates observation snapshots with monotone histories.

    Mutate the current picture with the helper methods, then ``commit`` one
    snapshot per tick.  ``build`` closes the trace, optionally as a lasso.
    The seven histories are frozensets that the helpers replace, so a
    snapshot shares every history that did not change since the last one.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.roster = set(config.servers)
        self.nf = self.roster | set(config.clients)
        self.primaries: set = set()
        self.sent = self.received = self.voted = self.learned = frozenset()
        self.executed = self.requested = self.responded = frozenset()
        self.snapshots: list = []

    def commit(self) -> "TraceBuilder":
        self.snapshots.append(ObservationState(
            nf_procs=frozenset(self.nf),
            primaries=frozenset(self.primaries),
            roster=frozenset(self.roster),
            sent=self.sent,
            received=self.received,
            voted=self.voted,
            learned=self.learned,
            executed=self.executed,
            requested=self.requested,
            responded=self.responded,
        ))
        return self

    def crash(self, *procs) -> "TraceBuilder":
        self.nf -= set(procs)
        return self

    def recover(self, *procs) -> "TraceBuilder":
        self.nf |= set(procs)
        return self

    def primary(self, proc: Optional[str]) -> "TraceBuilder":
        self.primaries = set() if proc is None else {proc}
        return self

    def send(self, frm, msg, to) -> "TraceBuilder":
        self.sent |= {(frm, msg, to)}
        return self

    def deliver(self, frm, msg, to) -> "TraceBuilder":
        self.sent |= {(frm, msg, to)}
        self.received |= {(to, msg, frm)}
        return self

    def vote(self, server, rnd, slot, value) -> "TraceBuilder":
        self.voted |= {(server, rnd, slot, value)}
        return self

    def learn(self, server, slot, value) -> "TraceBuilder":
        self.learned |= {(server, slot, value)}
        return self

    def execute(self, server, slot, value) -> "TraceBuilder":
        self.executed |= {(server, slot, value)}
        return self

    def request(self, client, value) -> "TraceBuilder":
        self.requested |= {(client, value)}
        return self

    def respond(self, client, value) -> "TraceBuilder":
        # res(v) is modeled as the value itself
        self.responded |= {(client, value, value)}
        return self

    def set_roster(self, procs) -> "TraceBuilder":
        self.roster = set(procs)
        return self

    def build(self, loop_start: Optional[int] = None) -> Trace:
        return Trace(self.snapshots, self.config, loop_start=loop_start)


def raft_eachvote_config() -> SystemConfig:
    return SystemConfig(
        proposers=("s1", "s2", "s3"),
        acceptors=("s1", "s2", "s3"),
        clients=("c1",),
        values=("v1", "v3"),
        rounds=(1, 2, 3),
    )


def raft_eachvote_lasso() -> Trace:
    """Term changes forever flip a replicated-but-uncommitted entry.

    Three servers; a quorum appends value v1 in term 1, the leader fails
    before committing, the next leader overwrites with v3, fails in turn,
    and the first leader returns and re-replicates v1; the crash pattern
    then repeats forever with no entry ever committed.  A quorum voting for
    the same value per term keeps Each-Vote true while Some-Learn stays
    false, and at most one server is down at any tick, so Alw-Q holds.
    """
    b = TraceBuilder(raft_eachvote_config())
    b.primary("s1").commit()                                   # 0: s1 leads
    b.vote("s1", 1, 1, "v1").vote("s2", 1, 1, "v1").commit()   # 1: v1 on a quorum
    b.crash("s1").commit()                                     # 2: s1 fails
    b.primary("s3").commit()                                   # 3: s3 elected
    b.vote("s2", 2, 1, "v3").vote("s3", 2, 1, "v3").commit()   # 4: v3 overwrites
    b.crash("s3").recover("s1").commit()                       # 5: s3 fails, s1 back
    b.primary("s1").commit()                                   # 6: s1 leads again
    b.vote("s1", 3, 1, "v1").vote("s2", 3, 1, "v1").commit()   # 7: v1 re-replicated
    # cycle: the leadership flip repeats with frozen histories
    b.crash("s1").recover("s3").primary("s3").commit()         # 8
    b.crash("s3").recover("s1").primary("s1").commit()         # 9
    return b.build(loop_start=8)


def paxos_complex_config() -> SystemConfig:
    return SystemConfig(
        proposers=("r1", "r2"),
        acceptors=("r1", "r2"),
        clients=("c1", "c2"),
        values=("v1", "v2", "v3"),
        rounds=(1, 2),
        slot_bound=2,
    )


def paxos_complex_livelock_lasso() -> Trace:
    """One client's value loses every slot it is proposed on.

    Replicas r1 and r2 both field client values; on each slot the value c2
    asked for gathers a lone vote and is then outrun by a competing value
    that wins the higher round, so c2 is never answered even though every
    process stays non-faulty and slot 1 is decided and executed.  The two
    losing rounds exhaust the fresh values in the prefix; the cycle then
    stutters with histories frozen.
    """
    b = TraceBuilder(paxos_complex_config())
    b.primary("r1").commit()                                    # 0
    b.request("c1", "v1").request("c2", "v2").commit()          # 1: both ask
    b.vote("r2", 1, 1, "v2").commit()                           # 2: v2 bids slot 1
    b.vote("r1", 2, 1, "v1").vote("r2", 2, 1, "v1").commit()    # 3: v1 wins slot 1
    b.learn("r1", 1, "v1").learn("r2", 1, "v1").commit()        # 4
    b.execute("r1", 1, "v1").execute("r2", 1, "v1").commit()    # 5
    b.respond("c1", "v1").commit()                              # 6: c1 answered
    b.request("c1", "v3").commit()                              # 7: a fresh value
    b.vote("r2", 1, 2, "v2").commit()                           # 8: v2 bids slot 2
    b.vote("r1", 2, 2, "v3").vote("r2", 2, 2, "v3").commit()    # 9: v3 wins slot 2
    b.learn("r1", 2, "v3").learn("r2", 2, "v3").commit()        # 10
    b.execute("r1", 2, "v3").execute("r2", 2, "v3").commit()    # 11
    b.respond("c1", "v3").commit()                              # 12: c2 still waits
    return b.build(loop_start=12)
