"""Drive the single-value Paxos machine to consensus, step by step."""

import io

from livenesslab.machine import (
    AcceptorPromise, AcceptorVote, DeliverMessage, Learn, ProposerSendAccept,
    StartLeaderElection, apply_action, enabled, init, make_config, trace_of,
)
from livenesslab.tracefile import write_trace

cfg = make_config(2, 3)
st = init(cfg)
states = [st]


def step(pred, label):
    global st
    for a in enabled(st):
        if pred(a):
            st = apply_action(st, a)
            states.append(st)
            print(f"  tick {len(states) - 1:2}  {label}: {a}")
            return
    raise SystemExit(f"nothing matched {label}")


print("== one uncontended round ==")
step(lambda a: isinstance(a, StartLeaderElection) and a.proposer == "p1",
     "election")
for _ in range(3):
    step(lambda a: isinstance(a, AcceptorPromise), "promise")
for _ in range(3):
    step(lambda a: isinstance(a, DeliverMessage) and a.msg.kind == "1b",
         "promise report lands")
step(lambda a: isinstance(a, ProposerSendAccept), "accept broadcast")
for _ in range(2):
    step(lambda a: isinstance(a, AcceptorVote), "vote")
print("  a quorum has voted; consensus value is decided")
for _ in range(2):
    step(lambda a: isinstance(a, DeliverMessage) and a.msg.kind == "2b"
         and a.msg.receiver == "p1", "vote report lands")
step(lambda a: isinstance(a, Learn), "learn")

obs = states[-1].obs
print("\nvoted:  ", sorted(obs.voted))
print("learned:", sorted(obs.learned))

buf = io.StringIO()
write_trace(trace_of(states), buf)
print(f"\ntrace file: {len(buf.getvalue().splitlines())} records, "
      f"{len(buf.getvalue())} bytes")
