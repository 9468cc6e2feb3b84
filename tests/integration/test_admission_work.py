"""Admission work does not grow with the processes that already finished.

§3.5's potential edges run from a process's executed services to the
services an active process's completion will still run.  The serialization
graph never forgets a terminated process, so an admission that swept
every recorded process against every live one paid for the whole past on
every state move.  The sweep now starts from the conflict side: the
services that conflict with a completion's forward services, and through
the graph's service index the processes that ran them.

The check counts ``IncrementalSerializationGraph.reachable_services``
calls per admission request while three live processes run, after 10 and
after 150 finished processes on a service that conflicts with nothing
live.  With the all-process sweep (before EXPERIMENTS X32) the count was
48 calls for 16 requests at 10 finished processes and 608 at 150 — four
more per finished process.  Now it is 10 at both.
"""

from repro.core.conflict import ExplicitConflicts
from repro.core.process import ProcessBuilder
from repro.core.scheduler import TransactionalProcessScheduler
from repro.core.sergraph import IncrementalSerializationGraph


def _admission_work(finished, monkeypatch):
    """``(reachable_services calls, admission requests)`` of three live
    processes run after ``finished`` committed ones."""
    scheduler = TransactionalProcessScheduler(
        conflicts=ExplicitConflicts([("a", "b")])
    )
    done = ProcessBuilder("D").compensatable("d", service="done").build()
    for index in range(finished):
        scheduler.submit(done, instance_id=f"D{index}")
    scheduler.run()
    assert scheduler.all_terminated()

    # Past the pivot each completion still runs r1 and r2 forward, so
    # every live process has forward-recovery services to test.
    live = (
        ProcessBuilder("L")
        .compensatable("c", service="b")
        .pivot("p", service="a")
        .retriable("r1", service="b")
        .retriable("r2", service="a")
        .chain("c", "p", "r1", "r2")
        .build()
    )
    for index in range(3):
        scheduler.submit(live, instance_id=f"L{index}")

    calls = []
    original = IncrementalSerializationGraph.reachable_services

    def spy(graph, signature):
        calls.append(signature)
        return original(graph, signature)

    monkeypatch.setattr(
        IncrementalSerializationGraph, "reachable_services", spy
    )
    before = scheduler.stats["dispatched"] + scheduler.stats["deferred"]
    scheduler.run()
    monkeypatch.undo()
    assert scheduler.all_terminated()
    requests = scheduler.stats["dispatched"] + scheduler.stats["deferred"]
    return len(calls), requests - before


def test_admission_work_does_not_grow_with_finished_processes(monkeypatch):
    few_calls, few_requests = _admission_work(10, monkeypatch)
    many_calls, many_requests = _admission_work(150, monkeypatch)
    assert few_requests == many_requests > 0
    assert few_calls > 0
    assert few_calls / few_requests == many_calls / many_requests
