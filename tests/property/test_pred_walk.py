"""Property: one walk over a history decides what rebuilding every prefix decides.

``check_pred`` feeds a schedule's events once to the scheduler's
:class:`~repro.core.reduction.PrefixCertifier`, which advances one
replica per process by one event per prefix.  The oracle here is the
body ``check_pred`` had before: rebuild each of the n + 1 prefixes with
``schedule.prefix(k)`` and reduce it, which replays every aborted or
active process from a fresh ``ProcessInstance``.  It lives only in
tests.

Both must return the same :class:`~repro.core.pred.PredResult` field for
field — the violating prefix, its completed schedule and the schedule
it completes, the residual, the cancelled pairs and the witness cycle
— with ``stop_early`` both ways, or raise the same error type.  Inputs:
PRED-scheduler runs with failures and a conflict declared or retracted
mid-run, every comparable discipline (non-PRED histories among them),
the histories recovery replays after crash points, the paper's figures
and every prefix of them, and deliberately illegal schedules.
"""

import functools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.activity import Direction
from repro.core.pred import PredResult, check_pred
from repro.core.reduction import reduce_schedule
from repro.core.schedule import (
    AbortEvent,
    ActivityEvent,
    CommitEvent,
    ProcessSchedule,
)
from repro.core.scheduler import TransactionalProcessScheduler
from repro.errors import InvalidScheduleError, UnknownProcessError
from repro.scenarios import paper
from repro.sim import crashpoints
from repro.sim.crashpoints import CrashPointSpec, baseline_lsns, crash_once
from repro.sim.experiments import DISCIPLINES
from repro.sim.workload import WorkloadSpec, build_world, generate_workload

from tests.property.strategies import (
    SERVICES,
    conflict_relations,
    well_formed_processes,
)
from tests.property.test_wakeup_equivalence import run_reactor


def reference_check_pred(
    schedule: ProcessSchedule, stop_early: bool = True
) -> PredResult:
    """Definition 10 by rebuilding and reducing every prefix."""
    checked = 0
    first_violation = None
    for length in range(len(schedule) + 1):
        result = reduce_schedule(schedule.prefix(length))
        checked += 1
        if not result.is_reducible:
            if first_violation is None:
                first_violation = (length, result)
            if stop_early:
                break
    if first_violation is None:
        return PredResult(is_pred=True, prefixes_checked=checked)
    length, result = first_violation
    return PredResult(
        is_pred=False,
        violating_prefix_length=length,
        violation=result,
        prefixes_checked=checked,
    )


def _schedule(schedule):
    return (
        tuple(process.process_id for process in schedule.processes()),
        schedule.events,
    )


def comparable(result: PredResult):
    """Every field of a result; schedules by their processes and events
    (a schedule has no equality of its own)."""
    violation = result.violation
    if violation is not None:
        completed = violation.completed
        violation = (
            _schedule(completed),
            _schedule(completed.original),
            completed.aborted_in_original,
            completed.completion_positions,
            violation.residual,
            violation.cancelled_pairs,
            violation.removed_effect_free,
            violation.is_reducible,
            violation.witness_cycle,
            violation.serial_order,
        )
    return (
        result.is_pred,
        result.violating_prefix_length,
        result.prefixes_checked,
        violation,
        str(result),
    )


def outcome(check, schedule, stop_early):
    try:
        return comparable(check(schedule, stop_early))
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return type(error)


def assert_same(schedule):
    """Both checks agree with ``stop_early`` both ways; returns the
    walk's early-stop outcome."""
    outcomes = []
    for stop_early in (True, False):
        walked = outcome(check_pred, schedule, stop_early)
        assert walked == outcome(reference_check_pred, schedule, stop_early)
        outcomes.append(walked)
    return outcomes[0]


def is_pred(walked):
    """The walk's verdict, or ``None`` where it raised."""
    return walked[0] if isinstance(walked, tuple) else None


# -- the PRED scheduler, with failures and a mid-run mutation ---------------


@settings(max_examples=40, deadline=None)
@given(
    processes=st.lists(well_formed_processes(), min_size=2, max_size=4),
    conflicts=conflict_relations(),
    failing=st.sets(st.sampled_from(SERVICES), max_size=2),
    seed=st.integers(0, 10_000),
    mutation=st.none()
    | st.tuples(
        st.integers(1, 12),
        st.tuples(st.sampled_from(SERVICES), st.sampled_from(SERVICES)),
    ),
)
def test_pred_scheduler_histories(processes, conflicts, failing, seed, mutation):
    scheduler = run_reactor(
        TransactionalProcessScheduler,
        processes,
        sorted(conflicts.pairs()),
        failing,
        seed,
        mutation,
    )
    assert_same(scheduler.history())


# -- every discipline ---------------------------------------------------------


def discipline_history(name, seed):
    spec = WorkloadSpec(
        processes=4, conflict_rate=0.3, failure_rate=0.3, seed=seed
    )
    scheduler, runner = build_world(
        generate_workload(spec), scheduler_cls=DISCIPLINES[name]
    )
    runner.run()
    return scheduler.history()


@pytest.mark.parametrize("name", sorted(DISCIPLINES))
def test_every_discipline(name):
    """Twenty seeded workloads with failures per discipline.  The
    disciplines that do not guarantee PRED must produce histories that
    are legal and not PRED, or the comparison saw only the easy case."""
    verdicts = [
        is_pred(assert_same(discipline_history(name, seed)))
        for seed in range(20)
    ]
    if name in ("serial", "pred"):
        assert set(verdicts) == {True}
    else:
        assert False in verdicts


# -- histories replayed after crash points ------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**10),
    where=st.floats(0.0, 1.0),
    keep=st.none() | st.just(0),
    recovery_crash_after=st.none() | st.integers(1, 3),
    checkpoint_interval=st.none() | st.just(5),
)
def test_histories_replayed_after_a_crash(
    seed, where, keep, recovery_crash_after, checkpoint_interval
):
    spec = CrashPointSpec(
        seed=seed, recovery_stride=0, checkpoint_interval=checkpoint_interval
    )
    crash_lsn = 1 + int(where * (baseline_lsns(spec) - 1))
    histories = []
    certify = crashpoints.certify_history

    def capturing(history, terminated):
        histories.append(history)
        return certify(history, terminated)

    with mock.patch.object(crashpoints, "certify_history", capturing):
        crash_once(spec, crash_lsn, recovery_crash_after, keep)
    assert histories
    for history in histories:
        assert_same(history)


# -- the paper's figures ------------------------------------------------------

FIGURES = {
    name: getattr(paper, f"schedule_{name}")
    for name in ("fig4a", "fig4b", "fig7", "fig9", "fig9_incorrect")
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_paper_figures_and_their_prefixes(name):
    schedule = FIGURES[name]().schedule
    verdicts = [
        assert_same(schedule.prefix(length))
        for length in range(len(schedule) + 1)
    ]
    assert is_pred(verdicts[-1]) is (name in ("fig7", "fig9"))


# -- deliberately illegal schedules -------------------------------------------


def mutated(schedule, rng):
    """``schedule`` with one activity event moved, dropped or doubled, a
    step of its process inserted where it cannot be explained (the
    compensation where there is one, else the forward activity), its
    process left out of ``P_S``, or a commit or abort of a process that
    is not."""
    processes = list(schedule.processes())
    events = list(schedule.events)
    activities = [i for i, e in enumerate(events) if isinstance(e, ActivityEvent)]
    index = rng.choice(activities)
    event = events[index]
    known = event.process_id in {process.process_id for process in processes}
    kind = rng.choice((0, 1, 2, 3, 4, 5) if known else (0, 1, 2, 5))
    if kind == 0:
        events.insert(rng.randrange(len(events)), events.pop(index))
    elif kind == 1:
        del events[index]
    elif kind == 2:
        events.insert(rng.randrange(len(events) + 1), event)
    elif kind == 3:
        pid = event.process_id
        name = rng.choice(schedule.process(pid).activity_names)
        try:
            step = schedule.activity_event(pid, name, Direction.COMPENSATION)
        except InvalidScheduleError:
            step = schedule.activity_event(pid, name)
        events.insert(rng.randrange(len(events) + 1), step)
    elif kind == 4:
        processes.remove(schedule.process(event.process_id))
    else:
        ghost = rng.choice((CommitEvent, AbortEvent))("ghost")
        events.insert(rng.randrange(len(events) + 1), ghost)
    return ProcessSchedule(processes, schedule.conflicts, events)


ILLEGAL_SOURCES = {
    **{name: lambda make=make: make().schedule for name, make in FIGURES.items()},
    **{
        name: functools.partial(discipline_history, name, 1)
        for name in ("locking", "optimistic", "pred", "serial")
    },
}


@pytest.mark.parametrize("source", sorted(ILLEGAL_SOURCES))
def test_illegal_schedules_raise_alike(source):
    """One to three mutations of a legal schedule, thirty times; most
    of them make some process's projection illegal (Definition 7.1)."""
    legal = ILLEGAL_SOURCES[source]()
    raised = set()
    for seed in range(30):
        rng = random.Random(seed)
        schedule = legal
        for _ in range(rng.randint(1, 3)):
            schedule = mutated(schedule, rng)
        walked = assert_same(schedule)
        if is_pred(walked) is None:
            raised.add(walked)
    assert raised == {InvalidScheduleError, UnknownProcessError}
