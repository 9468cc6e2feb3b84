"""Property-based tests: flex structures and guaranteed termination."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flex import (
    Outcome,
    build_process,
    is_well_formed,
    parse_flex,
    simulate,
    state_determining_activity,
)
from repro.core.instance import InstanceStatus, ProcessInstance

from tests.conftest import drive_instance
from tests.property.strategies import flex_trees, well_formed_processes


@settings(max_examples=60, deadline=None)
@given(tree=flex_trees())
def test_generated_trees_compile_to_well_formed_processes(tree):
    process = build_process("P", tree)
    assert is_well_formed(process)


@settings(max_examples=60, deadline=None)
@given(tree=flex_trees())
def test_parse_round_trip_preserves_activities(tree):
    process = build_process("P", tree)
    parsed = parse_flex(process)
    original = [definition.name for definition in tree.activities()]
    recovered = [definition.name for definition in parsed.activities()]
    assert recovered == original


@settings(max_examples=60, deadline=None)
@given(process=well_formed_processes())
def test_failure_free_simulation_commits(process):
    path = simulate(process)
    assert path.outcome is Outcome.COMMIT


@settings(max_examples=80, deadline=None)
@given(
    process=well_formed_processes(),
    data=st.data(),
)
def test_guaranteed_termination_under_any_single_failure(process, data):
    """Any single non-retriable failure still reaches a valid end: either
    a commit, or an effect-free abort (semi-atomicity / guaranteed
    termination)."""
    fallible = [
        name
        for name in process.activity_names
        if not process.activity(name).kind.is_retriable
    ]
    if not fallible:
        return
    victim = data.draw(st.sampled_from(fallible))
    path = simulate(process, {victim})
    if path.outcome is Outcome.ABORT:
        assert path.is_effect_free()
    else:
        assert path.outcome is Outcome.COMMIT


@settings(max_examples=50, deadline=None)
@given(process=well_formed_processes(), data=st.data())
def test_guaranteed_termination_under_failure_sets(process, data):
    fallible = [
        name
        for name in process.activity_names
        if not process.activity(name).kind.is_retriable
    ]
    failing = data.draw(
        st.sets(st.sampled_from(fallible), max_size=len(fallible))
        if fallible
        else st.just(set())
    )
    path = simulate(process, failing)
    assert path.outcome in (Outcome.COMMIT, Outcome.ABORT)
    if path.outcome is Outcome.ABORT:
        assert path.is_effect_free()


@settings(max_examples=50, deadline=None)
@given(process=well_formed_processes(), data=st.data())
def test_instance_agrees_with_reference_interpreter(process, data):
    """The event-driven ProcessInstance and the recursive interpreter in
    flex.py are independent implementations of §3.1; they must agree on
    the committed effects for any single-failure scenario."""
    fallible = [
        name
        for name in process.activity_names
        if not process.activity(name).kind.is_retriable
    ]
    failing = (
        {data.draw(st.sampled_from(fallible))} if fallible else set()
    )
    reference = simulate(process, failing)
    instance = drive_instance(ProcessInstance(process), failing=failing)
    instance_effects = tuple(str(step) for step in instance.trace())
    reference_effects = tuple(str(step) for step in reference.steps)
    assert instance_effects == reference_effects
    expected_status = (
        InstanceStatus.COMMITTED
        if reference.outcome is Outcome.COMMIT
        else InstanceStatus.ABORTED
    )
    assert instance.status is expected_status


@settings(max_examples=60, deadline=None)
@given(process=well_formed_processes())
def test_state_determining_activity_is_first_non_compensatable(process):
    name = state_determining_activity(process)
    kinds = [process.activity(n).kind for n in process.activity_names]
    if all(kind.is_compensatable for kind in kinds):
        assert name is None
    else:
        assert name is not None
        assert not process.activity(name).kind.is_compensatable
        for earlier in process.activity_names:
            if process.precedes(earlier, name):
                assert process.activity(earlier).kind.is_compensatable
