"""Property: the nemesis and the federation harness run the same fleet.

Both assemble their world through :func:`repro.sim.federation.build_fleet`;
a plan that injects nothing and a spec with no faults must therefore
produce the same merged history — every activity and termination, on
the same shard, at the same virtual time — for any fleet shape.
"""

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nemesis import FaultPlan, NemesisSpec, run_plan
from repro.obs import MemorySink, TraceBus
from repro.sim.federation import FederationSpec, FleetSpec, run_federation


def _history_hash(run) -> str:
    """sha256 of the traced activity/termination stream of one run."""
    bus = TraceBus()
    sink = bus.subscribe(MemorySink())
    run(bus)
    history = [
        (record["ts"], record["process"], record["activity"], record["data"])
        for record in sink.records()
        if record["kind"] in ("activity", "rolled_back", "terminated")
    ]
    assert history
    text = json.dumps(history, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@st.composite
def fleets(draw) -> FleetSpec:
    shards = draw(st.integers(1, 3))
    return FleetSpec(
        shards=shards,
        service_groups=shards + draw(st.integers(0, 3)),
        services_per_group=draw(st.integers(1, 3)),
        processes_per_group=draw(st.integers(1, 3)),
        cross_shard_fraction=draw(st.sampled_from((0.0, 0.3, 0.6))),
        disjoint_processes=draw(st.booleans()),
        conflict_rate=draw(st.sampled_from((0.0, 0.05, 0.2))),
        shard_capacity=draw(st.integers(1, 4)),
        alternative_probability=draw(st.sampled_from((0.0, 0.25, 0.8))),
        seed=draw(st.integers(0, 10_000)),
    )


@given(fleet=fleets())
@settings(max_examples=25, deadline=None)
def test_empty_plan_and_faultless_spec_yield_the_same_history(fleet):
    nemesis = _history_hash(
        lambda bus: run_plan(NemesisSpec(fleet=fleet), FaultPlan(), trace=bus)
    )
    federation = _history_hash(
        lambda bus: run_federation(FederationSpec(**vars(fleet)), trace=bus)
    )
    assert nemesis == federation
