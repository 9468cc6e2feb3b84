"""Property: federation is observationally equivalent to one scheduler.

For workloads whose process footprints are pairwise disjoint (so no
run — federated or not — ever needs to abort anything), the terminal
subsystem states of an N-shard federated run must be *identical* to a
single-scheduler run of the same processes: same committed set, same
counter stores, no prepared residue, and a PRED-certified merged
history.  This holds even when individual processes span shards and
commit through the cross-shard 2PC.

Conflicting workloads are excluded by design: deadlock-victim selection
is legitimately schedule-dependent, so only the PRED/audit guarantees
(covered by the chaos properties and X13) apply there, not state
equality.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flex import build_process, comp, pivot, retr, seq
from repro.fed.federation import Federation
from repro.fed.router import ShardRouter
from repro.fed.runner import FederationRunner
from repro.sim.certify import certify_history
from repro.sim.clock import VirtualClock
from repro.sim.federation import FederationSpec, build_federation
from repro.subsystems.services import counter_service
from repro.subsystems.subsystem import Subsystem


@st.composite
def fleet_blueprints(draw):
    """Small fleets of processes with globally disjoint footprints.

    Each process gets its own fresh services (one per activity), so no
    two processes can conflict anywhere; services are later spread
    round-robin across shards, making most processes cross-shard.
    """
    shards = draw(st.integers(2, 4))
    count = draw(st.integers(2, 5))
    shapes = [
        (draw(st.integers(0, 2)), draw(st.integers(1, 2)))
        for _ in range(count)
    ]
    return shards, shapes


def _build_fleet(shard_count, shapes):
    """Materialise the blueprint on a fleet of ``shard_count`` shards."""
    owners = {}
    subsystems = []
    processes = []
    slot = 0
    for index, (prefix_len, suffix_len) in enumerate(shapes):
        names = [
            f"p{index}svc{step}"
            for step in range(prefix_len + 1 + suffix_len)
        ]
        for service in names:
            owners[service] = f"s{slot % shard_count}"
            slot += 1
            subsystem = Subsystem(service)
            subsystem.register(counter_service(service, key=service))
            subsystems.append(subsystem)
        steps = [
            comp(f"p{index}a{step}", service=names[step])
            for step in range(prefix_len)
        ]
        steps.append(
            pivot(f"p{index}pivot", service=names[prefix_len])
        )
        steps.extend(
            retr(f"p{index}r{step}", service=names[prefix_len + 1 + step])
            for step in range(suffix_len)
        )
        processes.append(build_process(f"P{index}", seq(*steps)))

    federation = Federation(
        ShardRouter(owners), subsystems, clock=VirtualClock()
    )
    for process in processes:
        federation.submit(process)
    runner = FederationRunner(federation, capacity=4)
    return federation, runner


def _observe(shard_count, shapes):
    federation, runner = _build_fleet(shard_count, shapes)
    metrics = runner.run()
    certification = certify_history(
        federation.merged_history(), federation.all_terminated()
    )
    audit = federation.validate()
    return federation.snapshot(), metrics, certification, audit


@settings(max_examples=20, deadline=None)
@given(blueprint=fleet_blueprints())
def test_cross_shard_fleet_matches_single_scheduler(blueprint):
    shard_count, shapes = blueprint
    single_state, single_metrics, _, _ = _observe(1, shapes)
    fleet_state, fleet_metrics, certification, audit = _observe(
        shard_count, shapes
    )
    # disjoint footprints: everything commits, nothing is ever aborted
    assert single_metrics.committed == len(shapes)
    assert fleet_metrics.committed == len(shapes)
    assert fleet_metrics.aborted == 0
    # the observable terminal state is *identical* across fleet shapes
    assert fleet_state == single_state
    assert certification.certified, certification.describe()
    assert audit.clean, audit


@settings(max_examples=15, deadline=None)
@given(
    shards=st.integers(1, 4),
    groups=st.integers(4, 6),
    per_group=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_disjoint_workload_state_is_fleet_invariant(
    shards, groups, per_group, seed
):
    """The generated disjoint workload reaches the same stores on any
    fleet size as on one shard."""

    def observe(shard_count):
        spec = FederationSpec(
            shards=shard_count,
            service_groups=groups,
            processes_per_group=per_group,
            disjoint_processes=True,
            seed=seed,
        )
        federation, runner = build_federation(spec)
        metrics = runner.run()
        return federation.snapshot(), metrics

    single_state, single_metrics = observe(1)
    fleet_state, fleet_metrics = observe(shards)
    total = groups * per_group
    assert single_metrics.committed == total
    assert fleet_metrics.committed == total
    assert fleet_state == single_state
