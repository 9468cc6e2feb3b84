"""A latency spike costs virtual time in the federated driver too.

The single-scheduler driver charges every dispatched activity its
service duration *plus* the spike its subsystem reported
(``scheduler.timeline_latency``).  The federated driver must charge the
same, or a latency fault is counted as fired while a run's timing stays
exactly what it was without it.
"""

from repro.fed.messages import MessageFaultPolicy
from repro.obs.bus import MemorySink, TraceBus
from repro.sim.certify import certify_history
from repro.sim.federation import FleetSpec, build_fleet
from repro.subsystems.failures import Fault, FailurePolicy, FaultKind

SPIKE = 5.0
FLEET = FleetSpec(shards=2, service_groups=4, processes_per_group=1, seed=3)


class SpikeEveryInvocation(FailurePolicy):
    """Every invocation succeeds, ``SPIKE`` virtual time late."""

    def should_fail(self, service, attempt):
        return False

    def fault_for(self, service, attempt):
        return Fault(FaultKind.LATENCY, SPIKE)


def run_fleet(failures):
    bus = TraceBus()
    sink = bus.subscribe(MemorySink())
    federation, runner = build_fleet(
        FLEET, MessageFaultPolicy(), failures=failures, trace=bus
    )
    metrics = runner.run()
    certification = certify_history(
        federation.merged_history(), federation.all_terminated()
    )
    assert certification.certified, certification.describe()
    durations = [
        event.data["duration"] for event in sink.events if event.kind == "exec"
    ]
    return metrics, durations


def test_a_spiked_activity_takes_its_spike():
    _, clean = run_fleet(None)
    _, spiked = run_fleet(SpikeEveryInvocation())
    assert set(clean) == {1.0}
    assert 1.0 + SPIKE in spiked


def test_spikes_lengthen_the_run():
    clean, _ = run_fleet(None)
    spiked, _ = run_fleet(SpikeEveryInvocation())
    assert spiked.committed == clean.committed
    assert spiked.makespan >= clean.makespan + SPIKE
