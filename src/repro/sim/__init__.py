"""Discrete-event simulation: virtual time, workloads, metrics."""

from repro.sim.clock import VirtualClock
from repro.sim.engine import EventQueue
from repro.sim.metrics import RunMetrics, percentile, summarize
from repro.sim.runner import (
    SimulationRunner,
    constant_durations,
    simulate_run,
)
from repro.sim.workload import (
    Workload,
    WorkloadSpec,
    generate_process,
    generate_workload,
)
from repro.sim.experiments import DISCIPLINES, run_discipline, sweep
from repro.sim.certify import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    Certification,
    GradedRun,
    certify_history,
)
from repro.sim.chaos import (
    ChaosResult,
    ChaosSpec,
    chaos_sweep,
    default_mixes,
    run_chaos,
)
from repro.sim.crashpoints import (
    CrashingWAL,
    CrashPointResult,
    CrashPointSpec,
    CrashPointSweep,
    FaultResult,
    SimulatedCrash,
    crash_once,
    run_crashpoints,
    run_file_faults,
)
