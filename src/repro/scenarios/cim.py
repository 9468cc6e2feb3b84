"""The CIM scenario of the paper's §2 (Figure 1).

Two processes coordinate Computer-Integrated Manufacturing subsystems:

* the **construction process** — design a part in the CAD system
  (compensatable: drawings can be archived/discarded), enter the bill
  of materials into the product data management system (compensatable:
  the PDM entry can be removed), run the *test* (pivot: a physical test
  consumes material and cannot be undone or guaranteed), then either
  write the full technical documentation (retriable) or — if the test
  failed — document the CAD drawing for later reuse (the alternative
  §2.1 describes);
* the **production process** — read the BOM from the PDM system
  (compensatable), order materials (compensatable: orders can be
  cancelled), schedule production (compensatable), and *produce*
  (pivot: once parts are physically made there is no inverse), then
  update stock (retriable).

The two processes conflict in the PDM system: the construction process
*writes* the BOM entry the production process *reads* (§2.2).  The
paper's point: ordering the two PDM activities suffices for concurrency
control, but recovery additionally requires the production pivot to be
deferred until the construction process commits — otherwise a failed
test compensates the PDM entry out from under physical production.

All services operate on real stores, so tests can assert effects and
effect-freeness of compensation, not just event orderings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.conflict import ConflictRelation
from repro.core.flex import build_process, choice, comp, pivot, retr, seq
from repro.core.process import Process
from repro.subsystems.services import (
    Service,
    ServicePair,
    append_service,
    counter_service,
)
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry

__all__ = [
    "CimScenario",
    "build_cim_scenario",
    "construction_process",
    "production_process",
]


def construction_process() -> Process:
    """The construction process of Figure 1.

    The preferred path enters the BOM into the PDM system, runs the
    test and writes the technical documentation.  If the *test* (the
    pivot) fails, the process backtracks: the PDM entry is compensated
    and only the CAD drawing is archived for later reuse — exactly the
    partial rollback §2.1 describes ("undo only the PDM entry and
    document the CAD drawing").  The long-running design activity is
    never undone.
    """
    return build_process(
        "Construction",
        seq(
            comp("design", service="cad_design", subsystem="cad"),
            pivot("approve", service="approve_design", subsystem="cad"),
            choice(
                seq(
                    comp("pdm_entry", service="pdm_write_bom", subsystem="pdm"),
                    pivot("test", service="test_part", subsystem="testdb"),
                    retr(
                        "tech_doc",
                        service="write_tech_doc",
                        subsystem="docs",
                    ),
                ),
                seq(
                    retr(
                        "doc_drawing",
                        service="archive_drawing",
                        subsystem="docs",
                    ),
                ),
            ),
        ),
    )


def production_process() -> Process:
    """The production process of Figure 1."""
    return build_process(
        "Production",
        seq(
            comp("read_bom", service="pdm_read_bom", subsystem="pdm"),
            comp("order", service="order_material", subsystem="erp"),
            comp("schedule", service="schedule_production", subsystem="erp"),
            pivot("produce", service="produce_parts", subsystem="floor"),
            retr("stock", service="update_stock", subsystem="erp"),
        ),
    )


@dataclass
class CimScenario:
    """Everything needed to run the CIM example."""

    registry: SubsystemRegistry
    conflicts: ConflictRelation
    construction: Process
    production: Process


def run_cim(fail_test: bool = False, paranoid: bool = True):
    """Run the Figure-1 scenario end to end; returns (scenario, scheduler).

    The production process is submitted once the construction process
    has entered the BOM into the PDM system (the BOM is production's
    trigger), so the two processes overlap exactly as in Figure 1: the
    conflicting PDM activities are ordered write-before-read, and the
    production pivot is deferred behind the active construction process
    (Lemma 1).  With ``fail_test=True`` the test activity fails, the
    construction process compensates the PDM entry and archives the
    drawing instead — and the scheduler *cascades* the abort into the
    production process, whose BOM has been invalidated (§2.2).
    """
    from repro.core.scheduler import (  # local import: avoid cycle
        SchedulerRules,
        TransactionalProcessScheduler,
    )
    from repro.subsystems.failures import FailurePlan, NoFailures

    scenario = build_cim_scenario()
    scheduler = TransactionalProcessScheduler(
        scenario.registry,
        scenario.conflicts,
        rules=SchedulerRules(paranoid=paranoid),
    )
    failures = (
        FailurePlan.fail_once(["test_part"]) if fail_test else NoFailures()
    )
    scheduler.submit(scenario.construction, failures=failures)
    # Drive construction until the BOM exists, then release production.
    guard = 0
    while scenario.registry.get("pdm").store.get("bom") is None:
        guard += 1
        if guard > 100:
            raise RuntimeError("construction never produced a BOM")
        scheduler.step_round()
    scheduler.submit(scenario.production)
    # Production reads the (now valid) BOM before construction goes on —
    # the Figure-1 interleaving whose recovery §2.2 analyses.
    scheduler.step("Production")
    scheduler.run()
    return scenario, scheduler


def build_cim_scenario() -> CimScenario:
    """Build the five CIM subsystems with real services and state.

    Subsystems (paper Figure 1): CAD, PDM, test database, technical
    documentation repository, business application / program repository
    / product DBMS (folded into ``erp``) and the production floor.
    """
    cad = Subsystem("cad", initial_state={"drawings": [], "approved": 0})
    cad.register(append_service("cad_design", "drawings", item_param="part"))
    cad.register(
        Service(
            "approve_design",
            lambda context: context.increment("approved"),
            reads=frozenset({"approved"}),
            writes=frozenset({"approved"}),
        )
    )

    pdm = Subsystem("pdm", initial_state={"bom": None, "bom_version": 0})

    def write_bom(context):
        context.write("bom", context.param("part", "part-1"))
        return context.increment("bom_version")

    def unwrite_bom(context):
        context.write("bom", None)
        return context.increment("bom_version")

    def read_bom(context):
        return context.read("bom")

    pdm.register(
        ServicePair(
            Service(
                "pdm_write_bom",
                write_bom,
                reads=frozenset({"bom", "bom_version"}),
                writes=frozenset({"bom", "bom_version"}),
            ),
            Service(
                "pdm_write_bom~inv",
                unwrite_bom,
                reads=frozenset({"bom", "bom_version"}),
                writes=frozenset({"bom", "bom_version"}),
            ),
        )
    )
    # Reading the BOM is compensatable with a no-op inverse: undoing a
    # read means invalidating what was derived from it, which is what
    # the *cascading abort* of the production process models.
    pdm.register(
        ServicePair(
            Service(
                "pdm_read_bom", read_bom, reads=frozenset({"bom"})
            ),
            Service("pdm_read_bom~inv", lambda context: None),
        )
    )

    testdb = Subsystem("testdb", initial_state={"tests_run": 0})
    testdb.register(
        Service(
            "test_part",
            lambda context: context.increment("tests_run"),
            reads=frozenset({"tests_run"}),
            writes=frozenset({"tests_run"}),
        )
    )

    docs = Subsystem("docs", initial_state={"documents": []})
    docs.register(append_service("write_tech_doc", "documents", item_param="part").forward)
    docs.register(append_service("archive_drawing", "documents", item_param="part").forward)

    erp = Subsystem(
        "erp",
        initial_state={"orders": [], "scheduled": [], "stock": 0},
    )
    erp.register(append_service("order_material", "orders", item_param="part"))
    erp.register(append_service("schedule_production", "scheduled", item_param="part"))
    erp.register(counter_service("update_stock", "stock").forward)

    floor = Subsystem("floor", initial_state={"produced": 0})
    floor.register(
        Service(
            "produce_parts",
            lambda context: context.increment("produced"),
            reads=frozenset({"produced"}),
            writes=frozenset({"produced"}),
        )
    )

    registry = SubsystemRegistry([cad, pdm, testdb, docs, erp, floor])
    # The semantic conflict between the two PDM activities (write vs
    # read of the BOM) falls out of their access sets.
    conflicts = registry.semantic_conflicts()
    return CimScenario(
        registry=registry,
        conflicts=conflicts,
        construction=construction_process(),
        production=production_process(),
    )
