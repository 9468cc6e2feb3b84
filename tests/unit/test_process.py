"""Unit tests for the process model ``P = (A, ≪, ◁)`` (Definition 5)."""

import pytest

from repro.core.activity import ActivityDef, ActivityKind
from repro.core.process import Process, ProcessBuilder
from repro.errors import InvalidProcessError, UnknownActivityError


def build_p1():
    """The paper's P1 built through the low-level graph builder."""
    return (
        ProcessBuilder("P1")
        .compensatable("a1")
        .pivot("a2")
        .compensatable("a3")
        .pivot("a4")
        .retriable("a5")
        .retriable("a6")
        .chain("a1", "a2", "a3", "a4")
        .precede("a2", "a5")
        .precede("a5", "a6")
        .prefer("a2", ["a3", "a5"])
        .build()
    )


class TestConstruction:
    def test_builder_produces_all_activities(self):
        process = build_p1()
        assert set(process.activity_names) == {"a1", "a2", "a3", "a4", "a5", "a6"}
        assert len(process) == 6

    def test_duplicate_activity_rejected(self):
        builder = ProcessBuilder("P").compensatable("a")
        with pytest.raises(InvalidProcessError):
            builder.compensatable("a")

    def test_unknown_activity_in_edge_rejected(self):
        with pytest.raises(UnknownActivityError):
            ProcessBuilder("P").compensatable("a").precede("a", "ghost").build()

    def test_reflexive_edge_rejected(self):
        with pytest.raises(InvalidProcessError):
            ProcessBuilder("P").compensatable("a").precede("a", "a").build()

    def test_cyclic_precedence_rejected(self):
        with pytest.raises(InvalidProcessError):
            (
                ProcessBuilder("P")
                .compensatable("a")
                .compensatable("b")
                .precede("a", "b")
                .precede("b", "a")
                .build()
            )

    def test_preference_must_reference_connectors(self):
        builder = (
            ProcessBuilder("P")
            .pivot("a")
            .retriable("b")
            .retriable("c")
            .precede("a", "b")
            .prefer("a", ["b", "c"])
        )
        with pytest.raises(InvalidProcessError):
            builder.build()

    def test_preference_needs_two_branches(self):
        builder = (
            ProcessBuilder("P")
            .pivot("a")
            .retriable("b")
            .precede("a", "b")
            .prefer("a", ["b"])
        )
        with pytest.raises(InvalidProcessError):
            builder.build()

    def test_preference_duplicate_branch_rejected(self):
        builder = (
            ProcessBuilder("P")
            .pivot("a")
            .retriable("b")
            .precede("a", "b")
            .prefer("a", ["b", "b"])
        )
        with pytest.raises(InvalidProcessError):
            builder.build()

    def test_alternatives_must_be_mutually_unreachable(self):
        builder = (
            ProcessBuilder("P")
            .pivot("a")
            .compensatable("b")
            .retriable("c")
            .precede("a", "b")
            .precede("a", "c")
            .precede("b", "c")
            .prefer("a", ["b", "c"])
        )
        with pytest.raises(InvalidProcessError):
            builder.build()

    def test_validate_false_admits_malformed(self):
        process = (
            ProcessBuilder("P")
            .compensatable("a")
            .compensatable("b")
            .precede("a", "b")
            .precede("b", "a")
            .build(validate=False)
        )
        assert len(process) == 2


class TestQueries:
    def test_direct_neighbours(self):
        process = build_p1()
        assert process.direct_successors("a2") == ("a3", "a5")
        assert [
            name
            for name in process.activity_names
            if "a3" in process.direct_successors(name)
        ] == ["a2"]

    def test_transitive_precedence(self):
        process = build_p1()
        assert process.precedes("a1", "a4")
        assert process.precedes("a1", "a6")
        assert not process.precedes("a3", "a5")

    def test_unordered_alternative_branches(self):
        process = build_p1()
        assert process.unordered("a3", "a5")
        assert process.unordered("a4", "a6")
        assert not process.unordered("a1", "a6")

    def test_descendants_and_ancestors(self):
        process = build_p1()
        assert process.descendants("a2") == frozenset({"a3", "a4", "a5", "a6"})
        ancestors = {n for n in process.activity_names if process.precedes(n, "a4")}
        assert ancestors == {"a1", "a2", "a3"}

    def test_roots_and_sinks(self):
        process = build_p1()
        assert process.roots() == ("a1",)
        sinks = {n for n in process.activity_names if not process.direct_successors(n)}
        assert sinks == {"a4", "a6"}

    def test_alternatives_and_unconditional(self):
        process = build_p1()
        assert process.alternatives("a2") == ("a3", "a5")
        assert process.direct_successors("a2") == ("a3", "a5")  # all branches
        assert process.alternatives("a1") == ()
        assert process.direct_successors("a1") == ("a2",)  # unconditional

    def test_branch_activities(self):
        process = build_p1()
        assert process.branch_activities("a2", "a3") == frozenset({"a3", "a4"})
        assert process.branch_activities("a2", "a5") == frozenset({"a5", "a6"})

    def test_branch_activities_rejects_non_branch(self):
        process = build_p1()
        with pytest.raises(InvalidProcessError):
            process.branch_activities("a1", "a2")

    def test_non_compensatable_names_topological(self):
        process = build_p1()
        assert process.non_compensatable_names() == ("a2", "a4", "a5", "a6")

    def test_services_default_to_names(self):
        process = build_p1()
        assert process.services() == frozenset(
            {"a1", "a2", "a3", "a4", "a5", "a6"}
        )

    def test_contains_and_activity_lookup(self):
        process = build_p1()
        assert "a3" in process.activity_names
        assert "ghost" not in process.activity_names
        assert process.activity("a3").kind is ActivityKind.COMPENSATABLE
        with pytest.raises(UnknownActivityError):
            process.activity("ghost")

    def test_edges_deterministic(self):
        process = build_p1()
        assert list(process.edges()) == sorted(process.edges())


class TestRenamed:
    def test_renamed_copy_preserves_structure(self):
        process = build_p1()
        copy = process.renamed("P1#2")
        assert copy.process_id == "P1#2"
        assert copy.activity_names == process.activity_names
        assert copy.alternatives("a2") == process.alternatives("a2")
        assert list(copy.edges()) == list(process.edges())

    def test_renamed_same_id_returns_self(self):
        process = build_p1()
        assert process.renamed("P1") is process


def figure_and_scenario_processes():
    """Every process of the paper's figures and of ``repro.scenarios``."""
    from repro.scenarios import (
        construction_process,
        order_process,
        production_process,
        schedule_fig4a,
        schedule_fig4b,
        schedule_fig7,
        schedule_fig9,
        schedule_fig9_incorrect,
        trip_process,
    )

    processes = [
        construction_process(),
        production_process(),
        order_process("O1", "book"),
        trip_process("T1"),
    ]
    for marked in (
        schedule_fig4a(),
        schedule_fig4b(),
        schedule_fig7(),
        schedule_fig9(),
        schedule_fig9_incorrect(),
    ):
        processes.extend(marked.schedule.processes())
    return processes


class TestParsedOnce:
    """A process is immutable: its flex tree, topological order and
    forward-recovery paths are derived once, shared with its renamed
    copies, and equal to a fresh derivation."""

    @staticmethod
    def rebuilt(process):
        """The same structure in a fresh object (nothing derived yet)."""
        return Process(
            process.process_id,
            process.activities(),
            process.edges(),
            {
                source: process.alternatives(source)
                for source in process.preference_sources()
            },
        )

    @pytest.mark.parametrize(
        "process",
        figure_and_scenario_processes(),
        ids=lambda process: process.process_id,
    )
    def test_cached_equals_a_fresh_derivation(self, process):
        from repro.core.flex import parse_flex

        tree = process.flex_tree
        assert tree is process.flex_tree
        assert tree == parse_flex(process) == parse_flex(self.rebuilt(process))
        assert process.activity_names == self.rebuilt(process).activity_names
        copy = process.renamed(process.process_id + "#2")
        assert copy.flex_tree is tree
        assert copy.flex_tree == parse_flex(copy)
        assert copy.activity_names == process.activity_names
        assert copy.roots() == process.roots()

    @pytest.mark.parametrize(
        "process",
        figure_and_scenario_processes(),
        ids=lambda process: process.process_id,
    )
    def test_recovery_paths_equal_a_fresh_walk(self, process):
        """The forward-recovery path after every activity, memoised per
        process and shared with its renamed copies, is a fresh walk's;
        a walk that fails is not kept and names the instance asking."""
        import re

        from repro.core.instance import ProcessInstance
        from repro.errors import NotWellFormedError

        paths = process.recovery_paths
        copy = process.renamed(process.process_id + "#2")
        assert copy.recovery_paths is paths
        for name in process.activity_names:
            fresh = ProcessInstance(self.rebuilt(process))
            try:
                walked = fresh._walk_recovery_path(name)
            except NotWellFormedError:
                with pytest.raises(
                    NotWellFormedError, match=re.escape(repr(copy.process_id))
                ):
                    ProcessInstance(copy)._forward_recovery_path(name)
                assert name not in paths
                continue
            assert ProcessInstance(process)._forward_recovery_path(name) == walked
            assert paths[name] == walked
            assert ProcessInstance(copy)._forward_recovery_path(name) == walked

    def test_an_instance_does_not_parse_again(self, monkeypatch):
        import repro.core.flex as flex
        from repro.core.instance import ProcessInstance

        parses = []
        parse = flex.parse_flex

        def counting(process):
            parses.append(process.process_id)
            return parse(process)

        monkeypatch.setattr(flex, "parse_flex", counting)
        process = build_p1()
        for index in range(3):
            ProcessInstance(process.renamed(f"P1#{index}"))
            ProcessInstance(process)
        assert parses == ["P1#0", "P1"]
