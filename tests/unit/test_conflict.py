"""Unit tests for commutativity/conflict relations (Definition 6)."""

import pytest

from repro.core.activity import COMPENSATION_SUFFIX
from repro.core.conflict import (
    AllConflicts,
    ExplicitConflicts,
    NoConflicts,
    ReadWriteConflicts,
    UnionConflicts,
    normalize_service,
)


class TestNormalize:
    def test_forward_name_unchanged(self):
        assert normalize_service("pdm_write") == "pdm_write"

    def test_compensation_suffix_stripped(self):
        assert normalize_service("pdm_write" + COMPENSATION_SUFFIX) == "pdm_write"


class TestExplicitConflicts:
    def test_declared_pair_conflicts_symmetrically(self):
        relation = ExplicitConflicts([("a", "b")])
        assert relation.conflicts("a", "b")
        assert relation.conflicts("b", "a")

    def test_undeclared_pair_commutes(self):
        relation = ExplicitConflicts([("a", "b")])
        assert relation.commute("a", "c")

    def test_perfect_commutativity_closure(self):
        """conflict(a,b) implies conflicts among all combinations with
        the inverses — the paper's perfect commutativity assumption."""
        relation = ExplicitConflicts([("a", "b")])
        a_inv = "a" + COMPENSATION_SUFFIX
        b_inv = "b" + COMPENSATION_SUFFIX
        for left in ("a", a_inv):
            for right in ("b", b_inv):
                assert relation.conflicts(left, right)
                assert relation.conflicts(right, left)

    def test_perfect_commutativity_for_commuting_pairs(self):
        relation = ExplicitConflicts([("a", "b")])
        c_inv = "c" + COMPENSATION_SUFFIX
        assert relation.commute("a", "c")
        assert relation.commute("a" + COMPENSATION_SUFFIX, c_inv)

    def test_self_conflict_declared(self):
        relation = ExplicitConflicts([("a", "a")])
        assert relation.conflicts("a", "a")

    def test_retract(self):
        relation = ExplicitConflicts([("a", "b")])
        relation.retract("b", "a")
        assert relation.commute("a", "b")

    def test_declare_chains(self):
        relation = ExplicitConflicts().declare("a", "b").declare("b", "c")
        assert relation.conflicts("a", "b") and relation.conflicts("c", "b")
        assert len(relation) == 2

    def test_pairs_iteration_normalised(self):
        relation = ExplicitConflicts([("x" + COMPENSATION_SUFFIX, "y")])
        assert list(relation.pairs()) == [("x", "y")]


class TestReadWriteConflicts:
    def test_write_write_conflicts(self):
        relation = ReadWriteConflicts()
        relation.register("w1", writes=["stock"])
        relation.register("w2", writes=["stock"])
        assert relation.conflicts("w1", "w2")

    def test_read_write_conflicts_both_directions(self):
        relation = ReadWriteConflicts()
        relation.register("reader", reads=["bom"])
        relation.register("writer", writes=["bom"])
        assert relation.conflicts("reader", "writer")
        assert relation.conflicts("writer", "reader")

    def test_read_read_commutes(self):
        relation = ReadWriteConflicts()
        relation.register("r1", reads=["bom"])
        relation.register("r2", reads=["bom"])
        assert relation.commute("r1", "r2")

    def test_disjoint_resources_commute(self):
        relation = ReadWriteConflicts()
        relation.register("a", writes=["x"])
        relation.register("b", writes=["y"])
        assert relation.commute("a", "b")

    def test_unknown_service_commutes_with_everything(self):
        relation = ReadWriteConflicts()
        relation.register("a", writes=["x"])
        assert relation.commute("a", "ghost")

    def test_incremental_registration_unions(self):
        relation = ReadWriteConflicts()
        relation.register("a", reads=["x"])
        relation.register("a", writes=["y"])
        reads, writes = relation.access_set("a")
        assert reads == frozenset({"x"}) and writes == frozenset({"y"})

    def test_compensation_uses_forward_access_set(self):
        relation = ReadWriteConflicts()
        relation.register("a", writes=["x"])
        relation.register("b", reads=["x"])
        assert relation.conflicts("a" + COMPENSATION_SUFFIX, "b")


class TestTrivialRelations:
    def test_no_conflicts(self):
        assert NoConflicts().commute("a", "b")
        assert NoConflicts().commute("a", "a")

    def test_all_conflicts(self):
        relation = AllConflicts()
        assert relation.conflicts("a", "b")
        assert relation.conflicts("a", "a")


class TestUnionConflicts:
    def test_union_of_explicit_relations(self):
        left = ExplicitConflicts([("a", "b")])
        right = ExplicitConflicts([("c", "d")])
        union = left | right
        assert union.conflicts("a", "b")
        assert union.conflicts("d", "c")
        assert union.commute("a", "c")

    def test_union_flattens_nested_unions(self):
        u1 = ExplicitConflicts([("a", "b")]) | ExplicitConflicts([("c", "d")])
        u2 = u1 | ExplicitConflicts([("e", "f")])
        assert isinstance(u2, UnionConflicts)
        assert len(u2._relations) == 3

    def test_union_with_semantic_relation(self):
        semantic = ReadWriteConflicts().register("r", reads=["k"]).register(
            "w", writes=["k"]
        )
        union = UnionConflicts((ExplicitConflicts([("x", "y")]), semantic))
        assert union.conflicts("r", "w")
        assert union.conflicts("x", "y")
        assert union.commute("r", "x")


class TestSetValuedQuery:
    """``conflicting(service, candidates)`` is the pairwise loop, asked
    once — whichever relation answers it and however it is indexed."""

    UNIVERSE = frozenset("abcdex")

    @staticmethod
    def pairwise(relation, service, candidates):
        return {c for c in candidates if relation.conflicts(service, c)}

    def agrees(self, relation):
        for service in sorted(self.UNIVERSE) + ["a" + COMPENSATION_SUFFIX]:
            for candidates in (self.UNIVERSE, frozenset("bd"), frozenset()):
                assert relation.conflicting(
                    service, candidates
                ) == self.pairwise(relation, service, candidates), service

    def semantic(self):
        return (
            ReadWriteConflicts()
            .register("a", writes=["k"])
            .register("b", reads=["k"])
            .register("c", reads=["k"])
            .register("d", reads=["m"], writes=["m"])
        )

    def test_trivial_relations_use_the_pairwise_body(self):
        for relation in (
            NoConflicts(),
            AllConflicts(),
        ):
            self.agrees(relation)

    def test_explicit_answers_from_its_adjacency(self):
        relation = ExplicitConflicts([("a", "b"), ("a", "d"), ("c", "c")])
        self.agrees(relation)
        assert relation.conflicting("c", self.UNIVERSE) == {"c"}  # self
        assert relation.conflicting(
            "a" + COMPENSATION_SUFFIX, self.UNIVERSE
        ) == {"b", "d"}

    def test_explicit_follows_retract_and_declare(self):
        relation = ExplicitConflicts([("a", "b"), ("a", "d")])
        relation.retract("a", "b")
        assert relation.conflicting("a", self.UNIVERSE) == {"d"}
        assert relation.conflicting("b", self.UNIVERSE) == set()
        relation.declare("b", "e" + COMPENSATION_SUFFIX)
        self.agrees(relation)
        assert relation.conflicting("e", self.UNIVERSE) == {"b"}

    def test_read_write_answers_from_its_resource_index(self):
        relation = self.semantic()
        self.agrees(relation)
        assert relation.conflicting("a", self.UNIVERSE) == {"a", "b", "c"}
        assert relation.conflicting("b", self.UNIVERSE) == {"a"}
        assert relation.conflicting("x", self.UNIVERSE) == set()  # unknown

    def test_read_write_index_follows_a_later_register(self):
        relation = self.semantic()
        assert relation.conflicting("e", self.UNIVERSE) == set()
        relation.register("e", writes=["k"])  # new service
        relation.register("b", writes=["m"])  # re-register extends
        self.agrees(relation)
        assert relation.conflicting("e", self.UNIVERSE) == {"a", "b", "c", "e"}
        assert "d" in relation.conflicting("b", self.UNIVERSE)

    def test_union_is_the_union_of_its_children(self):
        explicit = ExplicitConflicts([("a", "x")])
        relation = UnionConflicts((explicit, self.semantic()))
        self.agrees(relation)
        assert relation.conflicting("a", self.UNIVERSE) == {"a", "b", "c", "x"}

    def test_union_sees_a_child_mutated_after_the_first_ask(self):
        explicit = ExplicitConflicts([("a", "x")])
        semantic = self.semantic()
        relation = UnionConflicts((explicit, semantic))
        assert relation.conflicting("d", self.UNIVERSE) == {"d"}
        version = relation.version
        explicit.declare("d", "x")
        semantic.register("e", reads=["m"])
        explicit.retract("a", "x")
        assert relation.version > version
        assert relation.conflicting("d", self.UNIVERSE) == {"d", "e", "x"}
        self.agrees(relation)

    def test_set_queries_are_not_pair_lookups(self):
        relation = UnionConflicts((ExplicitConflicts([("a", "b")]),))
        relation.conflicting("a", self.UNIVERSE)
        assert (relation.lookups, relation.cache_hits) == (0, 0)
