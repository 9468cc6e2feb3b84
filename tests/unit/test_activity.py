"""Unit tests for the activity model (Definitions 1-4)."""

import pytest

from repro.core.activity import (
    COMPENSATION_SUFFIX,
    ActivityDef,
    ActivityId,
    ActivityKind,
    Direction,
)
from repro.errors import InvalidProcessError


class TestActivityKind:
    def test_symbols_match_paper_notation(self):
        assert ActivityKind.COMPENSATABLE.symbol == "c"
        assert ActivityKind.PIVOT.symbol == "p"
        assert ActivityKind.RETRIABLE.symbol == "r"

    def test_kind_predicates_are_exclusive(self):
        for kind in ActivityKind:
            flags = [
                kind.is_compensatable,
                kind is ActivityKind.PIVOT,
                kind.is_retriable,
            ]
            assert sum(flags) == 1


class TestActivityDef:
    def test_service_defaults_to_name(self):
        definition = ActivityDef("enter_bom", ActivityKind.PIVOT)
        assert definition.service == "enter_bom"

    def test_compensatable_gets_default_compensation_service(self):
        definition = ActivityDef("enter_bom", ActivityKind.COMPENSATABLE)
        assert definition.compensation_service == "enter_bom" + COMPENSATION_SUFFIX

    def test_explicit_compensation_service_kept(self):
        definition = ActivityDef(
            "enter_bom",
            ActivityKind.COMPENSATABLE,
            compensation_service="remove_bom",
        )
        assert definition.compensation_service == "remove_bom"

    def test_pivot_must_not_declare_compensation(self):
        with pytest.raises(InvalidProcessError):
            ActivityDef(
                "produce",
                ActivityKind.PIVOT,
                compensation_service="unproduce",
            )

    def test_retriable_must_not_declare_compensation(self):
        with pytest.raises(InvalidProcessError):
            ActivityDef(
                "notify",
                ActivityKind.RETRIABLE,
                compensation_service="unnotify",
            )

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidProcessError):
            ActivityDef("", ActivityKind.PIVOT)

    def test_label_uses_paper_superscript(self):
        definition = ActivityDef("a3", ActivityKind.COMPENSATABLE)
        assert definition.label("P1") == "P1.a3^c"

    def test_effect_free_default_false(self):
        assert not ActivityDef("x", ActivityKind.PIVOT).effect_free
        assert ActivityDef("x", ActivityKind.PIVOT, effect_free=True).effect_free


class TestActivityId:
    def test_str_matches_paper_notation(self):
        forward = ActivityId("P1", "a3")
        assert str(forward) == "P1.a3"
        assert str(forward.inverse) == "P1.a3^-1"

    def test_forward_of_compensation_round_trips(self):
        inverse = ActivityId("P1", "a3", Direction.COMPENSATION)
        assert inverse.forward == ActivityId("P1", "a3")
        assert inverse.forward.inverse == inverse

    def test_compensation_of_compensation_rejected(self):
        inverse = ActivityId("P1", "a3", Direction.COMPENSATION)
        with pytest.raises(InvalidProcessError):
            inverse.inverse

    def test_ids_are_hashable_and_ordered(self):
        a = ActivityId("P1", "a1")
        b = ActivityId("P1", "a2")
        assert len({a, b, ActivityId("P1", "a1")}) == 2
        assert sorted([b, a])[0] == a

    def test_key_is_plain_tuple(self):
        assert ActivityId("P1", "a3").key() == ("P1", "a3", 1)
        assert ActivityId("P1", "a3", Direction.COMPENSATION).key() == (
            "P1",
            "a3",
            -1,
        )

    def test_direction_exponents(self):
        assert Direction.FORWARD.exponent == 1
        assert Direction.COMPENSATION.exponent == -1
