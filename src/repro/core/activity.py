"""Activities and their termination guarantees (paper §3.1, Definitions 1-4).

Activities are service invocations in transactional subsystems.  Each
activity is itself a transaction in its subsystem and therefore atomic:
an invocation either commits or aborts.  Activities differ in their
*termination guarantees* (the flex transaction model):

* **compensatable** (``c``): a compensating activity exists whose
  execution right after the activity is effect-free (Definition 2);
* **retriable** (``r``): guaranteed to commit after finitely many
  invocations (Definition 3);
* **pivot** (``p``): neither compensatable nor retriable — once a pivot
  commits the process can no longer be rolled back, once it fails the
  process must try an alternative.

A *compensating* activity is itself not compensatable but is retriable
(paper §3.1), which we encode in :meth:`ActivityDef.compensation_def`.

Two layers are distinguished:

* :class:`ActivityDef` — the static declaration of an activity inside a
  process template: which service it invokes, on which subsystem, with
  which termination guarantee.
* :class:`ActivityId` — the identity of one activity *occurrence* inside
  a schedule, following the paper's notation ``a_{i_k}`` (process ``i``,
  activity ``k``) and ``a_{i_k}^{-1}`` for its compensation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Optional, Tuple

from repro.errors import InvalidProcessError

__all__ = [
    "ActivityKind",
    "Direction",
    "ActivityDef",
    "ActivityId",
    "COMPENSATION_SUFFIX",
]

#: Suffix used to derive the service name of a compensating activity when
#: the user does not name one explicitly, mirroring the paper's ``a^{-1}``.
COMPENSATION_SUFFIX = "~inv"


class ActivityKind(enum.Enum):
    """Termination guarantee of an activity (flex transaction model)."""

    COMPENSATABLE = "c"
    PIVOT = "p"
    RETRIABLE = "r"

    @property
    def symbol(self) -> str:
        """The paper's superscript for this kind (``c``, ``p`` or ``r``)."""
        return self.value

    @property
    def is_compensatable(self) -> bool:
        return self is ActivityKind.COMPENSATABLE

    @property
    def is_retriable(self) -> bool:
        return self is ActivityKind.RETRIABLE


class Direction(enum.Enum):
    """Whether an occurrence is the forward activity or its inverse."""

    FORWARD = 1
    COMPENSATION = -1

    @property
    def exponent(self) -> int:
        """The paper's exponent: ``1`` for forward, ``-1`` for inverse."""
        return self.value


@dataclass(frozen=True)
class ActivityDef:
    """Static declaration of an activity inside a process template.

    Parameters
    ----------
    name:
        Identifier unique within the owning process (the ``k`` in
        ``a_{i_k}``).
    kind:
        Termination guarantee (compensatable / pivot / retriable).
    service:
        Name of the service in the global service alphabet ``Â`` that
        this activity invokes.  Conflicts (Definition 6) are declared
        between services, so two activities conflict iff their services
        do.  Defaults to ``name`` which is convenient for the paper's
        abstract examples where every activity is its own service.
    subsystem:
        Name of the transactional subsystem providing the service.  The
        offline theory ignores it; the runtime uses it for routing and
        for §3.6 weak-order delegation.
    compensation_service:
        Service invoked by the compensating activity ``a^{-1}``; only
        meaningful for compensatable activities.  Defaults to
        ``service + '~inv'``.
    effect_free:
        Whether the activity is effect-free (Definition 1): its presence
        or absence never changes the return values of other activities
        (e.g. a pure read or a notification).  Effect-free activities of
        aborted processes may be dropped by the reduction's effect-free
        rule (Definition 9, rule 3).
    params:
        Static invocation parameters forwarded to the service.
    """

    name: str
    kind: ActivityKind
    service: Optional[str] = None
    subsystem: str = "default"
    compensation_service: Optional[str] = None
    effect_free: bool = False
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidProcessError("activity name must be non-empty")
        if self.service is None:
            object.__setattr__(self, "service", self.name)
        if self.kind.is_compensatable and self.compensation_service is None:
            object.__setattr__(
                self, "compensation_service", self.service + COMPENSATION_SUFFIX
            )
        if not self.kind.is_compensatable and self.compensation_service is not None:
            raise InvalidProcessError(
                f"activity {self.name!r} is {self.kind.name.lower()} and must "
                f"not declare a compensation service (flex transaction model: "
                f"pivot and retriable activities have no inverse)"
            )

    @property
    def is_compensatable(self) -> bool:
        return self.kind.is_compensatable

    @property
    def is_retriable(self) -> bool:
        return self.kind.is_retriable

    def label(self, process_id: str) -> str:
        """The paper's label for this activity, e.g. ``a_{1_3}^c``."""
        return f"{process_id}.{self.name}^{self.kind.symbol}"


@dataclass(frozen=True, order=True)
class ActivityId:
    """Identity of one activity occurrence inside a schedule.

    ``ActivityId("P1", "a3")`` is the paper's ``a_{1_3}``;
    ``ActivityId("P1", "a3", Direction.COMPENSATION)`` is ``a_{1_3}^{-1}``.

    The identity is ordered and hashable so it can serve as a graph node
    and dictionary key throughout the library.
    """

    process_id: str
    activity_name: str
    direction: Direction = Direction.FORWARD

    @property
    def is_compensation(self) -> bool:
        return self.direction is Direction.COMPENSATION

    @property
    def forward(self) -> "ActivityId":
        """The forward occurrence this id belongs to (identity if forward)."""
        if self.direction is Direction.FORWARD:
            return self
        return ActivityId(self.process_id, self.activity_name, Direction.FORWARD)

    @property
    def inverse(self) -> "ActivityId":
        """The compensating occurrence ``a^{-1}`` for a forward id."""
        if self.direction is Direction.COMPENSATION:
            raise InvalidProcessError(
                f"{self} is already a compensation; compensating activities "
                f"are not themselves compensatable"
            )
        return ActivityId(self.process_id, self.activity_name, Direction.COMPENSATION)

    def key(self) -> Tuple[str, str, int]:
        """A plain-tuple key usable in logs and serialized state."""
        return (self.process_id, self.activity_name, self.direction.exponent)

    def __str__(self) -> str:
        if self.is_compensation:
            return f"{self.process_id}.{self.activity_name}^-1"
        return f"{self.process_id}.{self.activity_name}"
