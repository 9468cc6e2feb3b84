"""Well-formed flex structures and guaranteed termination (paper §3.1).

A single transactional process is *well defined* if it has **well-formed
flex structure** (ZNBB94): a sequence of compensatable activities,
followed by at most one pivot activity, followed by a sequence of
retriable activities; recursively, a pivot may instead be succeeded by
alternative well-formed flex structures provided the lowest-preference
alternative consists only of retriable activities.  Processes with
well-formed flex structure are *processes with guaranteed termination*:
at least one execution path can always be completed while all other
paths leave no effects (the generalisation of all-or-nothing atomicity).

This module provides three things:

* a **grammar parser** :func:`parse_flex` that checks a
  :class:`~repro.core.process.Process` graph against the well-formed
  grammar and returns its structure tree (:class:`FlexSeq`);
* a **DSL** (:func:`comp`, :func:`pivot`, :func:`retr`, :func:`seq`,
  :func:`choice`) for building well-formed processes structurally, with
  :func:`build_process` compiling a tree into a process graph;
* a **reference interpreter** (:func:`simulate`,
  :func:`enumerate_executions`) that executes a flex tree under a
  failure scenario and enumerates the distinct *valid executions* of a
  process (Figure 3).  The interpreter is deliberately independent of
  the runtime :class:`~repro.core.instance.ProcessInstance` so the two
  implementations can cross-check each other in tests.

Counting convention for "valid executions" (Example 1 / Figure 3): the
distinct committing effect traces are counted individually, and all
backward-recovery aborts count as one distinguished execution, since
abort in ``B-REC`` is the single lowest-preference behaviour.  Under
this convention the paper's process ``P_1`` has exactly four valid
executions.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.activity import ActivityDef, ActivityKind
from repro.core.process import Process, ProcessBuilder
from repro.errors import NotWellFormedError

__all__ = [
    "FlexActivity",
    "FlexChoice",
    "FlexSeq",
    "comp",
    "pivot",
    "retr",
    "seq",
    "choice",
    "build_process",
    "parse_flex",
    "is_well_formed",
    "state_determining_activity",
    "Outcome",
    "Step",
    "StepKind",
    "ExecutionPath",
    "simulate",
    "enumerate_executions",
    "count_valid_executions",
]


# ---------------------------------------------------------------------------
# Structure tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlexActivity:
    """Leaf of the flex structure tree: one activity declaration."""

    definition: ActivityDef

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def kind(self) -> ActivityKind:
        return self.definition.kind


@dataclass(frozen=True)
class FlexChoice:
    """Alternative execution paths, highest preference first.

    By well-formedness the last branch consists only of retriable
    activities, guaranteeing forward recovery once the preceding pivot
    committed.
    """

    branches: Tuple["FlexSeq", ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise NotWellFormedError(
                "a choice needs at least two alternative branches"
            )


@dataclass(frozen=True)
class FlexSeq:
    """Sequence of activities, possibly ending in a choice."""

    items: Tuple[Union[FlexActivity, FlexChoice], ...]

    def activities(self) -> Iterable[ActivityDef]:
        """All activity declarations in the subtree, depth first."""
        for item in self.items:
            if isinstance(item, FlexActivity):
                yield item.definition
            else:
                for branch in item.branches:
                    yield from branch.activities()

    def first_activity(self) -> Optional[FlexActivity]:
        for item in self.items:
            if isinstance(item, FlexActivity):
                return item
            for branch in item.branches:
                head = branch.first_activity()
                if head is not None:
                    return head
        return None


# ---------------------------------------------------------------------------
# Construction DSL
# ---------------------------------------------------------------------------


def comp(name: str, **kwargs) -> FlexActivity:
    """A compensatable activity leaf (``a^c``)."""
    return FlexActivity(ActivityDef(name=name, kind=ActivityKind.COMPENSATABLE, **kwargs))


def pivot(name: str, **kwargs) -> FlexActivity:
    """A pivot activity leaf (``a^p``)."""
    return FlexActivity(ActivityDef(name=name, kind=ActivityKind.PIVOT, **kwargs))


def retr(name: str, **kwargs) -> FlexActivity:
    """A retriable activity leaf (``a^r``)."""
    return FlexActivity(ActivityDef(name=name, kind=ActivityKind.RETRIABLE, **kwargs))


def seq(*items: Union[FlexActivity, FlexChoice, FlexSeq]) -> FlexSeq:
    """Sequential composition; nested sequences are flattened."""
    flat: List[Union[FlexActivity, FlexChoice]] = []
    for item in items:
        if isinstance(item, FlexSeq):
            flat.extend(item.items)
        else:
            flat.append(item)
    return FlexSeq(tuple(flat))


def choice(*branches: Union[FlexSeq, FlexActivity]) -> FlexChoice:
    """Alternative branches, highest preference first."""
    normalised = tuple(
        branch if isinstance(branch, FlexSeq) else seq(branch)
        for branch in branches
    )
    return FlexChoice(normalised)


def _validate_tree(tree: FlexSeq, *, top_level: bool) -> None:
    """Check a structure tree against the well-formed flex grammar.

    Grammar (ZNBB94, as stated in paper §3.1)::

        WF    ::= comp* Tail
        Tail  ::= ε | retr* | pivot Rest
        Rest  ::= ε | retr* | Choice
        Choice::= (WF, ..., WF, retr+)   # ordered; last branch all-retriable

    A choice may only appear as the final item of a sequence, directly
    after a pivot.
    """
    items = tree.items
    position = 0
    # compensatable prefix
    while position < len(items):
        item = items[position]
        if isinstance(item, FlexActivity) and item.kind.is_compensatable:
            position += 1
        else:
            break
    if position == len(items):
        return  # all-compensatable (or empty): trivially well formed
    item = items[position]
    if isinstance(item, FlexChoice):
        raise NotWellFormedError(
            "a choice may only follow a pivot activity (alternative "
            "execution paths hang off the activity whose failure they handle)"
        )
    if item.kind.is_retriable:
        _validate_retriable_suffix(items[position:])
        return
    # item is the pivot
    position += 1
    if position == len(items):
        return  # comp* pivot: well formed with empty retriable suffix
    rest = items[position]
    if isinstance(rest, FlexChoice):
        if position != len(items) - 1:
            raise NotWellFormedError(
                "a choice must be the final item of its sequence"
            )
        for branch in rest.branches[:-1]:
            _validate_tree(branch, top_level=False)
        _validate_retriable_suffix(rest.branches[-1].items)
        last = rest.branches[-1]
        if not last.items:
            raise NotWellFormedError(
                "the lowest-preference alternative must contain at least one "
                "retriable activity"
            )
        return
    _validate_retriable_suffix(items[position:])


def _validate_retriable_suffix(
    items: Sequence[Union[FlexActivity, FlexChoice]],
) -> None:
    for item in items:
        if isinstance(item, FlexChoice):
            raise NotWellFormedError(
                "alternative execution paths are unnecessary among retriable "
                "activities (they cannot fail) and are not well formed"
            )
        if not item.kind.is_retriable:
            raise NotWellFormedError(
                f"activity {item.name!r} of kind {item.kind.name.lower()} "
                f"appears where only retriable activities are allowed"
            )


def build_process(
    process_id: str,
    tree: FlexSeq,
    validate: bool = True,
) -> Process:
    """Compile a flex structure tree into a :class:`Process` graph.

    The compilation lays down chain connectors within sequences, hangs
    choice branches off the preceding pivot with the branch heads as
    alternative successors (the representation of ``◁``), and validates
    well-formedness unless ``validate=False``.
    """
    if validate:
        _validate_tree(tree, top_level=True)
    builder = ProcessBuilder(process_id)
    _compile_seq(tree, builder, predecessor=None)
    return builder.build(validate=validate)


def _compile_seq(
    tree: FlexSeq,
    builder: ProcessBuilder,
    predecessor: Optional[str],
) -> Optional[str]:
    """Emit activities/edges for a sequence; returns its last activity."""
    current = predecessor
    for item in tree.items:
        if isinstance(item, FlexActivity):
            builder.add(item.definition)
            if current is not None:
                builder.precede(current, item.name)
            current = item.name
        else:  # FlexChoice — grammar guarantees it is last, after a pivot
            if current is None:
                raise NotWellFormedError(
                    "a choice cannot open a process: it needs a preceding "
                    "activity whose failure selects among the branches"
                )
            heads: List[str] = []
            for branch in item.branches:
                head = branch.first_activity()
                if head is None:
                    raise NotWellFormedError("alternative branches must be non-empty")
                _compile_seq(branch, builder, predecessor=current)
                heads.append(head.name)
            builder.prefer(current, heads)
            return None  # choice terminates the sequence
    return current


# ---------------------------------------------------------------------------
# Parsing a process graph back into a structure tree
# ---------------------------------------------------------------------------


def parse_flex(process: Process) -> FlexSeq:
    """Parse a process graph into its well-formed flex structure tree.

    Raises :class:`NotWellFormedError` if the graph does not have
    well-formed flex structure (non-linear precedence outside choice
    points, choices not anchored at a pivot, missing all-retriable
    lowest-preference alternative, rejoining branches, …).
    """
    roots = process.roots()
    if len(process) == 0:
        return FlexSeq(())
    if len(roots) != 1:
        raise NotWellFormedError(
            f"process {process.process_id!r} has {len(roots)} entry "
            f"activities; well-formed flex structures are rooted chains"
        )
    tree, consumed = _parse_from(process, roots[0])
    if consumed != set(process.activity_names):
        leftover = sorted(set(process.activity_names) - consumed)
        raise NotWellFormedError(
            f"activities {leftover} of process {process.process_id!r} are "
            f"unreachable from the entry activity"
        )
    _validate_tree(tree, top_level=True)
    return tree


def _parse_from(process: Process, start: str) -> Tuple[FlexSeq, Set[str]]:
    items: List[Union[FlexActivity, FlexChoice]] = []
    consumed: Set[str] = set()
    current: Optional[str] = start
    while current is not None:
        items.append(FlexActivity(process.activity(current)))
        consumed.add(current)
        successors = process.direct_successors(current)
        alternatives = process.alternatives(current)
        if alternatives:
            if set(successors) != set(alternatives):
                raise NotWellFormedError(
                    f"activity {current!r} mixes alternative and "
                    f"unconditional successors, which is not well formed"
                )
            branches: List[FlexSeq] = []
            branch_sets: List[Set[str]] = []
            for head in alternatives:
                branch, branch_consumed = _parse_from(process, head)
                for earlier in branch_sets:
                    overlap = earlier & branch_consumed
                    if overlap:
                        raise NotWellFormedError(
                            f"alternative branches of {current!r} share "
                            f"activities {sorted(overlap)}; branches must be "
                            f"disjoint"
                        )
                branches.append(branch)
                branch_sets.append(branch_consumed)
                consumed |= branch_consumed
            items.append(FlexChoice(tuple(branches)))
            current = None
        elif len(successors) > 1:
            raise NotWellFormedError(
                f"activity {current!r} has parallel unconditional successors "
                f"{list(successors)}; well-formed flex structures are chains "
                f"with alternatives (flatten AND-parallelism first)"
            )
        elif successors:
            current = successors[0]
        else:
            current = None
    return FlexSeq(tuple(items)), consumed


def is_well_formed(process: Process) -> bool:
    """``True`` iff the process has well-formed flex structure."""
    try:
        parse_flex(process)
    except NotWellFormedError:
        return False
    return True


def state_determining_activity(process: Process) -> Optional[str]:
    """The state-determining activity ``s_{i_0}`` (paper §3.1).

    The first non-compensatable activity of the process: every activity
    preceding it is compensatable, so the process is backward-recoverable
    until ``s_{i_0}`` commits and forward-recoverable afterwards.
    Returns ``None`` for all-compensatable processes, which remain
    backward-recoverable throughout.
    """
    tree = parse_flex(process)
    for item in tree.items:
        if isinstance(item, FlexActivity):
            if not item.kind.is_compensatable:
                return item.name
        else:  # pragma: no cover - grammar places choices after pivots only
            break
    return None


# ---------------------------------------------------------------------------
# Reference interpreter: valid executions
# ---------------------------------------------------------------------------


class Outcome(enum.Enum):
    """Terminal outcome of a single process execution."""

    COMMIT = "commit"
    ABORT = "abort"


class StepKind(enum.Enum):
    """What happened at one step of an execution trace."""

    COMMITTED = "committed"
    FAILED = "failed"
    COMPENSATED = "compensated"


@dataclass(frozen=True)
class Step:
    """One step of an execution trace."""

    activity: str
    kind: StepKind
    attempts: int = 1

    def __str__(self) -> str:
        if self.kind is StepKind.COMPENSATED:
            return f"{self.activity}^-1"
        if self.kind is StepKind.FAILED:
            return f"{self.activity}(failed)"
        return self.activity


@dataclass(frozen=True)
class ExecutionPath:
    """A complete execution of a single process.

    ``steps`` records everything that happened, including failed
    attempts; ``effects`` is the subsequence of effectful occurrences
    (committed activities and compensations), which identifies the
    execution for Figure-3-style counting.
    """

    steps: Tuple[Step, ...]
    outcome: Outcome

    @property
    def effects(self) -> Tuple[str, ...]:
        committed = []
        for step in self.steps:
            if step.kind is StepKind.COMMITTED:
                committed.append(step.activity)
            elif step.kind is StepKind.COMPENSATED:
                committed.append(step.activity + "^-1")
        return tuple(committed)

    @property
    def committed_activities(self) -> Tuple[str, ...]:
        return tuple(
            step.activity
            for step in self.steps
            if step.kind is StepKind.COMMITTED
        )

    def is_effect_free(self) -> bool:
        """``True`` iff every committed activity was compensated again."""
        pending: List[str] = []
        for entry in self.effects:
            if entry.endswith("^-1"):
                original = entry[:-3]
                if pending and pending[-1] == original:
                    pending.pop()
                else:  # pragma: no cover - compensation always LIFO here
                    return False
            else:
                pending.append(entry)
        return not pending

    def __str__(self) -> str:
        inner = " ".join(str(step) for step in self.steps)
        return f"<{inner}> [{self.outcome.value}]"


class _Failure(Exception):
    """Internal unwinding signal: a non-retriable activity failed."""


#: A failure scenario maps ``(activity_name, attempt_number)`` to whether
#: that invocation aborts.  Attempt numbers start at 1.
FailureScenario = Callable[[str, int], bool]


def scenario_from_set(failing: Iterable[str]) -> FailureScenario:
    """Scenario where each listed activity fails on its first attempt.

    Retriable activities in the set fail once and then succeed on retry;
    other activities in the set fail terminally (Definition 4).
    """
    failing_set = frozenset(failing)

    def fails(name: str, attempt: int) -> bool:
        return name in failing_set and attempt == 1

    return fails


def simulate(
    process_or_tree: Union[Process, FlexSeq],
    failing: Union[FailureScenario, Iterable[str], None] = None,
) -> ExecutionPath:
    """Execute a well-formed process under a failure scenario.

    This is the reference semantics of §3.1: activities execute in
    precedence order; when a non-retriable activity fails, executed
    compensatable activities are compensated back (in reverse order) to
    the innermost choice point that still has a lower-preference
    alternative, which is then taken; if no alternative exists the
    process aborts by full backward recovery (only possible while it is
    in ``B-REC`` — guaranteed termination ensures this).
    """
    if isinstance(process_or_tree, Process):
        tree = parse_flex(process_or_tree)
    else:
        tree = process_or_tree
        _validate_tree(tree, top_level=True)
    if failing is None:
        scenario: FailureScenario = lambda name, attempt: False
    elif callable(failing):
        scenario = failing
    else:
        scenario = scenario_from_set(failing)

    steps: List[Step] = []
    committed: List[FlexActivity] = []

    def run_activity(item: FlexActivity) -> None:
        attempt = 1
        while scenario(item.name, attempt):
            steps.append(Step(item.name, StepKind.FAILED, attempts=attempt))
            if not item.kind.is_retriable:
                raise _Failure(item.name)
            attempt += 1
        steps.append(Step(item.name, StepKind.COMMITTED, attempts=attempt))
        committed.append(item)

    def compensate_back_to(mark: int) -> None:
        while len(committed) > mark:
            item = committed.pop()
            if not item.kind.is_compensatable:  # pragma: no cover - WF invariant
                raise NotWellFormedError(
                    f"backward recovery reached non-compensatable activity "
                    f"{item.name!r}; the process is not well formed"
                )
            steps.append(Step(item.name, StepKind.COMPENSATED))

    def run_seq(node: FlexSeq) -> None:
        for item in node.items:
            if isinstance(item, FlexActivity):
                run_activity(item)
            else:
                run_choice(item)

    def run_choice(node: FlexChoice) -> None:
        last_index = len(node.branches) - 1
        for index, branch in enumerate(node.branches):
            mark = len(committed)
            try:
                run_seq(branch)
                return
            except _Failure:
                compensate_back_to(mark)
                if index == last_index:  # pragma: no cover - WF invariant
                    raise

    try:
        run_seq(tree)
    except _Failure:
        compensate_back_to(0)
        return ExecutionPath(tuple(steps), Outcome.ABORT)
    return ExecutionPath(tuple(steps), Outcome.COMMIT)


def enumerate_executions(
    process_or_tree: Union[Process, FlexSeq],
    max_failures: Optional[int] = None,
) -> List[ExecutionPath]:
    """Enumerate the distinct executions of a well-formed process.

    Considers every failure scenario over the fallible (non-retriable)
    activities with at most ``max_failures`` failing activities
    (``None`` means all subsets) and returns the distinct executions by
    effect trace — committing executions individually, plus at most one
    distinguished backward-recovery abort execution (see module
    docstring for the counting convention).
    """
    if isinstance(process_or_tree, Process):
        tree = parse_flex(process_or_tree)
    else:
        tree = process_or_tree
    fallible = [
        definition.name
        for definition in tree.activities()
        if not definition.kind.is_retriable
    ]
    limit = len(fallible) if max_failures is None else min(max_failures, len(fallible))

    committing: Dict[Tuple[str, ...], ExecutionPath] = {}
    abort_path: Optional[ExecutionPath] = None
    for size in range(limit + 1):
        for failing in itertools.combinations(fallible, size):
            path = simulate(tree, scenario_from_set(failing))
            if path.outcome is Outcome.COMMIT:
                committing.setdefault(path.effects, path)
            elif abort_path is None or len(path.effects) > len(abort_path.effects):
                # keep the longest abort as the representative: it shows
                # the deepest backward recovery the process can perform
                abort_path = path
    ordered = [committing[key] for key in sorted(committing)]
    if abort_path is not None:
        ordered.append(abort_path)
    return ordered


def count_valid_executions(
    process_or_tree: Union[Process, FlexSeq],
    max_failures: Optional[int] = None,
) -> int:
    """Number of distinct valid executions (Example 1: four for ``P_1``)."""
    return len(enumerate_executions(process_or_tree, max_failures=max_failures))
