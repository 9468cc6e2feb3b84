"""One-reader audit: only ``subsystems/recovery.py`` interprets the log.

What the system certifies is whatever its log readers reconstruct, so
there is exactly one: :func:`repro.subsystems.recovery.analyze_wal`
folds the records and every other module asks the resulting state.  A
second reader is how a record-format change gets taught to one place
and forgotten in another.

This test parses every file under ``src/repro`` and fails when

* a WAL record-type literal (``"activity_commit"``, ``"2pc_begin"``, …)
  is *compared or branched on* — an operand of a comparison, directly or
  inside a tuple/list/set, or a ``match`` pattern — anywhere outside
  ``subsystems/recovery.py``.  Writers build dict literals and stay
  free; so do strings, comments and docstrings;
* a record's ``type`` is read (``record["type"]`` / ``.get("type")``)
  anywhere under ``fed/``, ``nemesis/`` or ``sim/`` — the packages that
  hold logs but must not parse them.

CI additionally runs a cruder grep gate for the second rule (see
.github/workflows/ci.yml) so it holds even if the suite is skipped.
"""

import ast
import os

SRC_ROOT = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro"
)

#: Every ``type`` a writer puts into the log.
RECORD_TYPES = frozenset(
    {
        "process_submit",
        "process_commit",
        "process_abort",
        "activity_commit",
        "activity_failed",
        "activity_rollback",
        "compensation_failed",
        "abort_requested",
        "degraded",
        "hardened",
        "2pc_begin",
        "2pc_vote",
        "2pc_commit",
        "2pc_abort",
        "2pc_end",
        "recovery_begin",
        "recovery_end",
        "checkpoint",
    }
)

THE_READER = os.path.join("subsystems", "recovery.py")
LOG_HOLDERS = ("fed", "nemesis", "sim")


def _strings(node):
    """String constants of an expression, looking into tuples etc."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        for element in node.elts:
            yield from _strings(element)


def _compared_record_types(tree):
    """Yield ``(line, literal)`` per record type compared or matched."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, getattr(ast, "MatchValue", ())):  # 3.10+
            operands = [node.value]
        else:
            continue
        for operand in operands:
            for literal in _strings(operand):
                if literal in RECORD_TYPES:
                    yield node.lineno, literal


def _type_reads(tree):
    """Yield the line of each ``x["type"]`` / ``x.get("type", …)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            key = node.slice
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
        ):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and key.value == "type":
            yield node.lineno


def _python_files():
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                yield os.path.relpath(path, SRC_ROOT), path


def _parse(path):
    with open(path, "rb") as handle:
        return ast.parse(handle.read(), filename=path)


class TestOneLogReader:
    def test_the_reader_reads(self):
        """The audit looks at the right tree (and would notice if the
        reader moved): the one exempt file does compare record types."""
        files = dict(_python_files())
        assert THE_READER in files
        assert any(_compared_record_types(_parse(files[THE_READER])))

    def test_no_record_type_compared_outside_the_reader(self):
        offenders = [
            f"{rel}:{line}: {literal!r}"
            for rel, path in _python_files()
            if rel != THE_READER
            for line, literal in _compared_record_types(_parse(path))
        ]
        assert not offenders, (
            "a log record type is interpreted outside "
            "subsystems/recovery.py; ask analyze_wal() for a view "
            "instead:\n" + "\n".join(offenders)
        )

    def test_log_holders_never_read_a_record_type(self):
        offenders = [
            f"{rel}:{line}"
            for rel, path in _python_files()
            if rel.split(os.sep)[0] in LOG_HOLDERS
            for line in _type_reads(_parse(path))
        ]
        assert not offenders, (
            'record["type"] read under fed/, nemesis/ or sim/:\n'
            + "\n".join(offenders)
        )

    def test_detector_catches_real_readers(self):
        """The audit itself must be able to fire (meta-test)."""
        tree = ast.parse(
            "# 'process_commit' in a comment is fine\n"
            'DOC = "activity_commit in a string is fine"\n'
            'wal.append({"type": "2pc_begin", "group": g})\n'
            'if record.get("type") == "2pc_begin":\n'
            "    pass\n"
            'elif kind in ("process_commit", "process_abort"):\n'
            "    pass\n"
            'kinds = [r["type"] for r in wal.records()]\n'
        )
        assert list(_compared_record_types(tree)) == [
            (4, "2pc_begin"),
            (6, "process_commit"),
            (6, "process_abort"),
        ]
        assert sorted(_type_reads(tree)) == [4, 8]
