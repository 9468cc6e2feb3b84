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

The same goes for the write side of atomic commitment
(:class:`TestOneProtocolWriter`): a ``2pc_*`` record is built only by
the two role modules, each kind at its one site, and the strings the
protocol's ids are made of — the ``harden:`` prefix, the ``:`` of a
``"subsystem:txn"`` leg — are built and split in one file.
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


THE_WRITERS = {
    os.path.join("subsystems", "twophase.py"),
    os.path.join("fed", "twopc.py"),
}
THE_FORMATS = os.path.join("obs", "spans.py")
#: Splits ``family:site`` fault labels, which are not legs.
NOT_A_LEG = os.path.join("nemesis", "coverage.py")


def _protocol_records(tree):
    """Yield ``(role, type)`` per ``2pc_*`` type a dict literal can take
    (a conditional type counts once per branch)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Dict):
            continue
        keys = [key.value for key in node.keys if isinstance(key, ast.Constant)]
        if "type" not in keys:
            continue
        value = node.values[keys.index("type")]
        for constant in ast.walk(value):
            if isinstance(constant, ast.Constant) and str(
                constant.value
            ).startswith("2pc_"):
                participant = "role" in keys or constant.value == "2pc_vote"
                yield "participant" if participant else "coordinator", constant.value


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            yield node.body[0].value


def _string_literals(tree):
    """Non-docstring string constants (f-string parts included)."""
    documentation = set(map(id, _docstrings(tree)))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in documentation
        ):
            yield node.value


def _colon_splits(tree):
    """Yield the line of each ``x.partition(":")`` / ``x.split(":", …)``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("partition", "split", "rpartition", "rsplit")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == ":"
        ):
            yield node.lineno


class TestOneProtocolWriter:
    def sites(self):
        found = {}
        for rel, path in _python_files():
            for record in _protocol_records(_parse(path)):
                found.setdefault(record, []).append(rel)
        return found

    def test_only_the_role_modules_build_protocol_records(self):
        writers = {rel for rels in self.sites().values() for rel in rels}
        assert writers == THE_WRITERS

    def test_each_record_kind_is_built_at_its_one_site(self):
        sites = {record: len(rels) for record, rels in self.sites().items()}
        assert sites == {
            ("coordinator", "2pc_begin"): 1,
            ("coordinator", "2pc_commit"): 1,
            # the veto, and rebuild's presumed abort
            ("coordinator", "2pc_abort"): 2,
            ("coordinator", "2pc_end"): 1,
            ("participant", "2pc_vote"): 1,
            ("participant", "2pc_commit"): 1,
            ("participant", "2pc_abort"): 1,
            ("participant", "2pc_end"): 1,
        }

    def test_the_id_formats_have_one_home(self):
        prefix, splits = [], []
        for rel, path in _python_files():
            tree = _parse(path)
            if any("harden:" in literal for literal in _string_literals(tree)):
                prefix.append(rel)
            if rel != NOT_A_LEG and any(_colon_splits(tree)):
                splits.append(rel)
        assert prefix == [THE_FORMATS]
        assert splits == [THE_FORMATS]

    def test_detector_catches_real_writers(self):
        """The audit itself must be able to fire (meta-test)."""
        tree = ast.parse(
            '"""a docstring may say harden:<pid> and 2pc_begin"""\n'
            'log({"type": "2pc_begin", "group": g})\n'
            'log({"type": "2pc_commit" if ok else "2pc_abort", "role": r})\n'
            'log({"type": "2pc_vote", "group": g})\n'
            'group = f"harden:{pid}"\n'
            'subsystem, _, txn = leg.partition(":")\n'
            'head = label.split(":", 1)[0]\n'
            'words = text.split(",")\n'
        )
        assert sorted(_protocol_records(tree)) == [
            ("coordinator", "2pc_begin"),
            ("participant", "2pc_abort"),
            ("participant", "2pc_commit"),
            ("participant", "2pc_vote"),
        ]
        assert [s for s in _string_literals(tree) if "harden:" in s] == ["harden:"]
        assert list(_colon_splits(tree)) == [6, 7]
