"""Golden-history corpus: (scenario, seed) → history and terminal hashes.

``histories.json`` pins, for every scenario in :mod:`tests.golden.corpus`,
the sha256 of ``schedule_to_dict(history)`` and the sha256 of the terminal
process statuses and subsystem stores.  A refactor that claims "same
decisions" is accepted when the corpus is byte-unchanged; a
behaviour-changing PR regenerates it explicitly
(``python -m tests.golden --regen``) and explains each changed hash.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict

from repro.core.schedule import ProcessSchedule
from repro.core.serialize import schedule_to_dict

__all__ = ["CORPUS_PATH", "assert_golden", "digests", "load_corpus"]

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "histories.json")


def _sha256(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(history: ProcessSchedule, terminal: object) -> Dict[str, str]:
    """The two hashes the corpus stores for one finished run."""
    return {
        "history": _sha256(schedule_to_dict(history)),
        "terminal": _sha256(terminal),
    }


def load_corpus() -> Dict[str, Dict[str, str]]:
    with open(CORPUS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def assert_golden(name: str, history: ProcessSchedule, terminal: object) -> None:
    """The run named ``name`` reproduced its pinned history and end state."""
    corpus = load_corpus()
    assert name in corpus, (
        f"{name!r} is not in the golden corpus; regenerate it explicitly "
        f"with `python -m tests.golden --regen`"
    )
    found = digests(history, terminal)
    assert found == corpus[name], (
        f"golden mismatch for {name!r}: expected {corpus[name]}, got {found}"
    )
