"""Durable process repository.

Restart recovery needs the template of every process the write-ahead
log references (:func:`repro.subsystems.recovery.recover` takes a
``processes`` mapping).  A real workflow system persists that mapping;
this module provides the file-backed implementation: one JSON file per
template under a directory, written atomically, discovered on open.

Usage::

    repository = ProcessRepository("/var/lib/repro/processes")
    repository.save(construction)
    …crash…
    report = recover(wal, registry, repository.load_all(), conflicts)

Instance ids of the form ``Template#N`` (the scheduler's disambiguated
ids) resolve to their template automatically.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Iterator, List, Optional

from repro.core.process import Process
from repro.core.serialize import process_from_dict, process_to_dict
from repro.errors import UnknownProcessError

__all__ = ["ProcessRepository"]


class ProcessRepository:
    """A directory of serialized process templates."""

    SUFFIX = ".process.json"

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, process_id: str) -> str:
        safe = process_id.replace(os.sep, "_")
        return os.path.join(self.directory, safe + self.SUFFIX)

    # -- writing -----------------------------------------------------------

    def save(self, process: Process) -> str:
        """Persist a template atomically; returns the file path."""
        payload = json.dumps(
            process_to_dict(process), sort_keys=True, indent=2
        )
        path = self._path(process.process_id)
        handle, temporary = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(payload)
            os.replace(temporary, path)
        except BaseException:
            if os.path.exists(temporary):
                os.unlink(temporary)
            raise
        return path

    def delete(self, process_id: str) -> bool:
        """Remove a template; returns whether it existed."""
        path = self._path(process_id)
        if os.path.exists(path):
            os.unlink(path)
            return True
        return False

    # -- reading ------------------------------------------------------------

    def process_ids(self) -> List[str]:
        """Template ids present in the repository, sorted."""
        ids = []
        for name in os.listdir(self.directory):
            if name.endswith(self.SUFFIX):
                ids.append(name[: -len(self.SUFFIX)])
        return sorted(ids)

    def __contains__(self, process_id: str) -> bool:
        return os.path.exists(self._path(self._template_id(process_id)))

    @staticmethod
    def _template_id(instance_id: str) -> str:
        """Strip the scheduler's ``#N`` instance disambiguator."""
        return instance_id.split("#", 1)[0]

    def load(self, process_id: str) -> Process:
        """Load a template; instance ids resolve to their template and
        the returned process is renamed to the requested id."""
        template_id = self._template_id(process_id)
        path = self._path(template_id)
        if not os.path.exists(path):
            raise UnknownProcessError(
                f"repository {self.directory!r} has no template "
                f"{template_id!r}"
            )
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        process = process_from_dict(payload)
        return process.renamed(process_id)

    def load_all(self) -> "RepositoryView":
        """A mapping view suitable for :func:`repro.subsystems.recovery.recover`."""
        return RepositoryView(self)


class RepositoryView:
    """Lazy ``Mapping[str, Process]`` facade over a repository.

    Recovery looks processes up by the instance ids found in the WAL;
    the view resolves each against the repository on demand (so the
    repository can hold many templates without loading them all).
    """

    def __init__(self, repository: ProcessRepository) -> None:
        self._repository = repository
        self._cache: Dict[str, Process] = {}

    def __getitem__(self, instance_id: str) -> Process:
        if instance_id not in self._cache:
            self._cache[instance_id] = self._repository.load(instance_id)
        return self._cache[instance_id]

    def __contains__(self, instance_id: str) -> bool:
        return instance_id in self._repository

    def __iter__(self) -> Iterator[str]:
        return iter(self._repository.process_ids())

    def __len__(self) -> int:
        return len(self._repository.process_ids())
