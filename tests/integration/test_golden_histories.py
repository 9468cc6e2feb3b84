"""Every golden scenario reproduces its pinned history and end state."""

import json
import subprocess
import sys

import pytest

from tests.golden import assert_golden, load_corpus
from tests.golden.corpus import SCENARIOS


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden_corpus(name):
    history, terminal = SCENARIOS[name]()
    assert_golden(name, history, terminal)


def test_corpus_and_catalog_name_the_same_scenarios():
    assert set(load_corpus()) == set(SCENARIOS)


def test_regeneration_must_be_requested_explicitly():
    result = subprocess.run(
        [sys.executable, "-m", "tests.golden"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 2
    assert "--regen" in result.stderr


def test_log_written_by_an_older_build_reads_the_same():
    from tests.golden.wal_fixture import EXPECTED_PATH, FIXTURE_PATH, derive

    with open(FIXTURE_PATH, "rb") as handle:
        before = handle.read()
    assert b'"rolled_back"' in before and b'"seq"' not in before
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        assert derive(FIXTURE_PATH) == json.load(handle)
    with open(FIXTURE_PATH, "rb") as handle:
        assert handle.read() == before
