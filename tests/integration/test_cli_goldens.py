"""Every pinned CLI invocation prints what it printed before (stdout and
exit code, byte for byte) and every subcommand keeps its flags and
defaults.  ``tests/golden/cli_stdout.json`` was captured on the commit
before the world builders were unified."""

import pytest

from tests.golden.cli import CASES, load_cli_goldens, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_invocation_matches_cli_golden(name):
    assert run_case(name) == load_cli_goldens()[name]


def test_goldens_and_catalog_name_the_same_invocations():
    assert set(load_cli_goldens()) == set(CASES)
