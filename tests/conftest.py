"""Test set-up shared by every test file."""

import pytest

from cantordyn.cantor import separation
from cantordyn.maps import _rewritten
from cantordyn.measures import _pushed, _solved, _solved_problem


@pytest.fixture(autouse=True, scope="module")
def _empty_tables():
    """Empty the five per-process tables that ``cli._work_counts`` reads
    before each test file, so that every file starts as it would in a fresh
    process and no test passes only on a table an earlier file filled."""
    for table in (_solved, _solved_problem, _pushed, separation, _rewritten):
        table.cache_clear()
