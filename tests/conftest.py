"""Test set-up shared by every test file."""

import pytest

from cantordyn import tables


@pytest.fixture(autouse=True, scope="module")
def _empty_tables():
    """Empty every per-process memo and table before each test file, so that
    every file starts as it would in a fresh process and no test passes only
    on a table an earlier file filled."""
    tables.reset()
