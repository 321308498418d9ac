"""Fixtures every test module shares."""

import pytest

from archdim import contraction


@pytest.fixture(autouse=True)
def cleared_store():
    """No Gram program kept from an earlier test (``contraction._Store``):
    each test's consensuses bind their own programs, and a test that
    traces memory traces their buffers, whatever ran before it."""
    contraction._STORE.release()
