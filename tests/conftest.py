"""Fixtures every test module shares."""

import pytest

import archdim.sweep


@pytest.fixture(autouse=True)
def cleared_store():
    """No Gram program kept from an earlier test (``sweep._Store``):
    each test's consensuses bind their own programs, and a test that
    traces memory traces their buffers, whatever ran before it."""
    archdim.sweep._STORE.release()
