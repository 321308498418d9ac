"""Fixtures every test module shares."""

import pytest

import archdim.sweep


@pytest.fixture(autouse=True)
def cleared_store():
    """No Gram program kept from an earlier test (``sweep._Store``):
    each test's consensuses bind their own programs, and a test that
    traces memory traces their buffers, whatever ran before it.  After
    the test the store is no longer lent to a consensus: a lease that a
    consensus did not return fails the test that left it, and is ended
    so that the next test starts without it."""
    archdim.sweep._STORE.release()
    yield
    lent = archdim.sweep._STORE.lent
    archdim.sweep._STORE.__exit__()
    assert not lent, "a consensus left the thread's store lent"
