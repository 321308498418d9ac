"""Fixtures every test module shares."""

import sys

import pytest

import archdim.sweep


class _MonkeyPatch(pytest.MonkeyPatch):
    """pytest's ``MonkeyPatch``, which can also patch a name wherever
    archdim binds it."""

    def setattr_everywhere(self, home, name, value):
        """Set ``name`` to ``value`` on the archdim module ``home`` and on
        every loaded archdim module that binds the same object under that
        name, the rule ``bench/tracer.py`` applies: modules import by name,
        so a test need not know which of them read it, nor follow it when
        code moves between them."""
        original = getattr(home, name)
        for key, module in sorted(sys.modules.items()):
            if (key == "archdim" or key.startswith("archdim.")) \
                    and vars(module).get(name) is original:
                self.setattr(module, name, value)


@pytest.fixture
def monkeypatch():
    """pytest's ``monkeypatch``, with ``setattr_everywhere``; so has each
    of its ``context()`` patchers."""
    patch = _MonkeyPatch()
    yield patch
    patch.undo()


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
