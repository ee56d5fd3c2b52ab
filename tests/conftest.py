"""Fixtures shared by the test modules."""

import pytest

from qhyper import scalars


@pytest.fixture
def empty_tables(monkeypatch):
    """Start from no qpoch prefix tables; the module's own are put back
    afterwards.  The fixture's value clears them again when called."""

    def clear():
        monkeypatch.setattr(scalars, "_QPOCH_TABLES", {})
        monkeypatch.setattr(scalars, "_qpoch_bits", 0)

    clear()
    return clear
