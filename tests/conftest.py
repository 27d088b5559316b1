"""Fixtures shared by the test modules."""

import pytest

from legnu import core


@pytest.fixture
def rules(monkeypatch):
    """The arguments of every quadrature rule application, appended as they
    are made."""
    applied = []
    gk21 = core._gk21
    monkeypatch.setattr(core, "_gk21", lambda *args: applied.append(args) or gk21(*args))
    return applied
