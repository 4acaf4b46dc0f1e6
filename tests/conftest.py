"""Fixtures shared by the test modules."""
import sys

import pytest

from crisscross.core_array import Array2D


@pytest.fixture
def array_builds(monkeypatch):
    """Lists of the arrays the package builds while the test runs: those
    built by core_array.derived_array, through every module's binding of it,
    and those built by Array2D(...), which validates its cells."""
    derived, validated = [], []

    def recorded(real):
        return lambda cells, q: derived.append(real(cells, q)) or derived[-1]

    for module in list(sys.modules.values()):
        if module.__name__.startswith("crisscross") and "derived_array" in vars(module):
            monkeypatch.setattr(module, "derived_array", recorded(module.derived_array))
    init = Array2D.__init__
    monkeypatch.setattr(
        Array2D, "__init__", lambda self, *args: validated.append(init(self, *args) or self)
    )
    return derived, validated
