import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def forbid(monkeypatch):
    """forbid(*functions) makes every package-level binding of the given
    functions raise, and returns the raising stand-in."""

    def refuse(*args, **kwargs):
        raise AssertionError("this route must not be used")

    def forbid_(*originals):
        for name, module in list(sys.modules.items()):
            if name == "groupoid_card" or name.startswith("groupoid_card."):
                for attr, value in list(vars(module).items()):
                    if any(value is original for original in originals):
                        monkeypatch.setattr(module, attr, refuse)
        return refuse

    return forbid_


@pytest.fixture
def walks(monkeypatch):
    """Count the walks of S_n the decorated-permutation builder asks for,
    kept or new: the returned list gets the degree of each request."""
    from groupoid_card import categorified

    walk = categorified._cycle_minima_walk
    degrees = []

    def counting(group):
        degrees.append(group.n)
        return walk(group)

    monkeypatch.setattr(categorified, "_cycle_minima_walk", counting)
    return degrees
