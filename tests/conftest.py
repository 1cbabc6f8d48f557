import pytest
from hypothesis import HealthCheck, settings

from gazemoe import tensor as T

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def conv_helper_calls(monkeypatch):
    """The (start, stop) sample ranges conv2d hands its helper thread.

    The process counts as having two CPUs, so convs split on any machine.
    """
    monkeypatch.setattr(T, "usable_cpus", lambda: 2)
    pool = T._helper()
    calls = []

    class Spy:
        def submit(self, fn, start, stop):
            calls.append((start, stop))
            return pool.submit(fn, start, stop)

    monkeypatch.setattr(T, "_helper", Spy)
    return calls
