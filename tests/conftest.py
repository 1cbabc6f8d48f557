import threading

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
def helper_jobs(monkeypatch):
    """The items the helper thread ran, one list per job ``_split_map`` gave it.

    The process counts as having two CPUs, so work is shared on any machine.
    Each submit waits until the helper has taken its first item, so the
    helper runs at least one item, always the first, of every job. A submit
    from the helper thread itself fails at once instead of deadlocking.
    """
    monkeypatch.setattr(T, "usable_cpus", lambda: 2)
    pool = T._helper()
    helper = pool.submit(threading.current_thread).result()
    jobs = []

    class Spy:
        def submit(self, drain, fn, todo, results):
            assert threading.current_thread() is not helper, "the helper submitted to itself"
            ran = []
            jobs.append(ran)
            took = threading.Event()

            def run(item):
                ran.append(item)
                took.set()
                return fn(item)

            job = pool.submit(drain, run, todo, results)
            took.wait(10)
            return job

    monkeypatch.setattr(T, "_helper", Spy)
    return jobs
