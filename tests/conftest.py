import os
import sys

# one BLAS thread, as the CLI sets, before anything loads numpy: the helper
# thread is the program's second busy thread, and OpenBLAS's own per-core
# threads would make three on two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
assert "numpy" not in sys.modules, "numpy was loaded before the BLAS thread count was set"

import threading  # noqa: E402
from concurrent import futures  # noqa: E402

import pytest  # noqa: E402
from hypothesis import HealthCheck, settings  # noqa: E402

from gazemoe import tensor as T  # noqa: E402

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


class HelperJobs(list):
    """The helper's jobs in submit order, with the futures it was handed.

    A ``_split_map`` job is the list of items the helper ran (empty when
    the job was cancelled unstarted); any other job is its function's
    name: ``"walker"`` for a ``backward`` pass's second walker,
    ``"next_batch"`` for ``train``'s assembly of its next training batch.
    """

    def __init__(self):
        super().__init__()
        self.futures = []

    def all_done(self) -> bool:
        """Nothing submitted is queued or running on the helper."""
        return all(f.done() for f in self.futures)


@pytest.fixture
def helper_jobs(monkeypatch):
    """Every job given to the helper thread, as a ``HelperJobs`` list.

    The process counts as having two CPUs, so work is shared on any machine.
    A split job submitted while the helper is idle waits until the helper
    has taken its first item, so the helper runs at least one item, always
    the first; one queued behind an earlier job does not wait. A submit
    from the helper thread itself fails at once instead of deadlocking.
    """
    monkeypatch.setattr(T, "usable_cpus", lambda: 2)
    pool = T._helper
    helper = pool.submit(threading.current_thread).result()
    jobs = HelperJobs()

    class Spy:
        def submit(self, fn, *args):
            assert threading.current_thread() is not helper, "the helper submitted to itself"
            if fn is not T._drain:
                jobs.append(fn.__name__)
                job = pool.submit(fn, *args)
            else:
                item_fn, todo, *rest = args
                ran = []
                jobs.append(ran)
                took = threading.Event()

                def run(item):
                    ran.append(item)
                    took.set()
                    return item_fn(item)

                idle = jobs.all_done()
                job = pool.submit(fn, run, todo, *rest)
                if idle:
                    took.wait(10)
            jobs.futures.append(job)
            return job

    monkeypatch.setattr(T, "_helper", Spy())
    return jobs


@pytest.fixture(autouse=True)
def helper_left_idle():
    """Fail a test that leaves a job queued or running on the helper thread.

    After the test, a no-op submitted to the real helper pool must finish
    within 10 s; a leaked job fails the test that leaked it, at teardown.
    """
    pool = T._helper
    yield
    noop = pool.submit(int)
    assert not futures.wait((noop,), timeout=10).not_done, \
        "the helper was still busy 10 s after the test"
