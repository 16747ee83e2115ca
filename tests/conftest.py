import concurrent.futures
import os

import pytest

import fmzv.evaluator as ev


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of each process pool started while the test runs, in order.

    The host is taken to have 2 CPUs, so that a run under --jobs 2 starts a real pool of
    2 workers on any host, and a test that compares it with a serial run can assert it.
    A group holds at most 4 primes: a pool gets no more workers than a run has groups, so
    at the module's 32 a test's small prime window would be one group, run serially.
    """
    started = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(ev, "_GROUP", 4)
    return started
