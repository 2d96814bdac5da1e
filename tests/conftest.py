"""Shared fixtures."""

import pytest

from prone import baseline


@pytest.fixture
def force_workers(monkeypatch):
    """``force_workers(w)`` lets every kernel pass use up to ``w`` worker threads.

    The CPU count becomes ``w`` and the smallest worker block shrinks to
    1/w of the block budget, so a pass with at least two blocks per worker
    runs on exactly ``w`` threads, whatever the machine has.
    """

    def force(w: int) -> None:
        monkeypatch.setattr(baseline, "_cpus", lambda: w)
        monkeypatch.setattr(baseline, "_MIN_WORKER_VALUES", baseline._BLOCK_VALUES // w)

    return force
