import os
import sys
import threading

import numpy as np
import pytest

from hypermatch import cores, pipeline, sampling

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def partition_work(monkeypatch):
    """(drawn, passes) on the packed path, which it forces at every n: the
    candidate label rows pipeline.choose_partition draws, and per call the
    passes it scores on every key, each pass a list of its label rows as
    bytes."""
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    choose, worst = pipeline.choose_partition, sampling._worst_deviations
    drawn, passes = [], []

    def counted(hypergraph, blocks, alpha):
        full = []

        def scoring(completions, offsets, labels, k):
            if completions is hypergraph._completions:
                full.append([row.tobytes() for row in labels])
            return worst(completions, offsets, labels, k)

        monkeypatch.setattr(sampling, "_worst_deviations", scoring)
        passes.append(full)
        return choose(hypergraph, (drawn.extend(block) or block for block in blocks), alpha)

    monkeypatch.setattr(pipeline, "choose_partition", counted)
    return drawn, passes


@pytest.fixture
def word_work(monkeypatch):
    """(drawn, scored) on the word path, n <= 64: the candidate label rows
    pipeline.choose_partition draws, and the label rows
    sampling._word_deviations scores, in order, as bytes."""
    if not hasattr(np, "bitwise_count"):
        pytest.skip("numpy without bitwise_count has no word path")
    choose, deviations = pipeline.choose_partition, sampling._word_deviations
    drawn, scored = [], []

    def scoring(runs, labels, k):
        scored.extend(row.tobytes() for row in labels)
        return deviations(runs, labels, k)

    def counted(hypergraph, blocks, alpha):
        return choose(hypergraph, (drawn.extend(row.tobytes() for row in block) or block for block in blocks), alpha)

    monkeypatch.setattr(sampling, "_word_deviations", scoring)
    monkeypatch.setattr(pipeline, "choose_partition", counted)
    return drawn, scored


class _Handing:
    """The helper pool with a count of the halves it was handed; with
    ``refuse``, a pool that fails any test handing it one."""

    def __init__(self, pool, refuse):
        self.pool, self.refuse, self.handed, self.queued, self.last = pool, refuse, 0, 0, None

    def submit(self, fn, *args):
        if self.refuse:
            raise AssertionError("the helper thread was handed a half")
        self.handed += 1
        self.queued += self.last is not None and not self.last.done()
        self.last = self.pool.submit(fn, *args)
        return self.last


@pytest.fixture(params=["helper", "inline"])
def split_everywhere(request, monkeypatch):
    """Every pass splits in halves (cores.SPLIT is 0), on two CPUs.
    "helper": the lock is free, so first halves go to the helper thread;
    "inline": the test holds the lock, so the caller runs both halves and
    the helper is never handed one. Returns the helper pool's stand-in,
    which counts the halves."""
    monkeypatch.setattr(cores, "SPLIT", 0)
    monkeypatch.setattr(cores, "core_count", lambda: 2)
    helper = _Handing(cores._helper, refuse=request.param == "inline")
    monkeypatch.setattr(cores, "_helper", helper)
    lock = threading.Lock()
    if request.param == "inline":
        lock.acquire()
    monkeypatch.setattr(cores, "_lock", lock)
    return helper
