import sys
import threading

import pytest

import hypermatch.experiment as exp
from hypermatch import cores


def test_core_count_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(cores.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(cores.os, "cpu_count", lambda: 64)
    assert cores.core_count() == 3


@pytest.mark.parametrize("cpus,count", [(6, 6), (None, 1)])
def test_core_count_falls_back_to_cpu_count(cpus, count, monkeypatch):
    monkeypatch.delattr(cores.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cores.os, "cpu_count", lambda: cpus)
    assert cores.core_count() == count


@pytest.fixture
def tokens(monkeypatch):
    """Sets the number of free idle-core tokens."""
    return lambda free: monkeypatch.setattr(cores, "_idle", threading.Semaphore(free))


def where():
    return threading.get_ident()


def started_first(first):
    """(first, second) halves: the second returns where it ran once the
    first has begun, so that the first cannot be taken back inline."""
    started = threading.Event()

    def begin():
        started.set()
        return first()

    def after():
        assert started.wait(30)
        return where()

    return begin, after


def test_both_lends_the_first_half_when_a_token_is_free(tokens):
    tokens(1)
    first, second = cores.both(*started_first(where))
    assert first != where() == second
    assert cores._idle.acquire(blocking=False)  # the token is back


def test_both_runs_inline_when_every_token_is_held(monkeypatch):
    monkeypatch.setattr(cores, "_helper", None)  # a hand-off would raise
    held = 0
    while cores._idle.acquire(blocking=False):
        held += 1
    try:
        assert cores.both(where, where) == (where(), where())
    finally:
        for _ in range(held):
            cores._idle.release()


def test_halves_runs_a_small_pass_whole(monkeypatch):
    monkeypatch.setattr(cores, "SPLIT", 10)
    assert cores.halves(lambda lo, hi: (lo, hi), 7, 9) == [(0, 7)]
    assert cores.halves(lambda lo, hi: (lo, hi), 7, 10) == [(0, 3), (3, 7)]


def test_both_called_from_the_helper_runs_inline(tokens):
    tokens(2)  # a token stays free for the nested call
    results = []

    def nested():
        return cores.both(where, where), where()

    caller = threading.Thread(target=lambda: results.append(cores.both(*started_first(nested))), daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "a call from the helper waited on the helper"
    [((inner, helper), outer)] = results
    assert inner == (helper, helper) and helper != outer


def test_a_first_half_queued_behind_another_callers_runs_inline(tokens):
    tokens(1)
    release = threading.Event()
    busy = cores._helper.submit(release.wait)  # holds the helper until the halves are done
    try:
        assert cores.both(where, where) == (where(), where())
    finally:
        release.set()
    busy.result(timeout=30)


def test_an_exception_in_the_helpers_half_propagates(tokens):
    tokens(1)

    def fails():
        raise ValueError("first half")

    with pytest.raises(ValueError, match="first half"):
        cores.both(fails, lambda: None)
    assert cores._idle.acquire(blocking=False)


def test_an_exception_in_the_callers_half_waits_for_the_helpers(tokens):
    tokens(1)
    started, finished = threading.Event(), threading.Event()

    def slow():
        started.set()
        finished.wait(0.2)
        finished.set()

    def fails():
        started.wait(30)  # the helper has begun its half, so it cannot be cancelled
        raise ValueError("second half")

    with pytest.raises(ValueError, match="second half"):
        cores.both(slow, fails)
    assert finished.is_set()


def test_concurrent_callers_give_back_every_token(tokens):
    # more callers than cores, switching often: each call's halves fill
    # their own slots, and every token taken is returned
    tokens(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    results, threads = {}, []
    try:
        def caller(c):
            for i in range(50):
                results[c, i] = cores.halves(lambda lo, hi: list(range(lo, hi)), c + i, cores.SPLIT)

        threads = [threading.Thread(target=caller, args=(c,), daemon=True) for c in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(lo + hi == list(range(c + i)) for (c, i), (lo, hi) in results.items()) and len(results) == 400
    assert cores._idle.acquire(blocking=False) and not cores._idle.acquire(blocking=False)


def test_holding_takes_the_free_tokens_and_gives_them_back(tokens):
    tokens(2)
    with cores.holding(3):
        assert not cores._idle.acquire(blocking=False)
    with cores.holding(1):
        assert cores._idle.acquire(blocking=False)
        assert not cores._idle.acquire(blocking=False)
        cores._idle.release()
    assert cores._idle.acquire(blocking=False) and cores._idle.acquire(blocking=False)


@pytest.mark.parametrize("workers,free", [(1, True), (2, False)])
def test_a_pool_that_fills_the_cores_leaves_no_token_free(workers, free, tokens, monkeypatch):
    # two cores: one worker may lend to the other core, a pool of two holds it
    tokens(1)
    monkeypatch.setattr(cores, "core_count", lambda: 2)
    seen = []

    def trial(cfg, t):
        taken = cores._idle.acquire(blocking=False)
        if taken:
            cores._idle.release()
        seen.append(taken)

    monkeypatch.setattr(exp, "run_trial", trial)
    exp.run_experiment(exp.ExperimentConfig(n=6, k=3, p=1.0, epsilon=0.1, trials=4, base_seed=1), workers=workers)
    assert seen == [free] * 4
    assert cores._idle.acquire(blocking=False)
