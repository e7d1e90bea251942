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
def two_cpus(monkeypatch):
    """Two CPUs and a free lock of the test's own."""
    monkeypatch.setattr(cores, "core_count", lambda: 2)
    monkeypatch.setattr(cores, "_lock", threading.Lock())


def where(lo, hi):
    return lo, hi, threading.get_ident()


def test_halves_lends_the_first_half_when_the_lock_is_free(two_cpus):
    (lo, mid, helper), second = cores.halves(where, 7, cores.SPLIT)
    assert (lo, mid) == (0, 3) and helper != threading.get_ident()
    assert second == where(3, 7)
    assert not cores._lock.locked()


def test_halves_runs_a_small_pass_whole(two_cpus, monkeypatch):
    monkeypatch.setattr(cores, "SPLIT", 10)
    assert cores.halves(lambda lo, hi: (lo, hi), 7, 9) == [(0, 7)]
    assert cores.halves(lambda lo, hi: (lo, hi), 7, 10) == [(0, 3), (3, 7)]


def test_halves_runs_inline_on_one_cpu(two_cpus, monkeypatch):
    monkeypatch.setattr(cores, "core_count", lambda: 1)
    monkeypatch.setattr(cores, "_helper", None)  # a hand-off would raise
    assert cores.halves(where, 7, cores.SPLIT) == [where(0, 3), where(3, 7)]


def test_halves_runs_inline_while_the_helper_is_busy(two_cpus):
    started, release, results = threading.Event(), threading.Event(), []

    def slow(lo, hi):
        if lo == 0:  # the lent half
            started.set()
            assert release.wait(30)
        return lo, hi

    lender = threading.Thread(target=lambda: results.append(cores.halves(slow, 7, cores.SPLIT)), daemon=True)
    lender.start()
    try:
        assert started.wait(30)
        assert cores._lock.locked()
        assert cores.halves(where, 7, cores.SPLIT) == [where(0, 3), where(3, 7)]
    finally:
        release.set()
        lender.join(timeout=30)
    assert not lender.is_alive() and results == [[(0, 3), (3, 7)]]
    assert not cores._lock.locked()


def test_halves_called_from_the_helper_runs_inline(two_cpus):
    # the lock is free, but the helper thread is marked never to lend
    nested = cores._helper.submit(lambda: (cores.halves(where, 7, cores.SPLIT), threading.get_ident()))
    runs, helper = nested.result(timeout=30)
    assert runs == [(0, 3, helper), (3, 7, helper)] and helper != threading.get_ident()
    assert not cores._lock.locked()


def test_halves_in_a_thread_marked_never_to_lend_runs_inline(two_cpus, monkeypatch):
    monkeypatch.setattr(cores, "_helper", None)  # a hand-off would raise
    results = []

    def marked():
        cores.never_lend()
        results.append((cores.halves(where, 7, cores.SPLIT), threading.get_ident()))

    thread = threading.Thread(target=marked, daemon=True)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    [(runs, ident)] = results
    assert runs == [(0, 3, ident), (3, 7, ident)]


def test_an_exception_in_the_helpers_half_propagates(two_cpus):
    def fails(lo, hi):
        if lo == 0:
            raise ValueError("first half")

    with pytest.raises(ValueError, match="first half"):
        cores.halves(fails, 7, cores.SPLIT)
    assert not cores._lock.locked()


def test_an_exception_in_the_callers_half_waits_for_the_helpers(two_cpus):
    started, finished = threading.Event(), threading.Event()

    def half(lo, hi):
        if lo == 0:  # the helper's half
            started.set()
            finished.wait(0.2)
            finished.set()
        else:
            assert started.wait(30)  # the helper has begun its half
            raise ValueError("second half")

    with pytest.raises(ValueError, match="second half"):
        cores.halves(half, 7, cores.SPLIT)
    assert finished.is_set()
    assert not cores._lock.locked()


def test_concurrent_callers_leave_the_lock_free(two_cpus):
    # more callers than cores, switching often: each call's halves fill
    # their own slots, and the lock is released after every lend
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    results, threads = {}, []
    try:
        def calls(c):
            for i in range(50):
                results[c, i] = cores.halves(lambda lo, hi: list(range(lo, hi)), c + i, cores.SPLIT)

        threads = [threading.Thread(target=calls, args=(c,), daemon=True) for c in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(sum(runs, []) == list(range(c + i)) for (c, i), runs in results.items()) and len(results) == 400
    assert not cores._lock.locked()


@pytest.mark.parametrize("split_everywhere", ["helper"], indirect=True)
@pytest.mark.parametrize("cpus,workers,lends", [(2, 1, True), (2, 2, False), (3, 2, True)])
def test_a_pool_of_trial_threads_hands_the_helper_no_half(cpus, workers, lends, split_everywhere, monkeypatch):
    # every pass splits (SPLIT is 0) and the lock is free: one worker lends
    # halves to the helper, a pool with a thread per CPU never does, and a
    # pool that leaves a CPU idle lends one half at a time, none queued
    monkeypatch.setattr(cores, "core_count", lambda: cpus)
    cfg = exp.ExperimentConfig(n=12, k=3, p=0.5, epsilon=0.2, trials=4, base_seed=1)
    outcomes = exp.run_experiment(cfg, workers=workers)
    assert (split_everywhere.handed > 0) == lends
    assert split_everywhere.queued == 0
    assert not cores._lock.locked()
    with pytest.MonkeyPatch.context() as whole:
        whole.setattr(cores, "SPLIT", 1 << 40)
        assert exp.records(outcomes) == exp.records(exp.run_experiment(cfg))
