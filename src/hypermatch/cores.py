"""Two halves of one large array pass on two cores, when a core is idle.

The tokens of one semaphore count the cores beyond the caller's that no
trial holds: ``run_experiment``'s pool of trial threads holds one for each
thread beyond the first, whose core is that of the waiting caller, so a
pool that fills the machine lends nothing. :func:`both` runs its first
half on the one helper thread when it takes a token without waiting, and
otherwise inline; numpy releases the GIL in the array work that the halves
do. The helper thread starts on the first borrow, not at import. Results
never depend on which path ran.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

# entries below which a pass runs whole on one thread: C(n, k) words for the
# sampler, kE entries for the index build. On a 2-core VM both splits first
# won at about 2^17 entries; at 2^16 the hand-off cost as much as it saved
# (sampler) or more (index build)
SPLIT = 1 << 17


def core_count() -> int:
    """CPUs this process may run on, at least 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_idle = threading.Semaphore(core_count() - 1)
_on_helper = threading.local()
_helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hypermatch-half",
                             initializer=lambda: setattr(_on_helper, "flag", True))


@contextmanager
def holding(count: int):
    """Hold count idle-core tokens, or as many as are free, for the with block."""
    taken = 0
    while taken < count and _idle.acquire(blocking=False):
        taken += 1
    try:
        yield
    finally:
        for _ in range(taken):
            _idle.release()


def both(first, second) -> tuple:
    """(first(), second()): first on the helper thread when an idle core's
    token is free, second on the caller. A call from the helper, or without
    a free token, runs both inline; so does a first half still queued behind
    another caller's when second returns. An exception in either propagates."""
    if getattr(_on_helper, "flag", False) or not _idle.acquire(blocking=False):
        return first(), second()
    try:
        pending = _helper.submit(first)
        try:
            done = second()
        except BaseException:
            if not pending.cancel():
                wait([pending])  # the helper's half writes no array after the caller leaves
            raise
        return (first() if pending.cancel() else pending.result()), done
    finally:
        _idle.release()


def halves(fn, stop: int, size: int) -> list:
    """[fn(0, stop)] for a pass of fewer than SPLIT entries, else
    [fn(0, mid), fn(mid, stop)] with mid = stop // 2, through :func:`both`."""
    if size < SPLIT:
        return [fn(0, stop)]
    mid = stop // 2
    return list(both(lambda: fn(0, mid), lambda: fn(mid, stop)))
