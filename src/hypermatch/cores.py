"""Two halves of one large array pass on two cores, while the helper is free.

:func:`halves` lends the first half of a pass to the one helper thread when
it takes the module lock without waiting, and otherwise runs both halves on
the caller; numpy releases the GIL in their array work. The lender holds the
lock until the helper's half is done, so no half queues behind another.
Threads marked by :func:`never_lend` never lend: the helper, and those of a
``run_experiment`` pool with a thread per CPU. The helper starts on the first
lend, not at import; no result depends on the path.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

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


_lock = threading.Lock()
_local = threading.local()


def never_lend() -> None:
    """Mark the calling thread: its passes run both halves themselves."""
    _local.never_lends = True


_helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="hypermatch-half", initializer=never_lend)


def halves(fn, stop: int, size: int) -> list:
    """[fn(0, stop)] below SPLIT entries, else [fn(0, mid), fn(mid, stop)]
    with mid = stop // 2, the first on the helper thread when the caller is
    unmarked, has a second CPU and takes the lock without waiting; else both
    on the caller, since on a 2-core VM one thread built the n=240 and n=480
    indexes 8-10% faster in halves than whole. An exception in either half
    propagates once the helper's half is done."""
    if size < SPLIT:
        return [fn(0, stop)]
    mid = stop // 2
    if getattr(_local, "never_lends", False) or core_count() < 2 or not _lock.acquire(blocking=False):
        return [fn(0, mid), fn(mid, stop)]
    try:
        pending = _helper.submit(fn, 0, mid)
        try:
            second = fn(mid, stop)
        finally:
            wait([pending])  # the helper's half writes no array after the caller leaves
        return [pending.result(), second]
    finally:
        _lock.release()
