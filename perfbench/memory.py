"""Peak resident memory of this process and every process it started.

``RUSAGE_CHILDREN`` only covers children that have been reaped, and a live
worker pool is not, so the sampler reads ``/proc`` instead: every few
milliseconds it sums the resident set of this process and of all its
descendants, and keeps the largest sum.
"""

from __future__ import annotations

import os
import threading

_PAGE = os.sysconf("SC_PAGE_SIZE")


def tree_rss_bytes(pid: int) -> int:
    """Resident bytes of ``pid`` plus all of its live descendants."""
    total = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/statm", encoding="ascii") as handle:
                total += int(handle.read().split()[1]) * _PAGE
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as handle:
                    pending.extend(int(child) for child in handle.read().split())
        except OSError:  # the process ended between two reads
            continue
    return total


class PeakRss:
    """``with PeakRss() as peak: ...`` then ``peak.bytes`` is the largest sum seen."""

    def __init__(self, interval: float = 0.002) -> None:
        self.interval = interval
        self.bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        pid = os.getpid()
        while True:
            self.bytes = max(self.bytes, tree_rss_bytes(pid))
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.bytes = max(self.bytes, tree_rss_bytes(os.getpid()))
