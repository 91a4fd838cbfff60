"""CPU time and peak RSS of a process tree, read from /proc.

Ray starts its GCS, raylet, agents and workers as descendants of the driver,
so the driver's process tree is the whole session. The raylet does not wait
for its workers (their times never reach its ``cutime``), and an actor pool
is torn down as its dataset ends, so a thread samples every process of the
tree: CPU time (``utime + stime + cutime + cstime``) and ``VmHWM``. A process
that exits keeps its last sample, which misses at most one sampling period
of its CPU time.
"""

from __future__ import annotations

import os
import threading

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            data = f.read()
    except OSError:
        return None
    return data[data.rfind(")") + 2 :].split()


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_snapshot(root: int) -> dict[int, tuple[int, int]]:
    """{pid: (CPU ticks, peak RSS kB)} for ``root`` and its descendants."""
    stats: dict[int, list[str]] = {}
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                stats[int(name)] = fields
                children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = {}, [root]
    while todo:
        pid = todo.pop()
        todo += children.get(pid, [])
        if pid in stats:
            out[pid] = (sum(int(v) for v in stats[pid][11:15]), _hwm_kb(pid))
    return out


class SessionMeter:
    """CPU seconds and summed peak RSS of the tree rooted at this process
    between ``start()`` and ``stop()``."""

    def __init__(self, period_s: float = 0.2):
        self.root = os.getpid()
        self.period_s = period_s
        self._last: dict[int, tuple[int, int]] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample_once(self) -> None:
        for pid, (ticks, kb) in tree_snapshot(self.root).items():
            old = self._last.get(pid, (0, 0))
            self._last[pid] = (max(ticks, old[0]), max(kb, old[1]))

    def _sample(self) -> None:
        while not self._stop.wait(self.period_s):
            self._sample_once()

    def start(self) -> "SessionMeter":
        self._base = {pid: ticks for pid, (ticks, _) in tree_snapshot(self.root).items()}
        self._sample_once()
        self._thread.start()
        return self

    def stop(self) -> tuple[float, float]:
        """(CPU seconds, summed peak RSS in MB)."""
        self._stop.set()
        self._thread.join()
        self._sample_once()
        ticks = sum(t - self._base.get(pid, 0) for pid, (t, _) in self._last.items())
        return ticks / _TICK, sum(kb for _, kb in self._last.values()) / 1024.0
