"""Host facts and memory sampling from ``/proc``."""

from __future__ import annotations

import os
import signal
import threading
import time


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # exited while listing
        # field 4 (ppid) follows the parenthesised command name
        ppid = int(stat[stat.rfind(")") + 2 :].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def process_tree(root: int) -> list[int]:
    """``root`` and all its descendants (a local Ray session's GCS, raylet
    and workers all descend from the process that started it)."""
    kids = _children_map()
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, ()))
    return out


def _running(pid: int) -> bool:
    """True unless the process is gone or a zombie (exited, not yet reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


def wait_for_exit(pids: list[int], timeout_s: float = 20.0) -> None:
    """Wait until every pid has exited; SIGKILL whatever outlives the timeout."""
    deadline = time.monotonic() + timeout_s
    alive = list(pids)
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = [p for p in alive if _running(p)]
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass  # exited between listing and reading
    return 0


class PssSampler:
    """Background thread tracking the peak summed PSS of a process tree;
    :meth:`take_peak` returns the peak since the previous call."""

    def __init__(self, interval_s: float = 0.2) -> None:
        self.root = os.getpid()
        self.interval_s = interval_s
        self._peak_kb = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        total = sum(pss_kb(p) for p in process_tree(self.root))
        with self._lock:
            self._peak_kb = max(self._peak_kb, total)

    def take_peak(self) -> int:
        self.sample()
        with self._lock:
            peak, self._peak_kb = self._peak_kb, 0
        return peak

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "PssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def host_facts() -> dict:
    return {
        "cores": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    }


def process_age_s() -> float:
    """Seconds since this process started (``/proc`` start time, clock-tick
    resolution, against the same boot-time clock)."""
    with open("/proc/self/stat") as f:
        stat = f.read()
    start_ticks = int(stat[stat.rfind(")") + 2 :].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
