"""Start the benchmark's child processes from a small process of its own, and
measure how fast the CPU they run on is while they run.

A child's ``ru_maxrss`` from ``wait4`` also counts the memory of the process
that forked it (Linux folds the forking process's peak RSS into the child's
at exec). The benchmark process holds whole workloads and networkx, so its
children are launched from here instead, where that floor is a bare
interpreter, below any wmstream CLI call.

Speed probe. On a shared host each vCPU's speed changes by up to about 2x
over seconds to minutes, as other tenants load the physical core under it;
CPU time tracks wall time, so the slowdown is not lost scheduling, and the
vCPUs change independently of each other. A probe thread pinned to each CPU
wakes every ``PROBE_PERIOD_S`` to time a fixed pure-Python chunk by its own
thread CPU time. Each child is pinned to the CPU whose probe was fastest
just before the call, and the chunk's cost on that CPU during the call says
how fast it ran; run.py scales the child's wall time by it.

Protocol: one JSON request per stdin line (argv, cwd, env, stdout, stderr,
timeout_s); one JSON reply per line on stdout (wall_s, probe_s, maxrss_kb,
code). Exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter, sleep, thread_time

PROBE_PERIOD_S = 0.02
PROBE_TRIM = 0.2  # share of probe samples dropped at each end before averaging
RECENT_S = 0.5  # probe window that picks the CPU for the next call
MAX_CPUS = 8  # probe threads started at most


def probe_chunk() -> None:
    """Fixed work: dict reads and writes on a small int-keyed dict."""
    d = {}
    for i in range(4000):
        d[i % 977] = d.get(i % 977, 0) + i


class Probe:
    """Times ``probe_chunk`` every PROBE_PERIOD_S on one CPU."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []
        threading.Thread(target=self._run, daemon=True).start()

    def _run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        while True:
            sleep(PROBE_PERIOD_S)
            start = thread_time()
            probe_chunk()
            self.samples.append((perf_counter(), thread_time() - start))

    def cost(self, start: float, end: float) -> float:
        """Trimmed mean chunk CPU time over the samples taken in [start, end]:
        the mean follows a CPU that changed speed during the call, the trim
        drops chunks hit by an interrupt or a cold cache."""
        window = sorted(dt for t, dt in self.samples if start <= t <= end)
        window = window or [self.samples[-1][1]]
        cut = int(len(window) * PROBE_TRIM)
        kept = window[cut:len(window) - cut] or window
        return sum(kept) / len(kept)

    def forget_before(self, t: float) -> None:
        keep = [i for i, (ts, _) in enumerate(self.samples) if ts >= t]
        del self.samples[:keep[0] if keep else len(self.samples) - 1]


def main() -> None:
    probes = [Probe(cpu) for cpu in sorted(os.sched_getaffinity(0))[:MAX_CPUS]]
    sleep(RECENT_S)
    while not all(p.samples for p in probes):
        sleep(PROBE_PERIOD_S)
    for line in sys.stdin:
        req = json.loads(line)
        now = perf_counter()
        probe = min(probes, key=lambda p: p.cost(now - RECENT_S, now))
        os.sched_setaffinity(0, {probe.cpu})  # this thread, and so the child
        with open(req["stdout"], "wb") as so, open(req["stderr"], "wb") as se:
            start = perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=so, stderr=se)
            timer = threading.Timer(req["timeout_s"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": end - start, "probe_s": probe.cost(start, end),
                 "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}
        for p in probes:
            p.forget_before(end - RECENT_S)
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
