"""One fresh-process execution of a generated config.

Usage: ``python3 perfbench/child.py REQUEST.json``.  The request names the
config, the output directory, ``run`` or ``sweep``, the worker count and,
for a traced execution, the span directory.  The process times its own set
up (importing ``wittenlab.cli``, loading the config and validating it, which
builds and certifies every weight), then the ``cli.run``/``cli.sweep`` call.
Throughout, a :class:`SpeedSampler` times a short reference loop 40 times
a second, so the CPU's speed during the set-up and during the call is
known.  The figures go to ``REQUEST.json``'s ``result`` path.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


def _scaled(a: float, b: float) -> float:
    return a * b + 1.0


def _reference_pass() -> None:
    """A fixed mix of calls, object creation, attribute and dict access.

    Its time tracks the interpreter-bound code of the program through the
    machine's phases better than a bare arithmetic loop, which slows
    less than that code does in a slow phase.
    """
    cells = {j: _Cell(0.0) for j in range(64)}
    acc = 0.0
    for i in range(250):
        cells[i & 63] = _Cell(_scaled(i, 0.5))
        acc += cells[(i * 7) & 63].value


class SpeedSampler:
    """Times one pass of a fixed pure-Python loop every ``period`` seconds
    of wall time, from a ``SIGALRM`` handler in the main thread.

    The pass takes about 0.2 ms, so sampling costs about 1% of the
    process's time.  A sample due while the main thread is inside a long C
    call is taken when the call returns.  Forked pool workers inherit
    neither the timer nor the samples.
    """

    def __init__(self, period: float = 0.025):
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (start, pass time)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _reference_pass()
        self.samples.append((start, time.perf_counter() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pass_time(self, *intervals: tuple[float, float]) -> float:
        """Harmonic mean of the pass times sampled inside ``intervals``.

        The samples are evenly spaced in time, so this is the pass time at
        the CPU's mean speed over the intervals.
        """
        picked = [
            dt for start, dt in self.samples
            if any(a <= start <= b for a, b in intervals)
        ] or [dt for _start, dt in self.samples]
        return len(picked) / sum(1.0 / dt for dt in picked)


def main() -> int:
    with open(sys.argv[1]) as fh:
        req = json.load(fh)

    sampler = SpeedSampler()
    sampler.start()
    t0 = time.perf_counter()
    from wittenlab import cli

    t1 = time.perf_counter()
    tracer = None
    if req.get("trace_dir"):
        from tracer import Tracer

        tracer = Tracer(req["trace_dir"])
        tracer.install()
    t2 = time.perf_counter()
    with open(req["config"]) as fh:
        cfg = json.load(fh)
    if req["command"] == "run":
        cli.validate_run_config(cfg)
    else:
        cli.validate_sweep_config(cfg)
    t3 = time.perf_counter()

    entry = cli.run if req["command"] == "run" else cli.sweep
    cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    sink = io.StringIO()
    t4 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = entry(req["config"], req["out"], jobs=req["jobs"])
    t5 = time.perf_counter()
    cpu = (
        _cpu(resource.RUSAGE_SELF) - cpu_self
        + _cpu(resource.RUSAGE_CHILDREN) - cpu_children
    )
    sampler.stop()
    # ru_maxrss is in KiB on Linux; for children it is the largest one
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        tracer.dump()
    result = {
        "exit_code": code,
        "import_s": t1 - t0,
        "setup_s": (t1 - t0) + (t3 - t2),
        "batch_s": t5 - t4,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kib / 1024.0,
        # the reference loop's pass time during the set-up and the batch
        "setup_loop_s": sampler.pass_time((t0, t1), (t2, t3)),
        "batch_loop_s": sampler.pass_time((t4, t5)),
    }
    with open(req["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
