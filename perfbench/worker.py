"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --pass K [--trace] [--smoke]
                                [--spans PATH]

Set-up (import of nicebasis, input generation, one untimed warm-up request)
is timed on its own.  Then the pass's requests run as a closed loop: each
request is sent after the previous one was answered and its answer checked.
The last line of standard output is a JSON summary for perfbench/run.py.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The speed of a shared host drifts by up to 1.8x over seconds to tens of
# seconds, and the drift slows every computation alike: a fixed computation
# timed in 2 s blocks ranged over 28-51 ms, while its ratio to a Fraction
# loop stayed within 3%.  So the reference loop below, plain stdlib code
# that no change to the package can speed up, is timed from a
# timer signal every SAMPLE_INTERVAL_S, also in the middle of requests.  Each
# request's times exclude the sampling and are divided by the loop's
# slowdown against REFERENCE_SAMPLE_S during that request: reported times
# are seconds at the reference speed, and raw times are reported alongside.
REFERENCE_SAMPLE_S = 0.0015
SAMPLE_INTERVAL_S = 0.1


def _reference_loop():
    """Rational arithmetic and a small sparse elimination, the package's mix."""
    total = Fraction(0)
    for k in range(1, 200):
        total += Fraction(k % 7 + 1, k % 11 + 1) * Fraction(3, k)
    pivots = {}
    for r in range(10):
        row = {c: Fraction((r * 3 + c * 5) % 7 - 3, (r + c) % 4 + 1) for c in range(10) if (r + c) % 3}
        row = {c: v for c, v in row.items() if v}
        for c in sorted(row):
            if c in pivots and c in row:
                f = row[c]
                for cc, vv in pivots[c].items():
                    row[cc] = row.get(cc, 0) - f * vv
                row = {k: v for k, v in row.items() if v}
        if row:
            p = min(row)
            pivots[p] = {c: v / row[p] for c, v in row.items()}
    return total, pivots


class SpeedSampler:
    """Times the reference loop on a timer; `clock` leaves that time out."""

    def __init__(self):
        self.times, self.durations = [], []
        self.busy = 0.0

    def sample(self, *_signal):
        t0 = time.perf_counter()
        _reference_loop()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.busy += t1 - t0

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def clock(self):
        return time.perf_counter() - self.busy

    def slowness(self, t0, t1):
        """Mean slowdown during [t0, t1] of real time, or around it if no sample fell inside."""
        lo, hi = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        return statistics.mean(self.durations[lo:hi]) / REFERENCE_SAMPLE_S


def _call(wl, nb, inp):
    """(answer, None) or (None, reason) for one request."""
    try:
        answer = wl.run(nb, inp)
    except Exception as err:  # a crash is a failed request, not a failed pass
        return None, f"raised {type(err).__name__}: {err}"
    return answer, None


def _check(wl, nb, inp, answer, reason):
    if reason is not None:
        return reason
    try:
        return wl.verify(nb, inp, answer)
    except Exception as err:
        return f"check raised {type(err).__name__}: {err}"


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    sampler = SpeedSampler()
    sampler.start()
    s0, t_setup = sampler.clock(), time.perf_counter()
    import nicebasis as nb
    import nicebasis.cli  # noqa: F401  (loaded so the tracer can wrap it)

    if not os.path.abspath(nb.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"nicebasis imported from {nb.__file__}, not from {ROOT}/src")
    wl = WORKLOADS[args.workload]()
    rng = random.Random(f"{args.workload}:{args.seed}:{args.pass_index}")
    warmup, requests = wl.plan(rng, args.smoke)
    warmup = wl.prepare(nb, warmup)
    requests = [wl.prepare(nb, inp) for inp in requests]
    answer, reason = _call(wl, nb, warmup)
    reason = _check(wl, nb, warmup, answer, reason)
    if reason is not None:
        raise SystemExit(f"warm-up request failed: {reason}")
    setup_s, setup_span = sampler.clock() - s0, (t_setup, time.perf_counter())

    tracer = None
    if args.trace:
        from tracing import Tracer, install
        tracer = Tracer(sampler.clock)
        install(tracer)

    timed, failures = [], []  # timed: (latency, latency + check, real start, real end)
    known = getattr(wl, "known", lambda inp: None)
    for index, inp in enumerate(requests):
        if tracer is not None:
            tracer.request = index
            tracer.enter("request")
        c0, t0 = sampler.clock(), time.perf_counter()
        answer, reason = _call(wl, nb, inp)
        c1 = sampler.clock()
        if tracer is not None:
            tracer.exit()
            tracer.enter("verify")
        reason = _check(wl, nb, inp, answer, reason)
        if tracer is not None:
            tracer.exit()
        timed.append((c1 - c0, sampler.clock() - c0, t0, time.perf_counter()))
        if reason is not None:
            failures.append({"request": wl.label(inp), "reason": reason, "known": known(inp)})
    sampler.stop()

    slowness = [sampler.slowness(t0, t1) for _, _, t0, t1 in timed]
    summary = {
        "setup_s": setup_s / sampler.slowness(*setup_span),
        "wall_s": sum(step / k for (_, step, _, _), k in zip(timed, slowness)),
        "latencies_s": [lat / k for (lat, _, _, _), k in zip(timed, slowness)],
        "raw": {"setup_s": setup_s, "wall_s": sum(step for _, step, _, _ in timed),
                "latencies_s": [lat for lat, _, _, _ in timed]},
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": platform.python_version(),
            "backend": nb.scalars.Q.__module__,
        },
    }
    if tracer is not None:
        speed = summary["raw"]["wall_s"] / summary["wall_s"]
        summary["trace"] = {
            "self_s": {layer: t / speed for layer, t in tracer.self_s.items()},
            "calls": tracer.calls,
            "extra": tracer.extra,
            "absent": tracer.absent,
            "spans": len(tracer.spans),
            "dropped": tracer.dropped,
        }
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
