"""One pass of a workload in a fresh interpreter; prints one JSON line.

Set-up (interpreter start, ``import veronese``, seeded input
generation) ends at the ``ready`` timestamp.  The requests then run in
a closed loop: one client, no threads, each request sent when the last
one returns.  Answers are kept and checked after the loop, so checking
time is neither in ``wall_s`` nor in any request's latency.  Untraced
passes also time the calibration loop before the first request and
after each one, outside the requests' latencies.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import threading
import traceback
import warnings
from pathlib import Path
from time import perf_counter

import veronese
from workloads import WORKLOADS

import spans
from calibration import calibrate


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    warnings.simplefilter("ignore")  # n < 3 inputs warn by design

    workload = WORKLOADS[args.workload]()
    reqs = workload.requests(random.Random(args.seed), args.tiny)
    ready = perf_counter()
    result = {"ready": ready, "veronese": veronese.__file__}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    tracer = spans.Tracer()
    if args.mode == "trace":
        tracer.install()
        tracer.recording = True
    calibrated = args.mode == "run"
    answers, latencies = [], []
    cal = [calibrate()] if calibrated else []
    start = perf_counter()
    for i, req in enumerate(reqs):
        tracer.request = i
        t0 = perf_counter()
        try:
            answers.append((workload.run(req), None))
        except Exception:  # a failed request is counted, not fatal
            answers.append((None, traceback.format_exc(limit=3)))
        latencies.append(perf_counter() - t0)
        if calibrated:
            cal.append(calibrate())
    wall = sum(latencies) if calibrated else perf_counter() - start
    tracer.recording = False
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    errors = []
    out_bytes = 0
    for req, (answer, exc) in zip(reqs, answers):
        if exc is None:
            out_bytes += workload.output_bytes(req, answer)
            try:
                exc = workload.check(req, answer)
            except Exception:  # malformed answers fail their check
                exc = traceback.format_exc(limit=3)
        if exc is not None:
            errors.append(f"{req!r:.200}: {exc}")

    result.update(
        wall_s=wall,
        latencies=latencies,
        cal=cal,
        peak_rss_kb=peak_rss_kb,
        attempted=len(reqs),
        failed=len(errors),
        errors=errors[:5],
        out_bytes=out_bytes,
        threads=threading.active_count(),
    )
    if args.mode == "trace":
        result["layers"] = tracer.summary()
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
