"""Certificate benchmark for veronese.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every pass of a workload runs in a fresh interpreter
(``child.py``), so the package's lru caches start cold.  With
``--trace 0`` passes repeat while another one fits in ``--seconds``
and give the end-to-end metrics, scaled to reference machine speed
(``calibration.py``).  With ``--trace 1`` one untraced and one traced
pass give the per-layer metrics.  The last line of standard output is
one JSON object; the exit code is 0 only if every request was answered
correctly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import CAL_REF_S, at_reference_speed, calibrate  # noqa: E402
from spans import layer_metrics  # noqa: E402

SETUP_PROBES = 7  # set-up-only interpreters; setup_s is their median
DEADLINE_S = 170  # the whole run, including set-up probes


class BenchError(Exception):
    """A child interpreter failed or the program could not be loaded."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("VERONESE_THREADS", None)  # the survey must run single-threaded
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} pass passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.splitlines()[-1])
    if not Path(res["veronese"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"veronese was imported from {res['veronese']}, not {ROOT / 'src'}")
    res["setup_s"] = res["ready"] - t0  # CLOCK_MONOTONIC is shared across processes
    return res


def _end_to_end(passes, setups) -> dict:
    """Metrics over the passes of one run, at reference speed.

    A pass's latencies are scaled by the calibration loops timed between
    its requests (``calibration.py``).  Every pass repeats the same
    requests, so each request gets the median of its scaled latencies
    over the passes; ``wall_s`` is their sum and the two percentiles are
    taken over them.
    """
    scaled = [[at_reference_speed(lat, p["cal"]) for lat in p["latencies"]]
              for p in passes]
    med = statistics.median
    per_request = [med(lat) for lat in zip(*scaled)]
    ms = [x * 1000.0 for x in per_request]
    return {
        "wall_s": (sum(per_request), "s"),
        "setup_s": (med(setups), "s"),
        "req_p50_ms": (med(ms), "ms"),
        "req_p90_ms": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (med(p["peak_rss_kb"] / 1024.0 for p in passes), "MB"),
    }


def _setup_probe(args, deadline) -> float:
    """Set-up time of one fresh interpreter, at reference speed."""
    before = calibrate()
    raw = _spawn(args, "setup", deadline)["setup_s"]
    return at_reference_speed(raw, [before, calibrate()])


def measure(args) -> tuple:
    """(passes, metrics) for one invocation."""
    deadline = perf_counter() + DEADLINE_S
    _spawn(args, "setup", deadline)  # warm the bytecode and file caches
    setups = [_setup_probe(args, deadline) for _ in range(SETUP_PROBES)]
    if args.trace:
        plain = _spawn(args, "run", deadline)
        traced = _spawn(args, "trace", deadline)
        metrics = layer_metrics(traced["layers"], traced["wall_s"], plain["wall_s"],
                                traced["out_bytes"])
        return [plain, traced], metrics
    passes = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        passes.append(_spawn(args, "run", deadline))
        took = perf_counter() - t0
        if perf_counter() - start + took > args.seconds:
            break
    return passes, _end_to_end(passes, setups)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="checked by child.py")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the smoke test only")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "veronese" / "__init__.py").is_file():
        print(f"error: no veronese sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        passes, metrics = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    threads = max(p["threads"] for p in passes)
    for p in passes:
        for err in p["errors"]:
            print(f"FAILED {err}", file=sys.stderr)
    print(f"# env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
          f"platform={platform.platform()}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"requests={attempted} failed={failed} fail_frac={failed / attempted:.6g} "
          f"threads={threads}")
    if not args.trace:
        cal = statistics.median(c for p in passes for c in p["cal"])
        raw = statistics.median(p["wall_s"] for p in passes)
        print(f"# measured: median pass wall {raw:.4f} s, median calibration loop "
              f"{cal * 1e3:.4f} ms (reference {CAL_REF_S * 1e3:g} ms)")
    correct = failed == 0 and threads == 1
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
