"""Span tracer that wraps public veronese functions from outside the package.

Every wrapped function is replaced at each module attribute that refers
to it (for example both ``veronese.groebner.reduce`` and
``veronese.sci.reduce``), so calls between layers are seen too.  While
``recording`` is on, each call becomes a span (id, parent id, request
id, name, start, end) kept in memory, and its return value feeds the
derived counts.  ``fields`` and ``combinatorics`` are left unwrapped:
they are called once per coefficient or point, so a wrapper would cost
more than the work; their time shows as self time of their callers.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (module, function) pairs that get a span
SPANNED = (
    ("toric", "quadratic_generators"),
    ("toric", "rewrite"),
    ("groebner", "buchberger"),
    ("groebner", "reduce"),
    ("polys", "frobenius_power"),
    ("sci", "build_certificate"),
    ("sci", "verify_char_p"),
    ("sci", "point_survey"),
    ("sci", "full_ideal_point_survey"),
    ("gluing", "completely_p_glued"),
    ("gluing", "check_p_gluing"),
    ("gluing", "semigroup_member"),
    ("lattice", "smith_normal_form"),
    ("lattice", "lattice_intersection"),
    ("geometry", "jacobian_rank"),
    ("geometry", "fiber_check"),
    ("cohomology", "cohomology_orders"),
    ("cli", "main"),
)


def _buchberger(args, gb, c):
    c["groebner.buchberger.pairs"] += gb.pairs_processed
    c["groebner.buchberger.basis_len"] += len(gb)


def _reduce(args, rem, c):
    c["groebner.reduce.zeros"] += rem.is_zero()


def _frobenius_power(args, f, c):
    c["polys.frobenius_power.out_terms"] += len(f)


def _rewrite(args, cert, c):
    c["toric.rewrite.steps"] += len(cert)


def _verify_char_p(args, report, c):
    c["sci.verify_char_p.generators"] += len(report.entries)


def _point_survey(args, report, c):
    if report.count_zero_set is not None:  # image-only scans nothing
        c["sci.point_survey.points"] += report.r ** report.params.cardinality()
        c["sci.point_survey.hits"] += report.count_zero_set


def _check_p_gluing(args, w, c):
    c["gluing.check_p_gluing.found"] += hasattr(w, "alpha")


def _smith_normal_form(args, snf, c):
    m, n = args[0].shape
    c["lattice.smith_normal_form.entries"] += m * n


COUNTERS = {
    "groebner.buchberger": _buchberger,
    "groebner.reduce": _reduce,
    "polys.frobenius_power": _frobenius_power,
    "toric.rewrite": _rewrite,
    "sci.verify_char_p": _verify_char_p,
    "sci.point_survey": _point_survey,
    "gluing.check_p_gluing": _check_p_gluing,
    "lattice.smith_normal_form": _smith_normal_form,
}


class Tracer:
    """Nested spans with parent ids, plus per-name busy and self time.

    A name's busy time counts only its outermost spans, so a function
    that reaches itself again is not counted twice; self time is a
    span's duration minus the durations of its direct children.
    """

    def __init__(self):
        self.recording = False
        self.request = -1
        self.spans: list = []
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_time = 0.0
        self._stack: list = []  # [span id, name, child time]
        self._open: Counter = Counter()

    def install(self) -> None:
        """Wrap every SPANNED function wherever veronese refers to it."""
        import veronese.cli  # noqa: F401  (pulls in every other module)

        wrappers = {}  # id of the original function -> its wrapper
        for mod, fn in SPANNED:
            name = f"{mod}.{fn}"
            orig = getattr(sys.modules[f"veronese.{mod}"], fn)
            wrappers[id(orig)] = self._wrap(name, orig, COUNTERS.get(name))
        for modname, module in list(sys.modules.items()):
            if modname != "veronese" and not modname.startswith("veronese."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)  # reserve the id; filled on close
            frame = [sid, name, 0.0]
            self._stack.append(frame)
            self._open[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._close(frame, parent, t0, t1)
            if count is not None:
                count(args, out, self.counts)
            return out

        return wrapper

    def _close(self, frame, parent, t0, t1) -> None:
        sid, name, child = frame
        self._stack.pop()
        self._open[name] -= 1
        dur = t1 - t0
        self.spans[sid] = (sid, parent, self.request, name, t0, t1)
        self.calls[name] += 1
        self.self_time[name] += dur - child
        if not self._open[name]:
            self.busy[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_time += dur

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """Plain-data totals for the parent process."""
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "root_time": self.root_time,
            "spans": len(self.spans),
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float,
                  out_bytes: int) -> dict:
    """Every per-layer metric, name -> (value, unit)."""
    calls, busy, self_t, c = (summary[k] for k in ("calls", "busy", "self", "counts"))
    out = {}
    for mod, fn in SPANNED:
        name = f"{mod}.{fn}"
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
        out[f"{name}.self_s"] = (self_t.get(name, 0.0), "s")
    pairs = c.get("groebner.buchberger.pairs", 0)
    points = c.get("sci.point_survey.points", 0)
    out["groebner.buchberger.pairs"] = (pairs, "count")
    out["groebner.buchberger.pairs_per_s"] = (
        _ratio(pairs, busy.get("groebner.buchberger", 0.0)), "1/s")
    out["groebner.buchberger.basis_len"] = (
        c.get("groebner.buchberger.basis_len", 0), "count")
    out["groebner.reduce.zero_frac"] = (
        _ratio(c.get("groebner.reduce.zeros", 0), calls.get("groebner.reduce", 0)),
        "fraction")
    out["polys.frobenius_power.out_terms"] = (
        c.get("polys.frobenius_power.out_terms", 0), "count")
    out["toric.rewrite.steps"] = (c.get("toric.rewrite.steps", 0), "count")
    out["sci.verify_char_p.generators"] = (
        c.get("sci.verify_char_p.generators", 0), "count")
    out["sci.point_survey.points"] = (points, "count")
    out["sci.point_survey.points_per_s"] = (
        _ratio(points, busy.get("sci.point_survey", 0.0)), "1/s")
    out["sci.point_survey.hit_frac"] = (
        _ratio(c.get("sci.point_survey.hits", 0), points), "fraction")
    out["gluing.check_p_gluing.found_frac"] = (
        _ratio(c.get("gluing.check_p_gluing.found", 0),
               calls.get("gluing.check_p_gluing", 0)), "fraction")
    out["lattice.smith_normal_form.entries"] = (
        c.get("lattice.smith_normal_form.entries", 0), "count")
    out["cli.main.out_bytes"] = (out_bytes, "bytes")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_frac"] = (_ratio(traced_wall, untraced_wall) - 1.0, "fraction")
    # benchmark-side time: the traced loop minus everything inside spans
    out["bench.self_s"] = (traced_wall - summary["root_time"], "s")
    return out
