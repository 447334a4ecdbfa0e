"""Request streams: seeded request lists, how each request calls the
program, and how each answer is checked.

A request is plain data built from the seed before any timing starts.
``run`` makes the request through top-level public functions only;
``check`` judges the answer afterwards with invariants and the
independent answers in ``oracles``, never by comparing raw output text.
Sizes are fixed per stream so that every seed costs about the same;
the seed picks the random inputs and the order of the requests.

A workload runs two streams one after the other.  Each pairing puts
one Groebner mechanism (S-pairs or Frobenius normal forms) with a
stream that bypasses it, so every later optimisation has a workload
that exercises it and one that does not.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from veronese import cli, combinatorics, fields, gluing, groebner, sci, toric

import oracles


def _params(n, p, h):
    return combinatorics.VeroneseParams(n, p, h)


class QuadricGb:
    """Buchberger on the star quadrics over F_5, then membership tests.

    Nearly all the time goes to S-pair processing.  Non-members make
    ``reduce`` run to a nonzero remainder.  The (4,2,2) basis of the
    degree-2-generation check (about 11 s) is left out: one request that
    long cannot be timed steadily in a run of this length.
    """

    FULL = ((3, 2, 2), (4, 3, 1), (6, 2, 1), (3, 5, 1))
    TINY = ((3, 2, 1), (3, 3, 1))

    def __init__(self):
        self.bases = {}

    def requests(self, rng, tiny):
        params = list(self.TINY if tiny else self.FULL)
        members, others = (3, 2) if tiny else (30, 20)
        rng.shuffle(params)
        stream = []
        for npq in params:
            n, q = npq[0], npq[1] ** npq[2]
            stream += [("member", npq, oracles.type_star(rng, n, q))
                       for _ in range(members)]
            stream += [("other", npq, oracles.unequal_pair(rng, n, q))
                       for _ in range(others)]
        rng.shuffle(stream)
        return [("basis", npq, None) for npq in params] + stream

    def run(self, req):
        kind, npq, data = req
        params = _params(*npq)
        f5 = fields.PrimeField(5)
        if kind == "basis":
            gens = [g.map_field(f5) for g in toric.quadratic_generators(params)]
            self.bases[npq] = groebner.buchberger(gens)
            return gens, self.bases[npq]
        ring = combinatorics.polynomial_ring(params, f5)
        if kind == "member":
            tsb = toric.TypeStarBinomial(params, *data)
            cert = toric.rewrite(tsb)
            return tsb, cert, groebner.reduce(tsb.poly(ring), self.bases[npq])
        (t, u), (v, w) = data
        f = ring.poly({((t, 1), (u, 1)): 1, ((v, 1), (w, 1)): -1})
        return groebner.reduce(f, self.bases[npq])

    def check(self, req, out):
        kind = req[0]
        if kind == "basis":
            gens, gb = out
            missed = sum(not groebner.reduce(g, gb).is_zero() for g in gens)
            return f"{missed} generators not in their own basis" if missed else None
        if kind == "member":
            tsb, cert, rem = out
            if cert.expansion() != tsb.poly():
                return "rewrite expansion differs from the binomial"
            return None if rem.is_zero() else "ideal member has a nonzero normal form"
        return "non-member reduced to zero" if out.is_zero() else None


class FrobeniusSci:
    """Frobenius verification of the certificate up a ladder to |T| = 36.

    Uses the Groebner layer the other way round: the certificate's
    leading terms are pairwise coprime, so Buchberger is cheap and most
    time goes to normal forms of Frobenius powers.  The rungs (3,2,3)
    and (3,3,2) (4 s and 6 s each) are left out for the same reason as
    (4,2,2) in the quadric stream.
    """

    FULL = ((3, 2, 1), (3, 3, 1), (4, 2, 1), (5, 2, 1), (3, 2, 2), (4, 3, 1),
            (6, 2, 1), (3, 5, 1), (7, 2, 1), (8, 2, 1), (5, 3, 1), (3, 7, 1),
            (4, 2, 2))
    TINY = ((3, 2, 1), (3, 3, 1), (4, 2, 1))

    def requests(self, rng, tiny):
        ladder = list(self.TINY if tiny else self.FULL)
        rng.shuffle(ladder)
        return ladder

    def run(self, npq):
        return sci.verify_char_p(sci.build_certificate(_params(*npq)))

    def check(self, npq, report):
        n, p, h = npq
        if not report.success:
            return f"{len(report.failures)} generators without a Frobenius power"
        if max(report.k_values) > h + 1:
            return f"Frobenius exponent {max(report.k_values)} > h + 1"
        if len(report.entries) != oracles.star_count(n, p**h):
            return f"{len(report.entries)} generators checked"
        return None


class PointSurvey:
    """Exhaustive point surveys over F_r, where Groebner is bypassed.

    All the time is in the zero-set scan, which fibred counting and the
    thread-pool removal would change.
    """

    def requests(self, rng, tiny):
        rs = (2, 3, 5) if tiny else (2, 3, 5, 7, 11, 13)
        reqs = [("certificate", (3, 2, 1), r) for r in rs]
        reqs += [("certificate", (2, 3, 1), 7 if tiny else 31),
                 ("ideal", (2, 2, 1), 11 if tiny else 101),
                 ("image", (3, 2, 1), rng.choice((3, 5, 7)))]
        rng.shuffle(reqs)
        return reqs

    def run(self, req):
        kind, npq, r = req
        params = _params(*npq)
        if kind == "ideal":
            return sci.full_ideal_point_survey(params, r)
        mode = "image-only" if kind == "image" else "full-enumeration"
        return sci.point_survey(sci.build_certificate(params), r, mode=mode)

    def check(self, req, report):
        kind, (n, p, h), r = req
        return _check_survey(kind, n, p**h, r, report.count_image,
                             report.count_zero_set, report.witness)


def _check_survey(kind, n, q, r, count_image, count_zero, witness):
    """Survey invariants; returns an error message or None."""
    if count_image != len(oracles.image_points(n, q, r)):
        return f"image count {count_image} is wrong"
    if kind == "image":
        return None if count_zero is None and witness is None else "image-only scanned"
    if kind == "ideal":
        want, on_zero = oracles.ideal_zero_count(n, q, r), oracles.on_ideal_zero_set
    else:
        want, on_zero = oracles.certificate_zero_count(n, q, r), oracles.on_certificate_zero_set
    if count_zero != want:
        return f"zero-set count {count_zero} != {want}"
    if count_zero < count_image:
        return "zero set smaller than the image"
    if (witness is None) != (count_zero == count_image):
        return f"witness {witness} disagrees with the counts"
    if witness is not None:
        w = tuple(witness)
        if not on_zero(w, n, q, r):
            return f"witness {w} is off the zero set"
        if w in oracles.image_points(n, q, r):
            return f"witness {w} lies on the image"
    return None


class PaperMix:
    """In-process CLI requests across all ten subcommands, JSON output.

    Many short requests set the median through per-call costs; the
    gluing requests, whose JSON trees reach megabytes, set the tail.
    This is the only stream for lattice, gluing, geometry, cohomology,
    jsonio and the CLI itself.
    """

    SMALL = ((3, 2, 1), (4, 2, 1), (3, 3, 1), (5, 2, 1), (3, 2, 2))
    GLUING = ((3, 2, 2), (4, 3, 1), (6, 2, 1), (4, 2, 2), (3, 7, 1), (3, 2, 3),
              (3, 3, 2), (6, 3, 1), (4, 5, 1), (5, 2, 2))
    # (n, p, h, r) with q | r - 1, so mu_q lies in F_r
    FIBERS = ((3, 2, 1, 5), (3, 2, 1, 7), (3, 2, 1, 11), (3, 2, 1, 13),
              (3, 3, 1, 7), (3, 3, 1, 13), (3, 2, 2, 5), (3, 2, 2, 13))
    SURVEYS = (("certificate", (3, 2, 1), 2), ("certificate", (3, 2, 1), 3),
               ("certificate", (3, 2, 1), 5), ("certificate", (2, 3, 1), 5),
               ("certificate", (2, 3, 1), 7), ("ideal", (2, 2, 1), 3),
               ("ideal", (2, 2, 1), 7), ("image", (3, 2, 1), 7))
    COHOMOLOGY_Q = (2, 3, 4, 8, 9, 16)
    # Requests per pass.  Each subcommand cycles through its parameter
    # list, so every seed has the same mix of sizes; the seed draws the
    # points, permutations and multipliers, and the order.  Gluing is a
    # sixth of the requests, so the 90th percentile falls inside it.
    COUNTS = {"gluing": 2 * len(GLUING), "enumerate": 10, "generators": 10,
              "rewrite": 10, "certificate": 10, "verify-sci": 10,
              "jacobian": 10, "points": 2 * len(SURVEYS), "fibers": len(FIBERS),
              "cohomology": 2 * len(COHOMOLOGY_Q)}

    def __init__(self):
        self.verdicts = {}  # identical requests and answers share one check

    def requests(self, rng, tiny):
        reqs = [self._draw(rng, sub, i)
                for sub, count in self.COUNTS.items()
                for i in range(1 if tiny else count)]
        rng.shuffle(reqs)
        return reqs

    @staticmethod
    def _req(sub, npq, extra=(), stdin=None, data=None):
        n, p, h = npq
        argv = [sub, "--n", str(n), "--p", str(p), "--h", str(h), *extra,
                "--format", "json"]
        return {"sub": sub, "npq": npq, "argv": argv, "stdin": stdin, "data": data}

    def _draw(self, rng, sub, i):
        npq = self.SMALL[i % len(self.SMALL)]
        n, q = npq[0], npq[1] ** npq[2]
        if sub == "gluing":
            return self._req(sub, self.GLUING[i % len(self.GLUING)])
        if sub == "generators":
            full = i >= len(self.SMALL)
            return self._req(sub, npq, ["--full"] if full else [], data=full)
        if sub == "rewrite":
            blocks, sigma = oracles.type_star(rng, n, q)
            payload = json.dumps({"blocks": blocks, "sigma": sigma})
            return self._req(sub, npq, ["--input", "-"], stdin=payload,
                             data=(blocks, sigma))
        if sub == "points":
            kind, npq, r = self.SURVEYS[i % len(self.SURVEYS)]
            extra = ["--r", str(r)]
            extra += {"ideal": ["--set", "ideal"],
                      "image": ["--mode", "image-only"]}.get(kind, [])
            return self._req(sub, npq, extra, data=(kind, r))
        if sub == "jacobian":
            r = rng.choice((5, 7, 11))
            if i == len(self.SMALL):  # one request at the origin
                origin = ",".join(["0"] * len(oracles.tuples(n, q)))
                return self._req(sub, npq, ["--r", str(r), "--point", origin],
                                 data=(r, None))
            u = [rng.randrange(r) for _ in range(n)]
            if not any(u):
                u[rng.randrange(n)] = 1 + rng.randrange(r - 1)
            return self._req(sub, npq, ["--r", str(r), "--u", ",".join(map(str, u))],
                             data=(r, u))
        if sub == "fibers":
            *npq, r = self.FIBERS[i % len(self.FIBERS)]
            u = [1 + rng.randrange(r - 1) for _ in range(npq[0])]
            if rng.random() < 0.3:
                u[rng.randrange(len(u))] = 0
            return self._req(sub, tuple(npq), ["--r", str(r), "--u", ",".join(map(str, u))])
        if sub == "cohomology":
            q = self.COHOMOLOGY_Q[i % len(self.COHOMOLOGY_Q)]
            a = rng.choice(oracles.admissible_multipliers(q))
            i_max = rng.randint(2, 8)
            argv = ["cohomology", "--q", str(q), "--a", str(a), "--i-max", str(i_max),
                    "--format", "json"]
            return {"sub": sub, "npq": None, "argv": argv, "stdin": None,
                    "data": (q, a, i_max)}
        return self._req(sub, npq)

    def run(self, req):
        out, err = io.StringIO(), io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(req["stdin"] or "")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(req["argv"])
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code
        finally:
            sys.stdin = stdin
        return code, out.getvalue(), err.getvalue()

    def check(self, req, out):
        key = (tuple(req["argv"]), req["stdin"], out)
        if key not in self.verdicts:
            self.verdicts[key] = self._check(req, out)
        return self.verdicts[key]

    def _check(self, req, out):
        code, text, err = out
        sub = req["sub"]
        want_code = 0
        if sub == "points":
            kind, r = req["data"]
            n, p, h = req["npq"]
            if kind != "image":
                want_code = int(_survey_counts_differ(kind, n, p**h, r))
        if code != want_code:
            return f"exit code {code} != {want_code}: {err.strip()[:200]}"
        obj = json.loads(text)
        return getattr(self, "_check_" + sub.replace("-", "_"))(req, obj)

    def _check_enumerate(self, req, obj):
        n, p, h = req["npq"]
        ts = oracles.tuples(n, p**h)
        got = [tuple(e["tuple"]) for e in obj["elements"]]
        if obj["cardinality"] != len(ts) or got != list(ts):
            return "index set differs"
        if any(tuple(e["exponent"]) != oracles.exponent(e["tuple"], n)
               for e in obj["elements"]):
            return "exponent vector differs from its tuple"
        return None

    def _check_generators(self, req, obj):
        n, p, h = req["npq"]
        want = (oracles.full_count if req["data"] else oracles.star_count)(n, p**h)
        if obj["count"] != want or len(obj["binomials"]) != want:
            return f"{obj['count']} generators, expected {want}"
        return _equal_contents(obj["binomials"], n)

    def _check_certificate(self, req, obj):
        n, p, h = req["npq"]
        q = p**h
        nonpure = {t for t in oracles.tuples(n, q) if len(set(t)) > 1}
        got = {tuple(b["plus"][0][0][0]) for b in obj["binomials"]}
        if obj["count"] != len(nonpure) or got != nonpure:
            return "certificate does not have one binomial per non-pure coordinate"
        return _equal_contents(obj["binomials"], n)

    def _check_verify_sci(self, req, obj):
        n, p, h = req["npq"]
        ks = [w["k"] for w in obj["witnesses"]]
        if not obj["success"] or None in ks:
            return "Frobenius verification failed"
        if max(ks) > h + 1 or len(ks) != oracles.star_count(n, p**h):
            return f"k up to {max(ks)} over {len(ks)} generators"
        return None

    def _check_rewrite(self, req, obj):
        n, p, h = req["npq"]
        blocks, sigma = req["data"]
        want = oracles.block_binomial(blocks, sigma, p**h)
        if oracles.binomial_terms(obj["input"]) != want:
            return "rewrite input differs from the request"
        if oracles.rewrite_expansion(obj["steps"]) != want:
            return "rewrite expansion differs from the binomial"
        return None

    def _check_points(self, req, obj):
        kind, r = req["data"]
        n, p, h = req["npq"]
        return _check_survey(kind, n, p**h, r, obj["count_V"],
                             obj["count_zero_set"], obj["witness"])

    def _check_gluing(self, req, obj):
        n, p, h = req["npq"]
        root = obj["tree"]
        want = sorted(oracles.exponent(t, n) for t in oracles.tuples(n, p**h))
        if sorted(tuple(g) for g in root["generators"]) != want:
            return "gluing tree root is not T"
        stack = [root]
        while stack:
            node = stack.pop()
            gens = gluing.SemigroupGens.of(node["generators"])
            if node["type"] == "free":
                if not gens.is_free():
                    return "gluing leaf is not free"
                continue
            left, right = node["left"], node["right"]
            parts = sorted(map(tuple, left["generators"] + right["generators"]))
            if parts != sorted(gens.gens):
                return "gluing children do not split their parent"
            w = node["witness"]
            witness = gluing.GluingWitness(tuple(w["alpha"]), w["s"],
                                           tuple(w["rep1"]), tuple(w["rep2"]))
            if not gluing.validate_witness(gluing.SemigroupGens.of(left["generators"]),
                                           gluing.SemigroupGens.of(right["generators"]),
                                           p, witness):
                return f"gluing witness {w} fails validation"
            stack += [left, right]
        return None

    def _check_jacobian(self, req, obj):
        n, p, h = req["npq"]
        r, u = req["data"]
        if u is None:
            return None if obj["rank"] == 0 else f"rank {obj['rank']} at the origin"
        big_n = len(oracles.tuples(n, p**h)) - n
        if obj["rank"] != big_n or obj["triangular_ok"] is not True:
            return f"rank {obj['rank']} != {big_n} or triangular check failed"
        return None if obj["diagonal_value"] else "zero diagonal"

    def _check_fibers(self, req, obj):
        q = obj["params"]["q"]
        fiber = {tuple(v) for v in obj["fiber"]}
        orbit = {tuple(v) for v in obj["orbit"]}
        if len(obj["roots_of_unity"]) != q or not obj["equal"] or fiber != orbit:
            return "fiber differs from the root-of-unity orbit"
        return None

    def _check_cohomology(self, req, obj):
        q, a, i_max = req["data"]
        want = oracles.cohomology_orders(q, a, i_max)
        got = [obj["orders"][str(i)] for i in range(i_max + 1)]
        return None if got == want else f"orders {got} != {want}"


def _survey_counts_differ(kind, n, q, r) -> bool:
    image = len(oracles.image_points(n, q, r))
    if kind == "ideal":
        return oracles.ideal_zero_count(n, q, r) != image
    return oracles.certificate_zero_count(n, q, r) != image


def _equal_contents(binomials, n):
    for b in binomials:
        sides = b["plus"] + b["minus"]
        if len(sides) != 2:
            return f"{b['text']} is not a binomial"
        if len({oracles.monomial_content(m, n) for m in sides}) != 1:
            return f"{b['text']} has unequal contents"
    return None


class Workload:
    """Two streams, run one after the other; requests are (stream, request)."""

    def __init__(self, *streams):
        self.streams = [cls() for cls in streams]

    def requests(self, rng, tiny):
        return [(k, req) for k, stream in enumerate(self.streams)
                for req in stream.requests(rng, tiny)]

    def run(self, req):
        return self.streams[req[0]].run(req[1])

    def check(self, req, out):
        return self.streams[req[0]].check(req[1], out)

    def output_bytes(self, req, out) -> int:
        """Bytes the CLI printed for this request (0 outside the CLI)."""
        return len(out[1].encode()) if isinstance(self.streams[req[0]], PaperMix) else 0


WORKLOADS = {
    "quadric-survey": lambda: Workload(QuadricGb, PointSurvey),
    "frobenius-mix": lambda: Workload(FrobeniusSci, PaperMix),
}
