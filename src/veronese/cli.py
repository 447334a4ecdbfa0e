"""Command-line entry point.

Exit codes: 0 success, 1 verification-negative (a check that was asked
to certify something came back false, or a full survey found a
witness), 2 usage error, 141 when the reader of stdout closes it
early.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import checks, jsonio
from .cohomology import CyclicAction, cohomology_orders, invariant_element
from .combinatorics import VeroneseParams, exponent_vectors, index_tuples, parametrize
from .combinatorics import polynomial_ring
from .fields import ZZ, PrimeField
from .geometry import RootOfUnityError, fiber_check, jacobian_rank
from .gluing import completely_p_glued
from .polys import monomial_text
from .sci import (
    MODE_FULL,
    MODE_IMAGE,
    build_certificate,
    full_ideal_point_survey,
    point_survey,
    verify_char_p,
)
from .toric import ZeroBinomialError, quadric_pairs, rewrite

OK, NEGATIVE, USAGE = 0, 1, 2
BROKEN_PIPE = 128 + 13  # the shell's status for a SIGPIPE death


def _emit(args, doc, text_lines) -> None:
    """Print doc() by --format json, or else each line of text_lines().

    Both are callables, and only the one --format chose is called, so
    a request never builds the output it does not print: in JSON mode
    each binomial's text is rendered once, for its document entry, and
    in text mode no document is built.  A str document is encoded
    already and prints as it is."""
    if args.format == "json":
        out = doc()
        print(out if isinstance(out, str) else jsonio.encode(out))
    else:
        for line in text_lines():
            print(line)


def _binomial_lines(head: str, texts):
    """The text lines of a binomial list: its count line, then each
    binomial's text indented."""
    yield head
    for text in texts:
        yield f"  {text}"


def _params_of(args) -> VeroneseParams:
    return VeroneseParams(args.n, args.p, args.h)


def _cmd_enumerate(args) -> int:
    params = _params_of(args)

    def lines():
        yield f"|T| = {params.cardinality()} for n = {params.n}, q = {params.q}"
        for t, a in zip(index_tuples(params), exponent_vectors(params)):
            yield f"  t = {list(t)}  a = {list(a)}"

    _emit(args, lambda: jsonio.enumeration_obj(params), lines)
    return OK


def _cmd_generators(args) -> int:
    params = _params_of(args)
    # full only when asked, so the cache keys this call like every other
    gens = quadric_pairs(params, full=True) if args.full else quadric_pairs(params)
    ring = polynomial_ring(params, ZZ)
    _emit(args, lambda: jsonio.generators_obj(params, gens),
          lambda: _binomial_lines(f"{len(gens)} quadratic generators",
                                  (jsonio.quadric_text(ring, g) for g in gens)))
    return OK


def _cmd_rewrite(args) -> int:
    if args.input == "-":
        raw = sys.stdin.read()
    else:
        with open(args.input) as fh:
            raw = fh.read()
    payload = json.loads(raw)
    if isinstance(payload, dict) and "params" not in payload:
        payload = dict(payload, params={"n": args.n, "p": args.p, "h": args.h})
    tsb = jsonio.type_star_from_obj(payload)
    cert = rewrite(tsb)
    binomial = tsb.poly()

    def lines():
        yield f"input: {binomial.text()}"
        yield f"{len(cert)} steps"
        for st in cert.steps:
            sign = "+" if st.sign > 0 else "-"
            cof = monomial_text(st.quadratic.ring, st.cofactor)
            yield f"  {sign} ({st.quadratic.text()}) * {cof}"

    _emit(args, lambda: jsonio.rewrite_obj(cert, binomial), lines)
    return OK


def _cmd_certificate(args) -> int:
    params = _params_of(args)
    cert = build_certificate(params)
    _emit(args, lambda: jsonio.certificate_obj(cert),
          lambda: _binomial_lines(f"{len(cert)} binomials (N = |T| - n)",
                                  (g.text() for g in cert.binomials)))
    return OK


def _cmd_verify_sci(args) -> int:
    params = _params_of(args)
    report = verify_char_p(build_certificate(params), k_max=args.k_max)

    def lines():
        ring = polynomial_ring(params, PrimeField(params.p))
        yield f"success: {report.success} (k_max = {report.k_max})"
        for g, k in report.entries:
            mark = f"k = {k}" if k is not None else "NO k FOUND"
            yield f"  {jsonio.quadric_text(ring, g)}: {mark}"

    _emit(args, lambda: jsonio.frobenius_obj(report), lines)
    return OK if report.success else NEGATIVE


def _cmd_points(args) -> int:
    params = _params_of(args)
    mode = MODE_IMAGE if args.mode == "image-only" else MODE_FULL
    if args.set == "certificate":
        report = point_survey(build_certificate(params), args.r, mode=mode)
    else:
        report = full_ideal_point_survey(params, args.r, mode=mode)

    def lines():
        yield f"set = {report.set_label}, mode = {report.mode}, r = {report.r}"
        yield f"|image of F_{report.r}^n| = {report.count_image}"
        if report.count_zero_set is not None:
            yield f"|Zero(F_{report.r})| = {report.count_zero_set}"
        yield f"witness: {report.witness}"

    _emit(args, lambda: jsonio.points_obj(report), lines)
    negative = report.mode == MODE_FULL and report.witness is not None
    return NEGATIVE if negative else OK


def _cmd_gluing(args) -> int:
    params = _params_of(args)
    comb = completely_p_glued(params)

    def lines():
        # the comb drawn depth first: the glued spine, the axes leaf at
        # its foot, then each single-beta leaf on the way back up
        for d, (_, w) in enumerate(comb.peels):
            yield f"{'  ' * d}glued: alpha = {list(w.alpha)}, s = {w.s}"
        yield f"{'  ' * len(comb.peels)}free: {[list(g) for g in comb.free.gens]}"
        for d, (beta, _) in reversed(list(enumerate(comb.peels))):
            yield f"{'  ' * (d + 1)}free: {[list(beta)]}"

    _emit(args, lambda: jsonio.gluing_text(params, comb), lines)
    return OK


def _cmd_jacobian(args) -> int:
    params = _params_of(args)
    if (args.u is None) == (args.point is None):
        raise ValueError("give exactly one of --u or --point")
    if args.u is not None:
        u = _int_list(args.u, params.n)
        w = parametrize(params, u, PrimeField(args.r))
    else:
        w = tuple(_int_list(args.point, params.cardinality()))
    report = jacobian_rank(params, w, args.r)
    big_n = params.cardinality() - params.n
    _emit(args, lambda: jsonio.jacobian_obj(report), lambda: (
        f"rank = {report.rank} (N = {big_n}) over F_{args.r}",
        f"triangular submatrix ok: {report.triangular_ok}",
        f"diagonal value: {report.diagonal_value}",
        f"index permutation: {report.permutation}",
    ))
    return OK


def _cmd_fibers(args) -> int:
    params = _params_of(args)
    u = tuple(_int_list(args.u, params.n))
    report = fiber_check(params, args.r, u)
    _emit(args, lambda: jsonio.fiber_obj(report), lambda: (
        f"mu_{params.q} = {list(report.roots_of_unity)} in F_{args.r}",
        f"fiber over phi({list(u)}): {[list(v) for v in report.fiber]}",
        f"orbit: {[list(v) for v in report.orbit]}",
        f"equal: {report.equal}",
    ))
    return OK if report.equal else NEGATIVE


def _cmd_cohomology(args) -> int:
    action = CyclicAction(args.q, args.a)
    table = cohomology_orders(action, i_max=args.i_max)

    def lines():
        yield f"q = {args.q}, a = {args.a}, invariant p^(h-1) = {invariant_element(action)}"
        for i, o in table.as_dict().items():
            yield f"  |H^{i}| = {o}"

    _emit(args, lambda: jsonio.cohomology_obj(table), lines)
    return OK


def _cmd_reproduce(args) -> int:
    names = checks.CHECK_NAMES if not args.only else tuple(args.only)
    results = []
    for name in names:
        res = checks.run_check(name)
        results.append(res)
        print(res.verdict)
    failed = [r.name for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed"
          + (f"; failing: {', '.join(failed)}" if failed else ""))
    return NEGATIVE if failed else OK


def _int_list(text: str, want: int) -> list:
    parts = [x.strip() for x in text.split(",")]
    vals = [int(x) for x in parts if x != ""]
    if len(vals) != want:
        raise ValueError(f"expected {want} comma-separated integers, got {len(vals)}")
    return vals


def _add_params(sp, with_r: bool = False) -> None:
    sp.add_argument("--n", type=int, required=True, help="number of parameters")
    sp.add_argument("--p", type=int, required=True, help="prime")
    sp.add_argument("--h", type=int, required=True, help="exponent, q = p^h")
    if with_r:
        sp.add_argument("--r", type=int, required=True, help="field modulus")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parse_args
    keeps no state on it between calls."""
    ap = argparse.ArgumentParser(
        prog="veronese",
        description="Exact computations on degree-q Veronese cones over "
        "prime fields and the integers.",
    )
    ap.add_argument("--format", choices=("text", "json"), default="text")
    # accepted after the subcommand too; SUPPRESS keeps a pre-subcommand
    # value from being clobbered by the subparser default
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"),
                     default=argparse.SUPPRESS)
    sub = ap.add_subparsers(
        dest="command",
        required=True,
        parser_class=functools.partial(argparse.ArgumentParser, parents=[fmt]),
    )

    sp = sub.add_parser("enumerate", help="list index tuples and exponent vectors")
    _add_params(sp)
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("generators", help="quadratic binomial generators")
    _add_params(sp)
    sp.add_argument("--full", action="store_true",
                    help="all pairwise differences, not one leader per class")
    sp.set_defaults(fn=_cmd_generators)

    sp = sub.add_parser(
        "rewrite",
        help="certificate writing a block-permutation binomial over the quadrics",
    )
    _add_params(sp)
    sp.add_argument("--input", default="-",
                    help='JSON file with "blocks" and "sigma" ("-" = stdin)')
    sp.set_defaults(fn=_cmd_rewrite)

    sp = sub.add_parser("certificate", help="the N codimension binomials")
    _add_params(sp)
    sp.set_defaults(fn=_cmd_certificate)

    sp = sub.add_parser(
        "verify-sci",
        help="Frobenius radical-membership verification in characteristic p",
    )
    _add_params(sp)
    sp.add_argument("--k-max", type=int, default=None)
    sp.set_defaults(fn=_cmd_verify_sci)

    sp = sub.add_parser("points", help="finite-field point survey")
    _add_params(sp)
    sp.add_argument("--r", type=int, required=True,
                    help="field modulus: any prime below about 3.3*10^24, the "
                         "bound of the primality test; the surveys are lemmas, so "
                         "r has no other limit, and any other r exits 2")
    sp.add_argument("--set", choices=("certificate", "ideal"), default="certificate")
    sp.add_argument("--mode", choices=("full-enumeration", "image-only"),
                    default="full-enumeration")
    sp.set_defaults(fn=_cmd_points)

    sp = sub.add_parser("gluing", help="complete p-gluing tree for T")
    _add_params(sp)
    sp.set_defaults(fn=_cmd_gluing)

    sp = sub.add_parser("jacobian", help="Jacobian rank and triangular submatrix")
    _add_params(sp, with_r=True)
    sp.add_argument("--u", default=None, help="parameter point, e.g. 1,2,3")
    sp.add_argument("--point", default=None, help="ambient point, |T| coordinates")
    sp.set_defaults(fn=_cmd_jacobian)

    sp = sub.add_parser("fibers", help="covering fiber vs root-of-unity orbit")
    _add_params(sp, with_r=True)
    sp.add_argument("--u", required=True, help="parameter point, e.g. 1,2,3")
    sp.set_defaults(fn=_cmd_fibers)

    sp = sub.add_parser("cohomology", help="cyclic group cohomology orders")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--i-max", type=int, default=6)
    sp.set_defaults(fn=_cmd_cohomology)

    sp = sub.add_parser("reproduce-paper",
                        help="run the pinned acceptance matrix")
    sp.add_argument("--only", nargs="*", choices=checks.CHECK_NAMES,
                    default=None, metavar="NAME")
    sp.set_defaults(fn=_cmd_reproduce)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        raise  # the reader went away; not a usage error
    except (RootOfUnityError, ZeroBinomialError, ValueError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader closed early: exit as a SIGPIPE-killed process
        # would, with nothing left for the interpreter to flush at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.exit(BROKEN_PIPE)
    sys.exit(code)


if __name__ == "__main__":
    entry()
