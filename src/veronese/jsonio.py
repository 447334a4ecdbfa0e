"""JSON encodings for the report and certificate types.

Every document carries schema_version; variables and index tuples are
encoded as arrays of ints, monomials as [variable, exponent] pair
arrays, binomials as {plus, minus, text}.
"""

from __future__ import annotations

import json
from itertools import accumulate, compress

from .cohomology import CohomologyTable
from .combinatorics import (
    VeroneseParams,
    exponent_vectors,
    index_tuples,
    integer_ring,
    polynomial_ring,
)
from .fields import PrimeField
from .geometry import FiberReport, JacobianReport
from .gluing import GluingComb
from .polys import Exponents, Poly, PolyRing
from .sci import FrobeniusReport, PointSetReport, SciCertificate
from .toric import RewriteCertificate, TypeStarBinomial

SCHEMA_VERSION = 1

# every document is a tree built fresh for one encoding, so the
# encoder skips the cycle check
encode = json.JSONEncoder(check_circular=False).encode


def params_obj(params: VeroneseParams) -> dict:
    return {"n": params.n, "p": params.p, "h": params.h, "q": params.q}


def _field(obj, key: str, where: str):
    """obj[key], or ValueError naming what is missing or malformed."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise ValueError(f"{where} has no field {key!r}")
    return obj[key]


def _int(value, what: str) -> int:
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _list(values, what: str) -> list:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list, got {type(values).__name__}")
    return values


def _ints(values, what: str) -> tuple:
    return tuple(_int(x, f"{what}[{i}]") for i, x in enumerate(_list(values, what)))


def params_from_obj(obj: dict) -> VeroneseParams:
    return VeroneseParams(*(_int(_field(obj, k, "params"), k) for k in ("n", "p", "h")))


def monomial_obj(ring: PolyRing, exps: Exponents) -> list:
    """[variable, exponent] pairs, zero exponents omitted."""
    return [[list(v), e] for v, e in compress(zip(ring.variables, exps), exps)]


def binomial_obj(g: Poly) -> dict:
    # coefficient 1 is a plus term; any other unit (-1 over the integers,
    # r-1 over a prime field) counts as minus.  Over F_2 both terms land
    # in plus, which is the honest reading there.
    plus, minus = [], []
    for e, c in g.raw_terms().items():
        (plus if c == 1 else minus).append(monomial_obj(g.ring, e))
    return {"plus": plus, "minus": minus, "text": g.text()}


def quadric_text(ring: PolyRing, pair) -> str:
    """Poly.text over ring of the quadric_pairs entry ((i, j), (k, l)):
    the degrevlex lead has the smaller (j, i), and the minus term is
    signed over the integers and (r - 1)*m over F_r."""
    names, c = ring.names, ring.field.normalize(-1)
    plus, minus = (names[a] + "^2" if a == b else f"{names[a]}*{names[b]}" for a, b in pair)
    head = f"-{minus}" if c < 0 else minus if c == 1 else f"{c}*{minus}"
    tail = f"- {minus}" if c < 0 else f"+ {head}"
    (i, j), (k, l) = pair
    return f"{plus} {tail}" if (j, i) < (l, k) else f"{head} + {plus}"


def quadric_obj(ring: PolyRing, pair) -> dict:
    """binomial_obj of the quadric of quadric_text."""
    var = ring.variables
    sides = [[[list(var[a]), 2]] if a == b else [[list(var[a]), 1], [list(var[b]), 1]]
             for a, b in pair]
    minus = [] if ring.field.normalize(-1) == 1 else [sides.pop()]
    return {"plus": sides, "minus": minus, "text": quadric_text(ring, pair)}


def enumeration_obj(params: VeroneseParams) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_obj(params),
        "cardinality": params.cardinality(),
        "elements": [
            {"tuple": list(t), "exponent": list(a)}
            for t, a in zip(index_tuples(params), exponent_vectors(params))
        ],
    }


def generators_obj(params: VeroneseParams, pairs) -> dict:
    ring = integer_ring(params)
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_obj(params),
        "count": len(pairs),
        "binomials": [quadric_obj(ring, g) for g in pairs],
    }


def certificate_obj(cert: SciCertificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_obj(cert.params),
        "count": len(cert),
        "binomials": [binomial_obj(g) for g in cert.binomials],
    }


def type_star_from_obj(obj: dict) -> TypeStarBinomial:
    """Read {"blocks", "sigma", "params"} (or n, p, h at the top level);
    a malformed payload raises ValueError naming the field."""
    blocks = _field(obj, "blocks", "binomial payload")
    sigma = _field(obj, "sigma", "binomial payload")
    params = params_from_obj(obj.get("params", obj))
    blocks = tuple(_ints(b, f"blocks[{i}]") for i, b in enumerate(_list(blocks, "blocks")))
    return TypeStarBinomial(params, blocks, _ints(sigma, "sigma"))


def support_obj(ring: PolyRing, support) -> list:
    """monomial_obj of the monomial with (position, exponent) pairs support."""
    return [[list(ring.variables[i]), e] for i, e in support]


def support_text(ring: PolyRing, support) -> str:
    """monomial_text of the monomial with (position, exponent) pairs support."""
    names = ring.names
    return "*".join(names[i] if e == 1 else f"{names[i]}^{e}" for i, e in support) or "1"


def rewrite_obj(cert: RewriteCertificate, binomial: Poly) -> dict:
    ring = integer_ring(cert.params)
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_obj(cert.params),
        "input": binomial_obj(binomial),
        "steps": [{"quadratic": quadric_obj(ring, st.quadratic),
                   "cofactor": support_obj(ring, st.cofactor), "sign": st.sign}
                  for st in cert.steps],
    }


def frobenius_obj(report: FrobeniusReport) -> dict:
    ring = polynomial_ring(report.params, PrimeField(report.params.p))
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_obj(report.params),
        "k_max": report.k_max,
        "success": report.success,
        "witnesses": [
            {"generator": quadric_obj(ring, g), "k": k} for g, k in report.entries
        ],
    }


def points_obj(report: PointSetReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_obj(report.params),
        "r": report.r,
        "set": report.set_label,
        "mode": report.mode,
        "count_V": report.count_image,
        "count_zero_set": report.count_zero_set,
        "witness": list(report.witness) if report.witness is not None else None,
    }


def gluing_text(params: VeroneseParams, comb: GluingComb) -> str:
    """The comb as the nested tree document, encoded as ``json.dumps``
    would encode it, but from rows encoded once and without recursion.

    Each glued node holds the generators left before its peel, its left
    child the next node and its right child the leaf {beta}; the axes
    are the free leaf at the foot.  The betas are peeled in generator
    order, so the node of the peel at position i holds the axes before
    i and then every generator from i on: a prefix of the axis rows and
    a suffix of the rows joined once.  The left children nest, so the
    text is the glued heads in peel order, the axes leaf, then the
    right leaves in reverse.  Every entry is an int, whose str is its
    JSON.  Suffixes are copied from a memoryview straight into one
    bytearray, so no slice of the joined rows is ever made.
    """
    gens = comb.gens.gens
    rows = [str(list(g)) for g in gens]
    body = memoryview(", ".join(rows).encode())
    starts = list(accumulate((len(r) + 2 for r in rows), initial=0))
    at = {g: i for i, g in enumerate(gens)}
    free = set(comb.free.gens)
    axis = [g in free for g in gens]
    doc = bytearray(f'{{"schema_version": {SCHEMA_VERSION}, '
                    f'"params": {encode(params_obj(params))}, "tree": '.encode())
    feet = ["}"]
    lead, nxt = "", 0  # the axis rows before position nxt, each with ", "
    for beta, w in comb.peels:
        i = at[beta]
        if i < nxt:
            raise ValueError(f"peel of {beta} is out of generator order")
        lead += "".join(r + ", " for r in compress(rows[nxt:i], axis[nxt:i]))
        nxt = i + 1
        doc += f'{{"type": "glued", "generators": [{lead}'.encode()
        doc += body[starts[i]:]
        doc += (f'], "witness": {{"alpha": {list(w.alpha)}, "s": {w.s}, '
                f'"rep1": {list(w.rep1)}, "rep2": {list(w.rep2)}}}, "left": ').encode()
        feet.append(f', "right": {{"type": "free", "generators": [{rows[i]}]}}}}')
    doc += (f'{{"type": "free", "generators": [{", ".join(compress(rows, axis))}]}}'
            + "".join(reversed(feet))).encode()
    return doc.decode()


def jacobian_obj(report: JacobianReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_obj(report.params),
        "r": report.r,
        "point": list(report.point),
        "rank": report.rank,
        "triangular_ok": report.triangular_ok,
        "diagonal_value": report.diagonal_value,
        "permutation": list(report.permutation),
    }


def fiber_obj(report: FiberReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params_obj(report.params),
        "r": report.r,
        "u": list(report.u),
        "fiber": [list(v) for v in report.fiber],
        "orbit": [list(v) for v in report.orbit],
        "roots_of_unity": list(report.roots_of_unity),
        "equal": report.equal,
    }


def cohomology_obj(table: CohomologyTable) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "q": table.action.q,
        "a": table.action.a,
        "orders": {str(i): o for i, o in table.as_dict().items()},
        "difference_element": table.difference,
        "norm_element": table.norm,
    }
