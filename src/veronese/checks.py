"""Acceptance checks: one callable per claim, shared by the test suite
and the reproduce-paper CLI subcommand.

Seeds and budgets are pinned here so repeated runs produce identical
tables.  Each check returns (ok, detail); run_check wraps that with a
name, a wall-clock budget in seconds, and the measured elapsed time.
"""

from __future__ import annotations

import random
import time
import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb, gcd, prod

from .cohomology import CyclicAction, admissible_multipliers, cohomology_orders
from .combinatorics import (
    VeroneseParams,
    exponent_vectors,
    index_tuples,
    integer_ring,
    parametrize,
    polynomial_ring,
)
from .fields import PrimeField
from .geometry import fiber_check, jacobian_rank
from .gluing import SemigroupGens, completely_p_glued, validate_witness
from .groebner import buchberger, reduce
from .sci import build_certificate, full_ideal_point_survey, point_survey, verify_char_p
from .toric import (
    TypeStarBinomial,
    generators_over,
    normalize_sign,
    quadratic_generators,
    rewrite,
)

PRIME_POWERS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2)}

GLUING_PARAMS = ((3, 2, 1), (4, 2, 1), (3, 3, 1), (3, 2, 2))

# the field of the generator Groebner bases
F5 = PrimeField(5)


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str
    elapsed: float
    budget: float

    @property
    def within_budget(self) -> bool:
        return self.elapsed <= self.budget

    @property
    def passed(self) -> bool:
        return self.ok and self.within_budget

    @property
    def verdict(self) -> str:
        """The line reproduce-paper prints for the check."""
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: {status} ({self.elapsed:.2f} s <= {self.budget:.0f} s)  "
                f"{self.detail}")


def _params(n: int, p: int, h: int) -> VeroneseParams:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return VeroneseParams(n, p, h)


@lru_cache(maxsize=None)
def generator_groebner(params: VeroneseParams):
    """Groebner basis of the quadratic generator set over F_5, cached."""
    return buchberger(list(generators_over(params, F5)))


def _cardinality():
    bad = []
    for n in range(1, 7):
        for q, (p, h) in sorted(PRIME_POWERS.items()):
            params = _params(n, p, h)
            expect = comb(n + q - 1, q)
            got = len(index_tuples(params))
            if got != expect or params.cardinality() != expect:
                bad.append((n, q, got, expect))
    detail = f"30 (n, q) pairs, |T| up to {comb(6 + 9 - 1, 9)}"
    return not bad, detail if not bad else f"mismatches: {bad}"


_GOLDEN_PAIRS = (
    ((1, 1), (2, 2), (1, 2), (1, 2)),
    ((1, 1), (2, 3), (1, 2), (1, 3)),
    ((1, 1), (3, 3), (1, 3), (1, 3)),
    ((1, 2), (2, 3), (1, 3), (2, 2)),
    ((1, 2), (3, 3), (1, 3), (2, 3)),
    ((2, 2), (3, 3), (2, 3), (2, 3)),
)


def _golden_generators():
    params = _params(3, 2, 1)
    ring = integer_ring(params)
    computed = {normalize_sign(g) for g in quadratic_generators(params)}

    frozen = set()
    for a, b, c, d in _GOLDEN_PAIRS:
        g = ring.poly({((a, 1), (b, 1)): 1, ((c, 1), (d, 1)): -1})
        frozen.add(normalize_sign(g))

    minors = set()
    entry = lambda i, j: tuple(sorted((i, j)))
    for rows in combinations((1, 2, 3), 2):
        for cols in combinations((1, 2, 3), 2):
            i, k = rows
            j, l = cols
            m = ring.poly(
                {
                    ((entry(i, j), 1), (entry(k, l), 1)): 1,
                    ((entry(i, l), 1), (entry(k, j), 1)): -1,
                }
            )
            if not m.is_zero():
                minors.add(normalize_sign(m))

    ok = computed == frozen == minors and len(computed) == 6
    return ok, (
        "6 generators = 6 frozen binomials = 2x2 symmetric-matrix minors"
        if ok
        else f"sets differ: computed {len(computed)}, frozen {len(frozen)}, "
        f"minors {len(minors)}"
    )


def _random_type_star(rng: random.Random, params: VeroneseParams) -> TypeStarBinomial:
    q = params.q
    while True:
        s = rng.randint(1, 3)
        blocks = tuple(
            tuple(sorted(rng.choices(range(1, params.n + 1), k=q))) for _ in range(s)
        )
        sigma = tuple(rng.sample(range(1, s * q + 1), s * q))
        cand = TypeStarBinomial(params, blocks, sigma)
        if not cand.is_zero():
            return cand


def _degree_two_generation():
    rng = random.Random(0xA11CE)
    choices = [(n, pq) for n in (2, 3, 4) for pq in ((2, 1), (3, 1), (2, 2))]
    trials = 200
    max_steps = 0
    for _ in range(trials):
        n, (p, h) = rng.choice(choices)
        params = _params(n, p, h)
        tsb = _random_type_star(rng, params)
        cert = rewrite(tsb)
        max_steps = max(max_steps, len(cert))
        if cert.expansion() != tsb.poly(integer_ring(params)):
            return False, f"expansion mismatch for {tsb}"
        gb = generator_groebner(params)
        f5 = tsb.poly(polynomial_ring(params, F5))
        if not reduce(f5, gb).is_zero():
            return False, f"nonzero normal form mod GB(B) for {tsb}"
    return True, f"{trials} rewrites exact over Z, 0 mod GB(B)/F_5, <= {max_steps} steps"


def _gluing():
    details = []
    for n, p, h in GLUING_PARAMS:
        params = _params(n, p, h)
        q = params.q
        gens = exponent_vectors(params)
        comb = completely_p_glued(params)
        rest = SemigroupGens.of(gens)
        for beta, w in comb.peels:
            rest = rest.without(beta)
            if not validate_witness(rest, SemigroupGens(rest.dim, (beta,)), p, w):
                return False, f"witness failed revalidation at {(n, p, h)}: {w}"
            # alpha = d*beta was just recomputed from scratch; the
            # peel-order lemma: d = q exactly for beta = e_j + (q-1)*e_n,
            # else 1, and the exponent lemma: s is the least s with
            # p^s*d*m >= q, m = beta_j, where d*m <= q
            i = next(i for i, x in enumerate(beta) if x)
            d = w.alpha[i] // beta[i]
            least = q <= p**w.s * w.alpha[i] < p * q
            if d != (q if beta[-1] == q - 1 else 1) or not least:
                return False, f"witness outside the peel lemmas at " \
                              f"{(n, p, h)}: {w}"
        # the leaves partition T; a single beta is free, the axes must be
        if sorted(comb.free.gens + tuple(b for b, _ in comb.peels)) != sorted(gens):
            return False, f"leaves do not partition T at {(n, p, h)}"
        if not comb.free.is_free():
            return False, f"non-free leaf at {(n, p, h)}"
        details.append(f"{(n, p, h)}: {len(comb.peels)} gluings, s <= "
                       f"{max(w.s for _, w in comb.peels)}")
    return True, "; ".join(details)


def _lemma_frobenius_exponent(params: VeroneseParams, pair) -> int:
    """The least k with g^(p^k) in the ideal of build_certificate(params)
    for a quadric g = m1 - m2 of equal contents, at positions pair: h,
    except h - 1 when p = 2 and g is x_(i^q)*x_(j^q) - x_c^2, c = (q/2)(e_i + e_j)."""
    # Proof.  The rows are x_t^q - prod_j x_(j^q)^(a_j(t)) for non-pure t,
    # a(t) t's exponent vector, with pairwise coprime heads, so a monomial
    # no x_t^q divides is its own normal form.  m^(p^k) has exponents
    # x*p^k, x in {1, 2}, which reach q below k = h only when x = 2 and
    # p^k = q/2, that is p = 2 and k = h - 1.  Otherwise both powers are
    # distinct normal forms.  At k = h - 1 with p = 2 a square x_t^2 goes
    # to prod_j x_(j^q)^(a_j(t)) (x_t^q itself when t is pure) and a
    # product of distinct variables stays: the forms agree only for the
    # square of c against x_(i^q)*x_(j^q), as two squares of one content
    # are one square.  At k = h every x_t^q goes to prod_j x_(j^q)^(a_j(t)),
    # pure t included, so both sides go to prod_j x_(j^q)^(c_j), c the
    # content, and agree.
    q, h = params.q, params.h
    if params.p == 2:
        var = index_tuples(params)
        for (a, b), (c, d) in (pair, pair[::-1]):
            i, j = var[a][0], var[b][0]
            half = (i,) * (q // 2) + (j,) * (q // 2)
            if i != j and (var[a], var[b]) == ((i,) * q, (j,) * q) and var[c] == var[d] == half:
                return h - 1
    return h


def _char_p_certificate():
    details = []
    for n, p, h in GLUING_PARAMS:
        params = _params(n, p, h)
        report = verify_char_p(build_certificate(params))
        if not report.success:
            return False, f"radical membership failed at {(n, p, h)}: " \
                          f"{len(report.failures)} generators"
        # quadric by quadric, the least k is the lemma's, so k <= h
        for g, k in report.entries:
            if k != _lemma_frobenius_exponent(params, g):
                return False, f"Frobenius exponent {k} of the quadric at positions {g} " \
                              f"at {(n, p, h)} is not the lemma's"
        details.append(f"{(n, p, h)}: k <= {max(report.k_values)}")
    return True, "; ".join(details)


def _on_certificate(cert, pt, r: int) -> bool:
    """Whether each row x_t^e - prod x_i^a of cert vanishes at pt mod r."""
    return all(pow(pt[t], e, r) == prod(pow(pt[i], a, r) for i, a in tail) % r
               for t, e, tail in cert.rows)


def _certificate_zeros(cert, r: int) -> set:
    """Zero(cert)(F_r), enumerated over F_r^|T| by _on_certificate, where
    the survey counts it by a lemma."""
    return {
        pt for pt in product(range(r), repeat=cert.params.cardinality())
        if _on_certificate(cert, pt, r)
    }


def _char_p_point_equality():
    params = _params(3, 2, 1)
    cert = build_certificate(params)
    report = point_survey(cert, 2)
    zeros = _certificate_zeros(cert, 2)
    ok = (
        report.count_image == 8
        and report.count_zero_set == 8 == len(zeros)
        and zeros == _image(params, PrimeField(2))
        and report.witness is None
    )
    return ok, (
        f"|image of F_2^n| = {report.count_image}, |Zero(cert)(F_2)| = "
        f"{report.count_zero_set}, witness {report.witness}"
    )


def _image(params: VeroneseParams, field: PrimeField) -> set:
    """The parametrized image {nu_q(v) : v in F_r^n}."""
    return {
        parametrize(params, v, field)
        for v in product(range(field.r), repeat=params.n)
    }


def _char_neq_p_refutation():
    params = _params(3, 2, 1)
    cert = build_certificate(params)
    details = []
    for r in (3, 5, 7):
        report = point_survey(cert, r)
        w = report.witness
        if w is None:
            return False, f"no witness over F_{r}"
        zeros = _certificate_zeros(cert, r)
        zero_cert = report.count_zero_set
        if zero_cert != len(zeros):
            return False, f"|Zero(cert)(F_{r})| = {zero_cert}, enumerated {len(zeros)}"
        least = min(zeros - _image(params, PrimeField(r)))
        if w != least:
            return False, f"witness {w} is not the least point of Zero(cert)(F_{r}) " \
                          f"off the image, {least}"
        # Zero(B)(F_r) = V(F_r), so a larger certificate zero set is the
        # point where the certificate fails to cut out V
        zero_b = full_ideal_point_survey(params, r).count_zero_set
        if not zero_cert > zero_b:
            return False, (
                f"|Zero(cert)(F_{r})| = {zero_cert} <= |Zero(B)(F_{r})| = {zero_b}"
            )
        details.append(f"F_{r}: witness {w}, |Zero(cert)| = {zero_cert} > "
                       f"|Zero(B)| = {zero_b}")
    return True, "; ".join(details)


def _scaled_cone(params: VeroneseParams, field: PrimeField) -> set:
    """V(F_r) = {c * nu_q(v) : c in F_r, v in F_r^n}."""
    r = field.r
    cone = set()
    for v in product(range(r), repeat=params.n):
        nu = parametrize(params, v, field)
        for c in range(r):
            cone.add(tuple(c * x % r for x in nu))
    return cone


def _zero_set(gens, r: int, m: int) -> set:
    """The points of F_r^m where every polynomial of gens vanishes."""
    return {
        pt for pt in product(range(r), repeat=m)
        if all(g.evaluate(pt) == 0 for g in gens)
    }


def _full_ideal_point_counts():
    """Zero(B)(F_r) is the scaled cone V(F_r), with r^n points; the
    image of F_r^n has 1 + (r^n - 1)/gcd(q, r - 1) and fills V(F_r)
    exactly when gcd(q, r - 1) = 1.  The zero set is enumerated over
    F_r^|T| here, as the survey counts it by that lemma."""
    params = _params(3, 2, 1)
    n, q = params.n, params.q
    details = []
    for r in (2, 3, 5):
        report = full_ideal_point_survey(params, r)
        count, zero_b = report.count_image, report.count_zero_set
        field = PrimeField(r)
        cone = _scaled_cone(params, field)
        image = _image(params, field)
        zeros = _zero_set(generators_over(params, field), r, params.cardinality())
        where = f"F_{r}: image = {count}, V(F_{r}) = {len(cone)}, Zero(B) = {zero_b}"
        if zeros != cone:
            return False, f"{where}; the enumerated Zero(B) is not V(F_{r})"
        if zero_b != len(zeros):
            return False, f"{where}; the enumerated Zero(B) has {len(zeros)} points"
        if zero_b != r**n:
            return False, f"{where}; |Zero(B)| != r^n = {r**n}"
        g = gcd(q, r - 1)
        if count != 1 + (r**n - 1) // g:
            return False, f"{where}; |image| != 1 + (r^n - 1)/{g}"
        # the survey counts by the fibre lemma: the enumeration checks it
        if count != len(image):
            return False, f"{where}; the enumerated image has {len(image)} points"
        if report.counts_equal != (g == 1):
            return False, f"{where}; image = V(F_{r}) is {report.counts_equal}, " \
                          f"gcd(q, r - 1) = {g}"
        least = min(zeros - image, default=None)
        if report.witness != least:
            return False, f"{where}; witness {report.witness} is not the least " \
                          f"point of Zero(B) off the image, {least}"
        details.append(where)
    return True, "; ".join(details) + "; image = V iff gcd(q, r - 1) = 1"


def _jacobian():
    rng = random.Random(0xBEEF)
    details = []
    for n, p, h, r in ((3, 2, 1, 5), (3, 3, 1, 7)):
        params = _params(n, p, h)
        m = params.cardinality()
        big_n = m - n

        origin = jacobian_rank(params, (0,) * m, r)
        if origin.rank != 0:
            return False, f"origin rank {origin.rank} != 0 at {(n, p, h)}"

        for _ in range(50):
            u = [rng.randrange(r) for _ in range(n)]
            if not any(u):
                u[rng.randrange(n)] = 1 + rng.randrange(r - 1)
            w = parametrize(params, u, PrimeField(r))
            rep = jacobian_rank(params, w, r)
            if rep.rank != big_n:
                return False, f"rank {rep.rank} != N = {big_n} at u = {u}, r = {r}"
            if rep.triangular_ok is not True:
                return False, f"triangular submatrix check failed at u = {u}, r = {r}"
            if not rep.diagonal_value:
                return False, f"zero diagonal at u = {u}, r = {r}"
        details.append(f"{(n, p, h)}/F_{r}: rank N = {big_n} at 50 points")
    return True, "; ".join(details) + "; rank 0 at origin"


def _galois_fibers():
    rng = random.Random(0xFEED)
    details = []
    for n, p, h, r in ((3, 2, 1, 5), (3, 3, 1, 7), (3, 2, 2, 5)):
        params = _params(n, p, h)
        q = params.q
        zero_coord_seen = 0
        for trial in range(20):
            u = [1 + rng.randrange(r - 1) for _ in range(n)]
            if trial % 3 == 0:
                u[rng.randrange(n)] = 0
            rep = fiber_check(params, r, tuple(u))
            if len(rep.roots_of_unity) != q:
                return False, f"mu_{q} has {len(rep.roots_of_unity)} elements mod {r}"
            if not set(rep.orbit) <= set(rep.fiber):
                return False, f"orbit escapes fiber at u = {u}, q = {q}, r = {r}"
            if not rep.equal:
                return False, f"fiber != orbit at u = {u}, q = {q}, r = {r}"
            if 0 in u:
                zero_coord_seen += 1
        details.append(f"q={q}, r={r}: 20 fibers ({zero_coord_seen} with a zero coord)")
    return True, "; ".join(details)


def _brute_cohomology(q: int, d: int, nm: int) -> tuple:
    ker_d = sum(1 for x in range(q) if d * x % q == 0)
    im_d = len({d * x % q for x in range(q)})
    ker_nm = sum(1 for x in range(q) if nm * x % q == 0)
    im_nm = len({nm * x % q for x in range(q)})
    return ker_d, ker_nm // im_d, ker_d // im_nm


def _cohomology():
    tables = 0
    for q in (2, 4, 8, 3, 9):
        for a in admissible_multipliers(q):
            action = CyclicAction(q, a)
            if a % action.p != 1:
                return False, f"a = {a} not 1 mod p for q = {q}"
            table = cohomology_orders(action, i_max=6)
            orders = table.as_dict()
            vals = set(orders.values())
            if len(vals) != 1 or vals == {1}:
                return False, f"orders not equal and > 1 for q = {q}, a = {a}: {orders}"
            h0, hodd, heven = _brute_cohomology(q, table.difference, table.norm)
            for i, o in orders.items():
                want = h0 if i == 0 else (hodd if i % 2 else heven)
                if o != want:
                    return False, f"H^{i} order {o} != brute force {want} " \
                                  f"for q = {q}, a = {a}"
            tables += 1
    return True, f"{tables} (q, a) tables, orders match kernel/image enumeration"


CHECKS = (
    ("cardinality", 1.0, _cardinality),
    ("golden-generators", 1.0, _golden_generators),
    ("degree-2-generation", 30.0, _degree_two_generation),
    ("gluing", 30.0, _gluing),
    ("char-p-certificate", 60.0, _char_p_certificate),
    ("char-p-point-equality", 1.0, _char_p_point_equality),
    ("char-neq-p-refutation", 60.0, _char_neq_p_refutation),
    ("full-ideal-point-counts", 30.0, _full_ideal_point_counts),
    ("jacobian", 10.0, _jacobian),
    ("galois-fibers", 10.0, _galois_fibers),
    ("cohomology", 5.0, _cohomology),
)

CHECK_NAMES = tuple(name for name, _, _ in CHECKS)


def run_check(name: str) -> CheckResult:
    for check_name, budget, fn in CHECKS:
        if check_name == name:
            t0 = time.perf_counter()
            ok, detail = fn()
            return CheckResult(name, ok, detail, time.perf_counter() - t0, budget)
    raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
