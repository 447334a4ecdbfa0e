"""Certificate binomials cutting the variety set-theoretically in
characteristic p, with Frobenius verification and finite-field surveys.

One binomial per non-pure coordinate: x_t^q minus the matching product
of pure-power coordinates.  In characteristic p every quadratic
generator has a p-power landing in the certificate ideal; over other
prime fields point surveys hunt for zero-set points outside the
parametrized image.  The certificate's zero set is counted fibre by
fibre over the pure coordinates.  The quadratic ideal's zero set is the
cone V(F_r), so its r^n points and its lex-first witness are a lemma
and nothing is searched.  The image itself is never listed: its size is
1 + (r^n - 1)/gcd(q, r - 1) by its mu_q fibres, and a point is tested
by solving for its preimage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, prod
from typing import Optional

from .combinatorics import (
    VeroneseParams,
    exponent_vectors,
    integer_ring,
    pure_tuple,
)
from .fields import PrimeField
from .polys import Poly, mono_support
from .toric import generators_over

DEFAULT_ENUM_BUDGET = 10**7
MODE_FULL = "full-enumeration"
MODE_IMAGE = "image-only"


class BudgetExceededError(Exception):
    """The requested enumeration is larger than the configured budget."""


@dataclass(frozen=True)
class SciCertificate:
    """|T| - n binomials x_t^q - prod_j x_{j..j}^{a_j(t)}, t non-pure,
    held as triangular rows ``(t, e, tail)``: the binomial x_t^e minus
    the monomial whose ``(position, exponent)`` pairs are ``tail``.

    The rows solve for increasing positions t, and no tail touches a
    solved position; the fibred scan and the Frobenius normal form rely
    on both, so any other rows raise ValueError.
    """

    params: VeroneseParams
    rows: tuple

    def __post_init__(self):
        solved = [t for t, _, _ in self.rows]
        if any(a >= b for a, b in zip(solved, solved[1:])):
            raise ValueError("rows must solve for distinct positions in increasing order")
        solved = set(solved)
        for t, _, tail in self.rows:
            if any(i in solved for i, _ in tail):
                raise ValueError(f"the tail solving for x_{t} is not in the free variables")

    def __len__(self) -> int:
        return len(self.rows)

    def free(self) -> list:
        """The positions no row solves for, ascending."""
        solved = {t for t, _, _ in self.rows}
        return [i for i in range(self.params.cardinality()) if i not in solved]

    @property
    def binomials(self) -> tuple:
        """The rows rendered as integer binomials, for output."""
        ring = integer_ring(self.params)
        out = []
        for t, e, tail in self.rows:
            head, mono = [0] * ring.nvars, [0] * ring.nvars
            head[t] = e
            for i, a in tail:
                mono[i] = a
            out.append(Poly(ring, {tuple(head): 1, tuple(mono): -1}))
        return tuple(out)


def build_certificate(params: VeroneseParams) -> SciCertificate:
    ring = integer_ring(params)
    q = params.q
    pures = [ring.position(pure_tuple(params, j)) for j in range(1, params.n + 1)]
    rows = tuple(
        (t, q, tuple((j, x) for j, x in zip(pures, a) if x))
        for t, a in enumerate(exponent_vectors(params))
        if q not in a
    )
    return SciCertificate(params, rows)


@dataclass(frozen=True)
class FrobeniusReport:
    """Least exponent k per quadratic generator with g^(p^k) in the
    certificate ideal; success means every generator got one."""

    params: VeroneseParams
    k_max: int
    entries: tuple  # (generator over F_p, k or None)

    @property
    def success(self) -> bool:
        return all(k is not None for _, k in self.entries)

    @property
    def k_values(self) -> tuple:
        return tuple(k for _, k in self.entries)

    @property
    def failures(self) -> tuple:
        return tuple(g for g, k in self.entries if k is None)


def _quadric_support(e) -> tuple:
    """(position, exponent) pairs of a degree-2 dense exponent tuple."""
    if 2 in e:
        return ((e.index(2), 2),)
    i = e.index(1)
    return ((i, 1), (e.index(1, i + 1), 1))


def _frobenius_normal_form(heads: dict, support, power: int) -> dict:
    """Normal form of a monomial's power-th power modulo the certificate.

    ``heads`` maps each solved position t to ``(e, factors)`` for the
    binomial x_t^e - prod x_i^a (factors the (i, a) pairs, all free
    positions); ``support`` lists the monomial's (position, exponent)
    pairs.  The heads x_t^e are pairwise coprime, so the binomials are
    their own Groebner basis for any order making each head the lead,
    and reducing is integer division: x_t^x leaves x_t^(x mod e) and
    multiplies the tail in x // e times.  Returns {position: exponent}.
    """
    out: dict = {}
    for i, x in support:
        x *= power
        head = heads.get(i)
        if head is None:
            out[i] = out.get(i, 0) + x
            continue
        e, factors = head
        d, x = divmod(x, e)
        if x:
            out[i] = x
        if d:
            for j, a in factors:
                out[j] = out.get(j, 0) + a * d
    return out


def verify_char_p(cert: SciCertificate, k_max: Optional[int] = None) -> FrobeniusReport:
    """Radical membership of every quadratic generator, char p only.

    A generator is m1 - m2, so in characteristic p its p^k-th power is
    m1^(p^k) - m2^(p^k), which lies in the certificate ideal exactly when
    both monomials have the same normal form.  The star quadrics of one
    content class come in a run sharing their + monomial m1, the class
    leader, so its normal forms are computed once per run, each p^k
    only when a member of the run first asks for it.
    """
    params = cert.params
    p = params.p
    if k_max is None:
        k_max = 2 * params.h + 2
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    heads = {t: (e, tail) for t, e, tail in cert.rows}
    entries = []
    lead = None
    for g in generators_over(params, PrimeField(p)):
        m1, m2 = g.raw_terms()
        if m1 != lead:
            lead, support, lead_forms = m1, _quadric_support(m1), []
        m2 = _quadric_support(m2)
        found = None
        power = 1
        for k in range(k_max + 1):
            if k == len(lead_forms):
                lead_forms.append(_frobenius_normal_form(heads, support, power))
            if lead_forms[k] == _frobenius_normal_form(heads, m2, power):
                found = k
                break
            power *= p
        entries.append((g, found))
    return FrobeniusReport(params, k_max, tuple(entries))


@dataclass(frozen=True)
class PointSetReport:
    """Counts over F_r: parametrized image vs zero set of a binomial set."""

    params: VeroneseParams
    r: int
    set_label: str  # "certificate" or "ideal"
    mode: str
    count_image: int
    count_zero_set: Optional[int]
    witness: Optional[tuple]

    @property
    def counts_equal(self) -> Optional[bool]:
        if self.count_zero_set is None:
            return None
        return self.count_zero_set == self.count_image


class _Image:
    """The image nu_q(F_r^n), counted and tested without listing it.

    Lemma: the fibre of u != 0 is mu_q(F_r)*u.  Coordinate j..j of
    nu_q(u) is u_j^q and coordinate (q-1)e_i + e_j is u_i^(q-1)*u_j, so
    nu_q(v) = nu_q(u) gives v_j^q = u_j^q, hence equal supports, and at
    an i with u_i != 0, zeta = v_i/u_i has zeta^q = 1 and
    v_j = u_i^(q-1)*u_j / v_i^(q-1) = zeta^(1-q)*u_j = zeta*u_j.  As
    F_r^* is cyclic of order r - 1, |mu_q(F_r)| = gcd(q, r - 1), and the
    fibre of 0 is {0}: the image has 1 + (r^n - 1)/gcd(q, r - 1) points.

    Membership solves for the preimage.  Let j0 be the least j whose
    pure coordinate y = pt[j..j] is nonzero; with none, pt is in the
    image only if it is 0.  A preimage u has u_j0 = lam with lam^q = y,
    so y must be a q-th power, that is y^((r-1)/gcd(q, r-1)) = 1, and
    u_j = pt[(q-1)e_j0 + e_j]/lam^(q-1) = lam*w_j with
    w_j = pt[(q-1)e_j0 + e_j]/y.  Then nu_q(u) = lam^q*nu_q(w) =
    y*nu_q(w) for every root lam, so pt is in the image exactly when y
    is a q-th power and pt = y*nu_q(w); the re-evaluation is the proof.
    """

    __slots__ = ("r", "count", "_power", "_rows", "_supports")

    def __init__(self, params: VeroneseParams, field: PrimeField):
        r, q, n = field.r, params.q, params.n
        g = gcd(q, r - 1)
        self.r = r
        self.count = 1 + (r**n - 1) // g
        self._power = (r - 1) // g
        ring = integer_ring(params)
        # _rows[i][j]: position of (q-1)e_i + e_j, the pure one at j = i
        self._rows = [
            [ring.position(tuple(sorted((i,) * (q - 1) + (j,)))) for j in range(1, n + 1)]
            for i in range(1, n + 1)
        ]
        self._supports = [mono_support(a) for a in exponent_vectors(params)]

    def __contains__(self, pt) -> bool:
        r = self.r
        for i, row in enumerate(self._rows):
            y = pt[row[i]]
            if y:
                break
        else:
            return not any(pt)
        if pow(y, self._power, r) != 1:
            return False
        inv = pow(y, r - 2, r)
        w = [pt[t] * inv % r for t in row]
        # pt = y*nu_q(w), coordinate by coordinate over each support
        for x, support in zip(pt, self._supports):
            v = y
            for j, e in support:
                v = v * pow(w[j], e, r) % r
            if v != x:
                return False
        return True


def _roots(exponents, r: int) -> dict:
    """{e: table} with table[y] the increasing list of x in F_r, x^e = y."""
    roots = {}
    for e in exponents:
        table = [[] for _ in range(r)]
        for x in range(r):
            table[pow(x, e, r)].append(x)
        roots[e] = table
    return roots


def _fibred_scan(rows, free, r: int, m: int, image):
    """Zero-set count and lex-first point off the image, for a
    triangular system.

    Over each vector c of free values the zero set is the product of
    the e-th root lists of the tails m_t(c), taken in position order;
    its size is the product of their lengths.  The lex-first point off
    the image is the least, over fibres, of the first non-image point of
    each fibre's lexicographic walk.
    """
    roots = _roots({e for _, e, _ in rows}, r)
    maxe = max((x for _, _, fs in rows for _, x in fs), default=1)
    powtab = [[pow(v, e, r) for e in range(maxe + 1)] for v in range(r)]
    point = [0] * m
    count = 0
    witness = None
    for c in product(range(r), repeat=len(free)):
        for i, v in zip(free, c):
            point[i] = v
        lists = []
        for t, e, factors in rows:
            y = 1
            for i, x in factors:
                y = y * powtab[point[i]][x] % r
            lst = roots[e][y]
            if not lst:
                break
            lists.append(lst)
        else:
            count += prod(len(lst) for lst in lists)
            for values in product(*lists):
                for (t, _, _), v in zip(rows, values):
                    point[t] = v
                pt = tuple(point)
                if witness is not None and pt >= witness:
                    break
                if pt not in image:
                    witness = pt
                    break
    return count, witness


def point_survey(
    cert: SciCertificate,
    r: int,
    mode: str = MODE_FULL,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> PointSetReport:
    """Certificate survey.  The image is counted by the fibre lemma of
    _Image and never listed; full enumeration fibres the zero set over
    the free (pure) coordinates, so budget caps the r^n fibre bases
    visited (and bounds r^n in image-only mode, as a size limit)."""
    params = cert.params
    if mode == MODE_IMAGE:
        return _image_only(params, "certificate", r, budget)
    m = params.cardinality()
    free = cert.free()
    field = _survey_field(mode, r, budget, len(free), "fibre bases")
    image = _Image(params, field)
    count, witness = _fibred_scan(cert.rows, free, r, m, image)
    return PointSetReport(params, r, "certificate", mode, image.count, count, witness)


def full_ideal_point_survey(
    params: VeroneseParams,
    r: int,
    mode: str = MODE_FULL,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> PointSetReport:
    """Survey of the quadratic ideal B by the cone lemma; budget caps
    the r^n parameter vectors of F_r^n, and nothing is enumerated.

    Lemma: Zero(B)(F_r) is the cone V(F_r) = {c*nu_q(v)}, with r^n
    points.  By (d) of groebner.py the star quadrics are a Groebner
    basis of the toric ideal I over every field, so (B) = I over F_r.
    Two binomials lie in I as each has equal contents on its two sides:
    x_t^q - prod_j x_(j^q)^(a_j(t)), and
    x_t*x_(j0^q)^(q-1) - prod_(i in t) x_((q-1)e_j0 + e_i).  Take x in
    Zero(B).  If every pure coordinate is 0, the first gives x = 0.
    Otherwise let y = x_(j0^q) be the first nonzero pure coordinate and
    w_j = x_((q-1)e_j0 + e_j)/y; the second gives
    x_t*y^(q-1) = prod_(i in t) y*w_i, so x = y*nu_q(w).  Here w_j0 = 1
    and y*w_j^q = x_(j^q) = 0 for j < j0, so x -> (y, w) is one-to-one
    onto y != 0 and w whose first nonzero entry is 1.  Every c*nu_q(v)
    vanishes on B, whose binomials have equal contents, so
    |V(F_r)| = 1 + (r - 1)(r^n - 1)/(r - 1) = r^n.

    By _Image's lemma a point of the cone is off the image exactly when
    its first nonzero pure coordinate is not a q-th power, so the cone
    is the image exactly when gcd(q, r - 1) = 1.  The last position is
    (n, ..., n), the largest tuple, so the points lex-smaller than
    (0, ..., 0, y) are the (0, ..., 0, y') with y' < y, in the image
    exactly when y' is a q-th power.  The lex-first witness is then
    (0, ..., 0, y) for the least nonzero y that is not a q-th power.
    """
    if mode == MODE_IMAGE:
        return _image_only(params, "ideal", r, budget)
    field = _survey_field(mode, r, budget, params.n, "parameter vectors of F_r^n")
    image = _Image(params, field)
    count = r**params.n
    witness = None
    if image.count < count:
        head = (0,) * (params.cardinality() - 1)
        witness = next(head + (y,) for y in range(1, r) if head + (y,) not in image)
    return PointSetReport(params, r, "ideal", mode, image.count, count, witness)


def _survey_field(mode: str, r: int, budget: int, k: int, what: str) -> PrimeField:
    """F_r for a survey that visits r^k of what.  The mode, the budget
    and r^k against it are checked before r is tested for primality, so
    a huge r is refused as over budget whether or not the test decides it."""
    if mode not in (MODE_FULL, MODE_IMAGE):
        raise ValueError(f"unknown mode {mode!r}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if isinstance(r, int) and r > 1 and r**k > budget:
        raise BudgetExceededError(
            f"{r}^{k} = {r**k} {what} exceeds the enumeration budget {budget}"
        )
    return PrimeField(r)


def _image_only(params, label, r, budget) -> PointSetReport:
    field = _survey_field(MODE_IMAGE, r, budget, params.n, "parameter vectors of F_r^n")
    count = _Image(params, field).count
    return PointSetReport(params, r, label, MODE_IMAGE, count, None, None)
