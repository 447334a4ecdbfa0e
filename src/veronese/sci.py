"""Certificate binomials cutting the variety set-theoretically in
characteristic p, with Frobenius verification and finite-field surveys.

One binomial per non-pure coordinate: x_t^q minus the matching product
of pure-power coordinates.  In characteristic p every quadratic
generator has a p-power landing in the certificate ideal; over other
prime fields point surveys compare zero sets with the parametrized
image, and nothing is searched: each count and witness is a lemma.  The
certificate's zero set is counted by grouping its pure values by their
support, the quadratic ideal's is the cone V(F_r) with r^n points, and
both have the lex-first witness (0, ..., 0, y), y the least nonzero
non-q-th power.  The image itself is never listed: its size is
1 + (r^n - 1)/gcd(q, r - 1) by its mu_q fibres, and a point is tested
by solving for its preimage.
"""

from __future__ import annotations

from math import comb, gcd

from .combinatorics import (
    VeroneseParams,
    exponent_vectors,
    integer_ring,
    pure_tuple,
)
from .fields import PrimeField
from .polys import Poly, mono_support
from .records import record
from .toric import quadric_pairs

MODE_FULL = "full-enumeration"
MODE_IMAGE = "image-only"


@record
class SciCertificate:
    """|T| - n binomials x_t^q - prod_j x_{j..j}^{a_j(t)}, t non-pure,
    held as triangular rows ``(t, e, tail)``: the binomial x_t^e minus
    the monomial whose ``(position, exponent)`` pairs are ``tail``.

    The rows solve for increasing positions t, and no tail touches a
    solved position; the Frobenius normal form relies on both, so any
    other rows raise ValueError.  point_survey's count is a lemma about
    the rows of build_certificate only, and it refuses any others.
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
    return SciCertificate(params, _certificate_rows(params))


def _certificate_rows(params: VeroneseParams) -> tuple:
    ring = integer_ring(params)
    q = params.q
    pures = [ring.position(pure_tuple(params, j)) for j in range(1, params.n + 1)]
    return tuple(
        (t, q, tuple((j, x) for j, x in zip(pures, a) if x))
        for t, a in enumerate(exponent_vectors(params))
        if q not in a
    )


@record
class FrobeniusReport:
    """Least exponent k per quadratic generator with g^(p^k) in the
    certificate ideal; success means every generator got one."""

    params: VeroneseParams
    k_max: int
    entries: tuple  # (quadric_pairs entry ((i, j), (k, l)), k or None)

    @property
    def success(self) -> bool:
        return all(k is not None for _, k in self.entries)

    @property
    def k_values(self) -> tuple:
        return tuple(k for _, k in self.entries)

    @property
    def failures(self) -> tuple:
        return tuple(g for g, k in self.entries if k is None)


def _pair_support(pair) -> tuple:
    """(position, exponent) pairs of x_i * x_j, i <= j."""
    i, j = pair
    return ((i, 2),) if i == j else ((i, 1), (j, 1))


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


def verify_char_p(cert: SciCertificate, k_max: int | None = None) -> FrobeniusReport:
    """Radical membership of every quadratic generator, char p only.

    A generator is m1 - m2, so in characteristic p its p^k-th power is
    m1^(p^k) - m2^(p^k), which lies in the certificate ideal exactly when
    both monomials have the same normal form, read off quadric_pairs.
    The star quadrics of one content class come in a run sharing their +
    monomial m1, the class leader, so its normal forms are computed once
    per run, each p^k only when a member of the run first asks for it.
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
    for g in quadric_pairs(params):
        m1, m2 = g
        if m1 != lead:
            lead, support, lead_forms = m1, _pair_support(m1), []
        m2 = _pair_support(m2)
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


@record
class PointSetReport:
    """Counts over F_r: parametrized image vs zero set of a binomial set."""

    params: VeroneseParams
    r: int
    set_label: str  # "certificate" or "ideal"
    mode: str
    count_image: int
    count_zero_set: int | None
    witness: tuple | None

    @property
    def counts_equal(self) -> bool | None:
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


def point_survey(cert: SciCertificate, r: int, mode: str = MODE_FULL) -> PointSetReport:
    """Survey of the certificate of build_certificate(params) by the
    count lemma below; any other rows raise ValueError, and nothing is
    enumerated.

    Lemma: with g = gcd(q, r - 1),
    |Zero(cert)(F_r)| = 1 + sum_(s=1..n) C(n, s)*((r - 1)/g)^s*g^(1 + C(s+q-1, q) - s).
    A zero is fixed by its pure values c_j = x_(j^q), and then each
    non-pure x_t solves x_t^q = m_t(c) = prod_j c_j^(a_j(t)) on its own.
    Group the c by their support S, with |S| = s.  If a(t) leaves S,
    m_t(c) = 0 and x_t = 0 is its one root.  The t with a(t) inside S
    are the C(s+q-1, q) - s non-pure tuples over S; there m_t(c) != 0,
    and as F_r^* is cyclic of order r - 1 the q-th powers are the g-th
    powers, so x^q = m_t(c) has g roots if m_t(c) is a g-th power and
    none otherwise.  Write c_j = zeta^(k_j) for a generator zeta:
    m_t(c) is a g-th power exactly when sum_j a_j(t)*k_j = 0 mod g.  For
    i != j in S the row t = (q-1)e_i + e_j asks (q-1)k_i + k_j = 0, that
    is k_i = k_j mod g, because g | q.  Then every t inside S holds, as
    sum_j a_j(t)*k_j = q*k_i = 0 mod g.  So g of the g^s classes of k
    mod g qualify, each lifting to ((r - 1)/g)^s vectors c with
    g^(C(s+q-1, q) - s) zeros each; s = 0 is the origin.

    The witness is _cone_witness's.
    """
    params = cert.params
    if cert.rows != _certificate_rows(params):
        raise ValueError("point_survey counts the rows of build_certificate(params) only")
    n, q = params.n, params.q

    def count() -> int:
        g = gcd(q, r - 1)
        return 1 + sum(comb(n, s) * ((r - 1) // g) ** s * g ** (1 + comb(s + q - 1, q) - s)
                       for s in range(1, n + 1))

    return _survey(params, "certificate", r, mode, count)


def full_ideal_point_survey(
    params: VeroneseParams, r: int, mode: str = MODE_FULL
) -> PointSetReport:
    """Survey of the quadratic ideal B by the cone lemma; nothing is
    enumerated.

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

    The witness is _cone_witness's.
    """
    return _survey(params, "ideal", r, mode, lambda: r**params.n)


def _cone_witness(params: VeroneseParams, image: _Image) -> tuple | None:
    """The lex-first point off the image of both surveyed zero sets.

    Both zero sets hold every point (0, ..., 0, y) that is 0 off the
    last position (n, ..., n): the cone as y*nu_q(e_n), and the
    certificate's as each non-pure t holds some j < n, whose pure
    coordinate 0 makes x_t = 0 a root.  Both contain the image too.
    The last position is the largest tuple, so the points lex-smaller
    than (0, ..., 0, y) are the (0, ..., 0, y') with y' < y, and by
    _Image's lemma such a point is in the image exactly when y' is a
    q-th power.  The witness is thus (0, ..., 0, y) for the least
    nonzero y that is not a q-th power.  One exists exactly when
    gcd(q, r - 1) > 1, that is when the image has fewer than r^n points;
    otherwise both zero sets have r^n points and are the image.
    """
    if image.count == image.r**params.n:
        return None
    head = (0,) * (params.cardinality() - 1)
    return next(head + (y,) for y in range(1, image.r) if head + (y,) not in image)


def _survey(params, label, r, mode, zero_count) -> PointSetReport:
    """The image count and, in full mode, zero_count() and the witness.
    The one limit on r is PrimeField's: a prime below fields.MR_BOUND,
    which its test certifies; any other r raises ValueError."""
    if mode not in (MODE_FULL, MODE_IMAGE):
        raise ValueError(f"unknown mode {mode!r}")
    image = _Image(params, PrimeField(r))
    if mode == MODE_IMAGE:
        return PointSetReport(params, r, label, mode, image.count, None, None)
    witness = _cone_witness(params, image)
    return PointSetReport(params, r, label, mode, image.count, zero_count(), witness)
