"""Independent reference implementations used only to cross-check test
expectations.  Everything here is either elementary (minor gcds, brute
enumeration) or delegates to sympy; nothing imports the package's own
linear algebra or Groebner code paths beyond data types, except that
the rebuilt gluing comb reads ``d`` by ``quotient_order`` from the
package's echelon basis of each whole rest and searches by the package's
``semigroup_member``, as the comb was first built.  ``PackedGens`` is
the packed membership search the comb once ran; ``least_gluing_exponent``
runs it at every exponent.  ``propagate`` is the depth-first search
that once counted the full-ideal zero set, ``fibred_scan`` the walk over
the pure coordinates that once counted the certificate's, and
``fiber_scan`` the scan of F_r that once built the ``fibers`` report.
``verify_char_p_dense`` and ``jacobian_row_dense`` are the Frobenius
check and the Jacobian row as they once read the generators' dense
exponent tuples, with the package's normal form.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, combinations_with_replacement, compress, product
from math import comb, gcd, prod

import sympy
from sympy import GF, Matrix
from sympy.matrices.normalforms import smith_normal_form
from sympy.polys.matrices import DomainMatrix

from veronese.combinatorics import (
    exponent_vectors,
    index_tuples,
    integer_ring,
    parametrize,
    pure_tuple,
)
from veronese.fields import PrimeField
from veronese.gluing import SemigroupGens, semigroup_member
from veronese.lattice import echelon_basis
from veronese.polys import mono_support
from veronese.sci import _frobenius_normal_form
from veronese.toric import generators_over


def invariant_factors_minor_gcd(rows) -> list:
    """d_k = g_k / g_{k-1} with g_k the gcd of all k x k minors.

    Exponential in the matrix size; fine for the small frozen cases.
    """
    m = Matrix(rows)
    nr, nc = m.shape
    factors = []
    g_prev = 1
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rs in combinations(range(nr), k):
            for cs in combinations(range(nc), k):
                g = gcd(g, int(m[rs, cs].det()))
        if g == 0:
            break
        factors.append(g // g_prev)
        g_prev = g
    return factors


def matmul(a, b) -> tuple:
    """Product of integer matrices given as sequences of rows."""
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def identity(n: int) -> tuple:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def snf_diagonal_sympy(rows) -> list:
    d = smith_normal_form(Matrix(rows))
    out = [abs(int(d[i, i])) for i in range(min(d.shape))]
    return [x for x in out if x]


def lattice_member_sympy(basis_cols, v) -> bool:
    """v in the Z-span of the columns: adjoining v must change neither
    the rank nor the product of invariant factors."""
    b = Matrix(list(zip(*basis_cols)))
    bv = b.row_join(Matrix([list(v)]).T)
    if b.rank() != bv.rank():
        return False
    return prod(snf_diagonal_sympy(b.tolist())) == prod(
        snf_diagonal_sympy(bv.tolist())
    )


def content(variables, exps, n: int) -> tuple:
    """Total multiplicity each of u_1..u_n receives when every index-tuple
    variable t is replaced by u_t1 * ... * u_tq; a binomial lies in the
    toric ideal exactly when its two monomials have equal content."""
    total = [0] * n
    for t, e in zip(variables, exps):
        for j in t:
            total[j - 1] += e
    return tuple(total)


def rank_mod_sympy(rows, r: int) -> int:
    rows = [list(map(int, row)) for row in rows]
    if not rows or not rows[0]:
        return 0
    dm = DomainMatrix.from_list(rows, GF(r))
    return len(dm.rref()[1])


def groebner_sympy(polys, variables, r: int):
    """Reduced degrevlex basis over F_r as a set of {exps: coeff} dicts
    with coefficients normalized to {0..r-1}."""
    # sympy's grevlex gives the first symbol the highest precedence,
    # matching the package's convention, so symbols map positionally.
    syms = sympy.symbols([f"y{i}" for i in range(len(variables))])
    converted = []
    for f in polys:
        expr = 0
        for exps, c in f.raw_terms().items():
            term = sympy.Integer(c)
            for s, e in zip(syms, exps):
                term *= s**e
            expr += term
        converted.append(expr)
    gb = sympy.groebner(converted, *syms, order="grevlex", modulus=r, polys=True)
    out = set()
    for g in gb.exprs:
        poly = sympy.Poly(g, *syms, modulus=r)
        terms = {}
        for exps, c in poly.terms():
            terms[tuple(int(e) for e in exps)] = int(c) % r
        out.add(tuple(sorted(terms.items())))
    return out


def poly_key_set(polys) -> set:
    """Same shape as groebner_sympy's output, for comparison."""
    out = set()
    for f in polys:
        out.add(tuple(sorted((e, int(c)) for e, c in f.raw_terms().items())))
    return out


def leading(f) -> tuple:
    """(exponent tuple, coefficient) of the degrevlex-largest term of f."""
    if f.is_zero():
        raise ValueError("zero polynomial has no leading term")
    e = max(f.raw_terms(), key=f.ring.key)
    return e, f.raw_terms()[e]


def power(f, k: int):
    """f^k by repeated squaring of Poly products."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("exponent must be a nonnegative integer")
    out = f.ring.poly({(0,) * f.ring.nvars: 1})
    while k:
        if k & 1:
            out = out * f
        f = f * f if k > 1 else f
        k >>= 1
    return out


def mono_divides(a, b) -> bool:
    """True when x^a divides x^b (dense exponent tuples)."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b) -> tuple:
    """Exponents of x^a / x^b; requires divisibility."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(x < 0 for x in out):
        raise ValueError("monomial quotient is not polynomial")
    return out


def mono_mul(a, b) -> tuple:
    """Exponents of x^a * x^b."""
    return tuple(x + y for x, y in zip(a, b))


def mono_lcm(a, b) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def s_polynomial(f, g):
    """S-polynomial by Poly products on dense exponent tuples."""
    lf, cf = leading(f)
    lg, cg = leading(g)
    lcm = mono_lcm(lf, lg)
    r = f.ring.field.r
    mf = f.ring.poly({mono_div(lcm, lf): pow(cf, -1, r)})
    mg = g.ring.poly({mono_div(lcm, lg): pow(cg, -1, r)})
    return mf * f - mg * g


def monic(f):
    """f over a prime field scaled so that its leading coefficient is 1."""
    if f.is_zero():
        return f
    return f * pow(leading(f)[1], -1, f.ring.field.r)


def normal_form(f, basis):
    """Remainder of f on division by basis, on dense exponent tuples:
    the largest term goes first, to the first element whose lead divides
    it.  The remainder is canonical when basis is a Groebner basis."""
    ring, r = f.ring, f.ring.field.r
    reducers = [(leading(g), g.raw_terms()) for g in basis]
    work = dict(f.raw_terms())
    remainder = {}
    while work:
        m = max(work, key=ring.key)
        c = work.pop(m)
        for (lm, lc), terms in reducers:
            if mono_divides(lm, m):
                break
        else:
            remainder[m] = c
            continue
        delta = mono_div(m, lm)
        scale = c * pow(lc, -1, r) % r
        for eg, cg in terms.items():
            if eg == lm:
                continue
            e = tuple(x + y for x, y in zip(eg, delta))
            s = (work.get(e, 0) - scale * cg) % r
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    return ring.poly(remainder)


def buchberger_textbook(gens) -> list:
    """Reduced degrevlex Groebner basis of gens over a prime field by the
    textbook algorithm on dense exponent tuples.

    Pairs are taken first in, first out; a pair whose leads share no
    variable is skipped (the product criterion, the only one used), and
    every other S-polynomial goes through ``normal_form`` against the
    whole current basis, with nothing cached.  The basis is then made
    monic, minimal and tail-reduced.
    """
    basis = [g for g in gens if not g.is_zero()]
    pairs = deque((i, j) for j in range(len(basis)) for i in range(j))
    while pairs:
        i, j = pairs.popleft()
        a, b = leading(basis[i])[0], leading(basis[j])[0]
        if not any(x and y for x, y in zip(a, b)):
            continue
        h = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if h:
            pairs.extend((k, len(basis)) for k in range(len(basis)))
            basis.append(h)
    leads = [leading(g)[0] for g in basis]
    minimal = [
        monic(g)
        for i, (g, a) in enumerate(zip(basis, leads))
        if not any(
            k != i and mono_divides(b, a) and (b != a or k < i)
            for k, b in enumerate(leads)
        )
    ]
    out = []
    for g in minimal:
        lm = leading(g)[0]
        tail = g.ring.poly({e: c for e, c in g.raw_terms().items() if e != lm})
        out.append(g.ring.poly({lm: 1}) + normal_form(tail, minimal))
    return out


def quadric_basis_certified(basis, n: int, q: int) -> bool:
    """True when basis, binomials in the ring of the index tuples of
    degree q in n letters over a prime field, is proved the reduced
    degrevlex Groebner basis of the ideal J it generates by a Hilbert
    function count in degree 3.  It checks that each element is a monic
    pure difference ``lead - tail`` of two degree-2 monomials and

    (a) the lead and tail have equal content, so J lies in the toric
        ideal I;
    (b) the leads are pairwise distinct, so every S-pair whose leads
        share a variable has degree 3;
    (c) the degree-3 monomials that no lead divides number
        ``dim (R/I)_3 = C(n + 3q - 1, n - 1)``, the monomials of degree
        3q in n letters;
    (d) no tail is a lead, so the basis is reduced.

    The monomials outside ``in(I)_3`` are a basis of ``(R/I)_3``
    (Cox, Little and O'Shea, ch. 5 section 3), and by (c) they are
    those outside the leads' multiples.  The remainder of a degree-3
    S-pair lies in ``J_3`` inside ``I_3`` and on those monomials only,
    so it is 0; an S-pair of coprime leads reduces to 0 as well, so the
    basis is a Groebner basis of J by Buchberger's criterion.  Counts
    by enumeration, with nothing from the package's Groebner code.
    """
    ring = basis[0].ring
    r = ring.field.r
    leads, tails = [], []
    for g in basis:
        lm, c = leading(g)
        rest = [(e, ct) for e, ct in g.raw_terms().items() if e != lm]
        if c != 1 or len(rest) != 1 or rest[0][1] != r - 1:
            return False
        tail = rest[0][0]
        if sum(lm) != 2 or sum(tail) != 2:
            return False
        if content(ring.variables, lm, n) != content(ring.variables, tail, n):
            return False
        leads.append(lm)
        tails.append(tail)
    if len(set(leads)) != len(leads) or set(tails) & set(leads):
        return False
    # a degree-2 lead divides a degree-3 monomial exactly when it is the
    # product of two of its three variables
    pairs = {tuple(i for i, e in enumerate(lm) for _ in range(e)) for lm in leads}
    standard = sum(
        not ({(a, b), (a, c), (b, c)} & pairs)
        for a, b, c in combinations_with_replacement(range(ring.nvars), 3)
    )
    return standard == comb(n + 3 * q - 1, n - 1)


def is_quadric_basis(polys) -> bool:
    """True when the polys over a prime field, made monic, are proved a
    Groebner basis of the ideal J they generate by one degree-3 count
    (Traverso, "Hilbert functions and the Buchberger algorithm", J. Symb.
    Comput. 1996); False means the count does not apply or does not
    decide.  Dense exponent tuples throughout.

    The count applies when every element is a pure difference
    ``lead - tail`` (monic tail coefficient ``r - 1``) of two degree-2
    monomials and the leads are pairwise distinct.  Two distinct degree-2
    leads that share a variable have a degree-3 lcm, and an S-pair of
    coprime leads reduces to 0 (the product criterion), so every S-pair
    left lies in ``J_3``.  ``J_3`` is spanned by the ``x_v * g``, the
    oriented incidence vectors ``e(x_v lead) - e(x_v tail)`` of a graph
    on the degree-3 monomials, so over any field ``dim J_3`` is ``U``,
    the number of edges that join two components when the edges are
    added one by one.  The set ``D`` of the ``x_v * lead`` spans
    ``in(G)_3``, and ``|D| = dim in(G)_3 <= dim in(J)_3 = dim J_3 = U``.
    With equality ``in(G)_3 = in(J)_3``, so the remainder of a degree-3
    S-pair, an element of ``J_3`` on monomials no lead divides, is 0, and
    Buchberger's criterion makes G a Groebner basis.
    """
    r = polys[0].ring.field.r
    edges = []
    for g in map(monic, polys):
        lm = leading(g)[0]
        rest = [(e, c) for e, c in g.raw_terms().items() if e != lm]
        if len(rest) != 1 or rest[0][1] != r - 1 or sum(lm) != 2 or sum(rest[0][0]) != 2:
            return False
        edges.append((lm, rest[0][0]))
    if len({lm for lm, _ in edges}) < len(edges):
        return False
    nvars = polys[0].ring.nvars
    xs = [tuple(int(i == v) for i in range(nvars)) for v in range(nvars)]
    parent: dict = {}

    def root(m):
        while parent.setdefault(m, m) != m:
            parent[m] = m = parent[parent[m]]
        return m

    unions = 0
    for lm, tail in edges:
        for x in xs:
            a, b = root(mono_mul(lm, x)), root(mono_mul(tail, x))
            if a != b:
                parent[a] = b
                unions += 1
    return len({mono_mul(lm, x) for lm, _ in edges for x in xs}) == unions


def semigroup_member_brute(gens, target) -> bool:
    """BFS over bounded multiplicities; assumes every generator is
    nonnegative and nonzero so coordinates only grow."""
    target = tuple(target)
    start = tuple([0] * len(target))
    if target == start:
        return True
    seen = {start}
    frontier = list(seen)
    while frontier:
        nxt = []
        for pt in frontier:
            for g in gens:
                cand = tuple(a + b for a, b in zip(pt, g))
                if cand == target:
                    return True
                if cand not in seen and all(a <= b for a, b in zip(cand, target)):
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return False


class PackedGens:
    """Generators packed into ints for the membership search.

    Coordinate i of a vector sits in field i of ``width`` bits, whose
    top bit is a guard; every entry of a generator or target stays below
    the guard.  A remainder carries its coordinates with every guard
    set, so subtracting a generator is one integer subtraction that
    borrows from no other field, and it keeps every guard exactly when
    no coordinate goes negative.  ``gens`` lists the packed generators
    in the order of the vectors given; ``remove`` deletes one in place.
    """

    __slots__ = ("dim", "width", "guards", "gens")

    def __init__(self, vectors, top: int):
        """Fields wide enough for every entry of vectors and for targets
        with entries up to top."""
        self.dim = len(vectors[0])
        w = self.width = max(top, *map(max, vectors)).bit_length() + 1
        self.guards = sum(1 << (i * w + w - 1) for i in range(self.dim))
        self.gens = [self.pack(v) for v in vectors]

    def pack(self, v) -> int:
        return sum(x << (i * self.width) for i, x in enumerate(v))

    def remove(self, v) -> None:
        self.gens.remove(self.pack(v))

    def member(self, target):
        """Multiplicity vector writing target as an N-combination of the
        generators, or None.

        The search is depth first over picks in generator order and
        returns the first witness in that order.  Every pick lowers the
        coordinate sum, so the search is finite and always decides.  A
        target with an entry at or above the guard raises ValueError.
        """
        if min(target) < 0:
            return None
        if max(target) >> (self.width - 1):
            raise ValueError(
                f"target {tuple(target)} does not fit {self.width}-bit fields"
            )
        glist, guards = self.gens, self.guards
        end = len(glist)
        # an explicit stack, so deep targets cannot exhaust the recursion
        # limit: frames[d] is [rest, next generator to try] and picks[d]
        # the generator frame d descended through.  Picks never decrease,
        # so pick sequences are visited in lexicographic order.  A rest
        # that found no split goes into failed and is never searched
        # again, even where a later visit may pick earlier generators:
        # if the picks P that first reached it and some split R of it
        # used a generator before P's last, sorted(P + R) would be a
        # witness lexicographically before P, found before P was reached.
        failed: set = set()
        picks: list = []
        root = self.pack(target) | guards
        frames = [[root, 0]] if root != guards else []
        found = not frames
        while frames and not found:
            frame = frames[-1]
            rest, i = frame
            for i in range(i, end):
                left = rest - glist[i]
                if left & guards != guards:
                    continue
                if left == guards:
                    found = True
                elif left in failed:
                    continue
                else:
                    frame[1] = i + 1
                    frames.append([left, i])
                picks.append(i)
                break
            else:
                failed.add(rest)
                frames.pop()
                if picks:
                    picks.pop()
        if not found:
            return None
        counts = [0] * len(glist)
        for i in picks:
            counts[i] += 1
        return tuple(counts)


def quotient_order(basis, beta) -> int:
    """Order of beta in Z^n / L, L the lattice with echelon basis basis
    (as ``echelon_basis`` returns it).

    That is the least d > 0 with d*beta in L, so that L meets Z*beta in
    Z*(d*beta); it is 0 when beta lies outside the rational span of L.
    """
    v = list(beta)
    d = 1
    for b in basis:
        if len(b) != len(v):
            raise ValueError("ambient dimensions differ")
        i = next(k for k, x in enumerate(b) if x)
        if any(v[:i]):
            return 0
        f = b[i] // gcd(v[i], b[i])
        if f > 1:
            d *= f
            v = [f * x for x in v]
        k = v[i] // b[i]
        v = [x - k * y for x, y in zip(v, b)]
    return 0 if any(v) else d


def glued_comb_rebuilt(gens, p: int, h: int) -> tuple:
    """The gluing comb of gens with every peel built from scratch.

    The non-axis generators are peeled in list order.  Each peel reads
    d from an echelon basis of its whole rest and searches the least
    s <= h by the tuple search ``semigroup_member``.  Returns ((beta,
    alpha, s, rep1, rep2), ...) in peel order and the free leaf.
    """
    rest = list(gens)
    peels = []
    for beta in [g for g in gens if sum(1 for x in g if x) > 1]:
        rest.remove(beta)
        d = quotient_order(echelon_basis(rest), beta)
        alpha = tuple(d * x for x in beta)
        left = SemigroupGens(len(beta), tuple(rest))
        for s in range(h + 1):
            rep1 = semigroup_member(left, tuple(p**s * x for x in alpha))
            if rep1 is not None:
                break
        else:
            raise AssertionError(f"no s <= {h} for the peel of {beta}")
        peels.append((beta, alpha, s, rep1, (p**s * d,)))
    return tuple(peels), tuple(rest)


def least_gluing_exponent(rest, alpha, p: int, s_cap: int):
    """(s, rep1) for the least s <= s_cap with p^s*alpha in N(rest), or
    None: a packed search at every s from 0, so every s below the least
    one is refuted.  rest is a ``PackedGens`` with fields wide enough
    for p^s_cap*alpha."""
    for s in range(s_cap + 1):
        rep1 = rest.member(tuple(p**s * x for x in alpha))
        if rep1 is not None:
            return s, rep1
    return None


def gluing_obj(params, comb) -> dict:
    """The gluing comb as the nested tree document (schema 1), built as
    a dict from the axes leaf outward, for ``json.dumps`` to encode: each
    glued node holds the generators left before its peel, its left child
    the next node and its right child the leaf {beta}."""
    gens = comb.gens.gens
    rows = [list(g) for g in gens]
    at = {g: i for i, g in enumerate(gens)}
    free = set(comb.free.gens)
    kept = [g in free for g in gens]
    tree = {"type": "free", "generators": list(compress(rows, kept))}
    for beta, w in reversed(comb.peels):
        i = at[beta]
        kept[i] = True
        tree = {
            "type": "glued",
            "generators": list(compress(rows, kept)),
            "witness": {"alpha": list(w.alpha), "s": w.s,
                        "rep1": list(w.rep1), "rep2": list(w.rep2)},
            "left": tree,
            "right": {"type": "free", "generators": [rows[i]]},
        }
    return {
        "schema_version": 1,
        "params": {"n": params.n, "p": params.p, "h": params.h, "q": params.q},
        "tree": tree,
    }


def semigroup_least_picks(gens, target):
    """Least total multiplicity of an N-combination of gens equal to
    target, or None; BFS by number of picks, nonzero nonnegative gens."""
    target = tuple(target)
    frontier = {tuple([0] * len(target))}
    seen = set(frontier)
    picks = 0
    while frontier:
        if target in frontier:
            return picks
        nxt = set()
        for pt in frontier:
            for g in gens:
                cand = tuple(a + b for a, b in zip(pt, g))
                if cand not in seen and all(a <= b for a, b in zip(cand, target)):
                    seen.add(cand)
                    nxt.add(cand)
        frontier = nxt
        picks += 1
    return None


def cyclic_norm(q: int, a: int) -> int:
    """1 + a + ... + a^(q-1) mod q, one term at a time."""
    total, power = 0, 1
    for _ in range(q):
        total = (total + power) % q
        power = power * a % q
    return total


def symmetric_rank_le_one_count(r: int) -> int:
    """Points of F_r^6 viewed as symmetric 3x3 matrices with every 2x2
    minor zero, counted by direct enumeration."""
    count = 0
    for a, b, c, d, e, f in product(range(r), repeat=6):
        m = Matrix([[a, b, c], [b, d, e], [c, e, f]])
        ok = True
        for rs in combinations(range(3), 2):
            for cs in combinations(range(3), 2):
                if int(m[rs, cs].det()) % r:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def certificate_zero_count_closed_form(n: int, q: int, r: int) -> int:
    """|Zero(x_t^q - prod_j x_jj..j^a_j(t))(F_r)| from the cyclic group F_r^*.

    Sort the pure values c by their support S.  A non-pure x_t with
    supp(a(t)) not inside S must be 0.  Otherwise m_t(c) is nonzero and
    x^q = m_t(c) has g = gcd(q, r - 1) roots when m_t(c) lies in the
    index-g subgroup, none otherwise.  Writing c_j = zeta^k_j, that is
    sum_j a_j(t) k_j = 0 mod g, and each k mod g lifts to (r - 1)/g
    discrete logs.  Hence

        sum_S ((r - 1)/g)^|S| * K_S * g^N_S

    with N_S the non-pure t supported inside S and K_S the solutions
    k in (Z/g)^S of those N_S congruences.
    """
    g = gcd(q, r - 1)
    nonpure = []
    for t in combinations_with_replacement(range(n), q):
        if len(set(t)) > 1:
            nonpure.append([t.count(j) for j in range(n)])
    total = 0
    for size in range(n + 1):
        for s in combinations(range(n), size):
            inside = [a for a in nonpure if all(a[j] == 0 or j in s for j in range(n))]
            kernel = sum(
                1
                for k in product(range(g), repeat=size)
                if all(sum(a[j] * kj for j, kj in zip(s, k)) % g == 0 for a in inside)
            )
            total += ((r - 1) // g) ** size * kernel * g ** len(inside)
    return total


def triangular_rows(binomials) -> tuple:
    """Read each binomial as x_t^e - (monomial) and return the rows
    ``(t, e, tail)``, tail the monomial's (position, exponent) pairs,
    sorted by t.  Raises ValueError for any other shape."""
    rows = []
    for g in binomials:
        neg_one = g.ring.field.normalize(-1)
        terms = g.raw_terms()
        heads = [e for e, c in terms.items() if c == 1]
        tails = [e for e, c in terms.items() if c == neg_one]
        if len(terms) != 2 or neg_one == 1 or len(heads) != 1 or len(tails) != 1:
            raise ValueError(f"{g.text()} is not a binomial x_t^e - m")
        support = [(i, x) for i, x in enumerate(heads[0]) if x]
        if len(support) != 1:
            raise ValueError(f"{g.text()}: head is not a power of one variable")
        (t, e), = support
        rows.append((t, e, tuple((i, x) for i, x in enumerate(tails[0]) if x)))
    return tuple(sorted(rows))


def image_set(params, field: PrimeField) -> frozenset:
    """The image of F_r^n, listed one parameter u_j at a time: a table
    row holds x^(a_j) mod r over the exponent vectors a, for each x in
    F_r, and is multiplied into the products over the parameters before
    it."""
    r = field.r
    tables = [
        [tuple([pow(x, e, r) for e in col]) for x in range(r)]
        for col in zip(*exponent_vectors(params))
    ]
    points = [(1,) * len(exponent_vectors(params))]
    for rows in tables:
        points = (
            tuple([a * b % r for a, b in zip(w, t)]) for w, t in product(points, rows)
        )
    return frozenset(points)


def zero_set_scan(compiled, r: int, m: int, image) -> tuple:
    """Count the zero-set points of F_r^m and find the lex-first one off
    the image, by evaluating every point.  ``compiled`` lists each
    polynomial as (coefficient, ((position, exponent), ...)) terms."""
    maxe = max(
        (e for poly in compiled for _, fs in poly for _, e in fs),
        default=1,
    )
    powtab = [[pow(v, e, r) for e in range(maxe + 1)] for v in range(r)]
    count = 0
    witness = None
    for point in product(range(r), repeat=m):
        for poly in compiled:
            acc = 0
            for c, factors in poly:
                t = c
                for i, e in factors:
                    t = t * powtab[point[i]][e] % r
                acc += t
            if acc % r:
                break
        else:
            count += 1
            if witness is None and point not in image:
                witness = point
    return count, witness


def compile_binomials(binomials) -> list:
    """[(coeff, factors)] per binomial, factors its (position, exponent)
    pairs; the binomials are over the field of the survey."""
    return [
        [(c, tuple(mono_support(e))) for e, c in g.raw_terms().items()]
        for g in binomials
    ]


class SearchTooLargeError(Exception):
    """propagate visited more nodes than its budget allows."""


def propagate(compiled, r: int, m: int, image, budget: int = 10**7) -> tuple:
    """Count the zero set of binomials in F_r^m and find its lex-first
    point off the image, by depth-first search over the positions.

    Each binomial is attached to its largest position L.  When the
    search reaches L every other variable is fixed, so it reads
    A*x_L^k + B = 0 and gives the candidates for x_L: the k-th roots of
    -B/A when A != 0, all of F_r when A = B = 0, none otherwise.  Other
    binomials ending at L filter those candidates; positions no binomial
    ends at branch over F_r.  Candidates come in increasing order, so
    the leaves come in lex order: the count is the number of leaves and
    the first leaf off the image is the lex-first witness.  Raises
    ValueError for a binomial with x_L in both terms, and
    SearchTooLargeError once the search has visited more than budget
    nodes (calls at a position, and trailing points tried for a witness).
    """
    at = [[] for _ in range(m)]
    for binomial in compiled:
        last = max((i for _, fs in binomial for i, _ in fs), default=None)
        held = [t for t in binomial if any(i == last for i, _ in t[1])]
        if len(binomial) != 2 or len(held) != 1:
            raise ValueError("each binomial needs its last variable in exactly one term")
        (ca, fa), = held
        cb, fb = binomial[1] if binomial[0] is held[0] else binomial[0]
        k = dict(fa)[last]
        at[last].append((ca, tuple(f for f in fa if f[0] != last), k, cb, fb))
    roots = {}
    for k in {c[2] for cs in at for c in cs}:
        roots[k] = [[] for _ in range(r)]
        for x in range(r):
            roots[k][pow(x, k, r)].append(x)
    maxe = max((e for binomial in compiled for _, fs in binomial for _, e in fs), default=1)
    powtab = [[pow(v, e, r) for e in range(maxe + 1)] for v in range(r)]
    inv = [0] + [pow(a, r - 2, r) for a in range(1, r)]
    everything = range(r)
    # the trailing positions no binomial ends at branch freely below the
    # last constrained one, so its candidates count r^tail leaves each
    depth = m
    while depth and not at[depth - 1]:
        depth -= 1
    tail = m - depth
    spread = r**tail
    point = [0] * m
    count = 0
    witness = None
    nodes = 0

    def visit() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise SearchTooLargeError(
                f"the zero-set search in F_{r}^{m} visits more than {budget} nodes"
            )

    def first_off_image(head: tuple):
        for rest in product(everything, repeat=tail):
            visit()
            if head + rest not in image:
                return head + rest
        return None

    def descend(pos: int) -> None:
        nonlocal count, witness
        visit()
        cands = everything
        for j, (ca, fa, k, cb, fb) in enumerate(at[pos]):
            a, b = ca, cb
            for i, e in fa:
                a = a * powtab[point[i]][e] % r
            for i, e in fb:
                b = b * powtab[point[i]][e] % r
            if j:
                cands = [v for v in cands if (a * powtab[v][k] + b) % r == 0]
            elif a:
                cands = roots[k][-b * inv[a] % r]
            elif b:
                return
        if pos + 1 < depth:
            for v in cands:
                point[pos] = v
                descend(pos + 1)
            return
        count += len(cands) * spread
        if witness is None:
            for v in cands:
                point[pos] = v
                witness = first_off_image(tuple(point[:depth]))
                if witness is not None:
                    return

    if depth:
        descend(0)
    else:
        count, witness = spread, first_off_image(())
    return count, witness


def fiber_scan(params, r: int, u) -> tuple:
    """(fiber, orbit, roots_of_unity) of ``fiber_check`` through a
    nonzero u with q | r - 1, from a table of q-th powers over all of
    F_r and a scan of F_r^* for mu_q."""
    field = PrimeField(r)
    q = params.q
    w = parametrize(params, u, field)
    qth = [pow(x, q, r) for x in range(r)]
    roots = [[x for x in range(r) if qth[x] == qth[uj]] for uj in u]
    fiber = tuple(v for v in product(*roots) if parametrize(params, v, field) == w)
    mu = tuple(g for g in range(1, r) if pow(g, q, r) == 1)
    orbit = tuple(sorted({tuple(g * x % r for x in u) for g in mu}))
    return fiber, orbit, mu


def free_positions(cert) -> list:
    """The positions no row of a certificate solves for, ascending."""
    solved = {t for t, _, _ in cert.rows}
    return [i for i in range(cert.params.cardinality()) if i not in solved]


def root_tables(exponents, r: int) -> dict:
    """{e: table} with table[y] the increasing list of x in F_r, x^e = y."""
    roots = {}
    for e in exponents:
        table = [[] for _ in range(r)]
        for x in range(r):
            table[pow(x, e, r)].append(x)
        roots[e] = table
    return roots


def fibred_scan(rows, free, r: int, m: int, image) -> tuple:
    """Zero-set count and lex-first point off the image, for a
    triangular system of rows (t, e, tail) over the free positions.

    Over each vector c of free values the zero set is the product of
    the e-th root lists of the tails m_t(c), taken in position order;
    its size is the product of their lengths.  The lex-first point off
    the image is the least, over fibres, of the first non-image point of
    each fibre's lexicographic walk.
    """
    roots = root_tables({e for _, e, _ in rows}, r)
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


def derivative(f, v):
    """Formal partial derivative of a Poly with respect to variable v,
    over the whole dense exponent tuple of every term."""
    i = f.ring.position(v)
    out = {}
    for e, c in f.raw_terms().items():
        if e[i]:
            ee = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[ee] = out.get(ee, 0) + c * e[i]
    return f.ring.poly(out)


def jacobian_rows_dense(generators, w, r: int) -> list:
    """Jacobian of generators at w mod r, one derivative per variable."""
    field = PrimeField(r)
    rows = []
    for g in generators:
        gr = g.map_field(field)
        rows.append([derivative(gr, v).evaluate(w) for v in gr.ring.variables])
    return rows


def permuted_point(params, w, perm) -> tuple:
    """Coordinates of w after relabelling u_i as u_perm(i)."""
    tuples = index_tuples(params)
    pos = {t: i for i, t in enumerate(tuples)}
    return tuple(w[pos[tuple(sorted(perm[i - 1] for i in t))]] for t in tuples)


def triangular_check_dense(params, w, r: int) -> tuple:
    """(ok, diag, submatrix) of the triangular-submatrix check: entry
    (i, j) is the dense derivative of F_t = x_{1..1} x_t - x_{1..1 t_q}
    x_{1 t_1..t_(q-1)} by the j-th non-minimal variable at w, for the
    i-th non-minimal t."""
    ring = integer_ring(params).with_field(PrimeField(r))
    tuples = index_tuples(params)
    q = params.q
    lead = pure_tuple(params, 1)
    prime = [t for t in tuples if t[: q - 1] != lead[: q - 1]]
    diag = w[tuples.index(lead)]
    ok = True
    sub = []
    for row_i, t in enumerate(prime):
        b1 = tuple(sorted((1,) * (q - 1) + (t[-1],)))
        b2 = tuple(sorted((1,) + t[:-1]))
        f = ring.poly({((lead, 1), (t, 1)): 1, ((b1, 1), (b2, 1)): -1})
        sub.append([derivative(f, s).evaluate(w) for s in prime])
        for col_j, val in enumerate(sub[-1]):
            if (col_j > row_i and val) or (col_j == row_i and val != diag):
                ok = False
    return ok, diag, sub


def quadratic_generators_by_pairs(params, full: bool = False) -> tuple:
    """The degree-2 generators with each monomial x_t * x_t' built by
    ``exps_of`` from its pair of variables: groups by content, lex
    descending, each member against the leader (or every pair when full),
    the lex-larger monomial with +1."""
    ring = integer_ring(params)
    tuples = index_tuples(params)
    vec = dict(zip(tuples, exponent_vectors(params)))
    by_content: dict = {}
    for t1, t2 in combinations_with_replacement(tuples, 2):
        c = tuple(x + y for x, y in zip(vec[t1], vec[t2]))
        by_content.setdefault(c, []).append(ring.exps_of([(t1, 1), (t2, 1)]))
    out = []
    for c in sorted(by_content):
        group = sorted(by_content[c], reverse=True)
        pairs = combinations(group, 2) if full else ((group[0], m) for m in group[1:])
        out += [ring.poly({big: 1, small: -1}) for big, small in pairs]
    return tuple(out)


def quadric_pairs_by_content(params, full: bool = False) -> tuple:
    """The position pairs ((i, j), (k, l)) of quadratic_generators_by_pairs:
    the pairs i <= j of positions grouped by content, the multiset of
    their indices, groups in ascending content vector, each sorted by
    the dense exponent vector of x_i * x_j, descending.  The dense
    vectors are bytes, whose order is the lex order of their entries,
    built for one group at a time."""
    tuples, vec = index_tuples(params), exponent_vectors(params)
    m = len(tuples)
    by_content: dict = {}
    for i, j in combinations_with_replacement(range(m), 2):
        by_content.setdefault(tuple(sorted(tuples[i] + tuples[j])), []).append((i, j))

    def content_vector(group):
        (i, j) = group[0]
        return [x + y for x, y in zip(vec[i], vec[j])]

    out = []
    for group in sorted(by_content.values(), key=content_vector):
        dense = {}
        for i, j in group:
            e = bytearray(m)
            e[i] += 1
            e[j] += 1
            dense[i, j] = bytes(e)
        group.sort(key=dense.get, reverse=True)
        out += combinations(group, 2) if full else ((group[0], g) for g in group[1:])
    return tuple(out)


def quadric_poly(ring, pair):
    """The binomial x_i*x_j - x_k*x_l of a position pair ((i, j), (k, l))
    over ring, its monomials built by ``exps_of`` from the variables."""
    var = ring.variables
    (i, j), (k, l) = pair
    return ring.poly({((var[i], 1), (var[j], 1)): 1, ((var[k], 1), (var[l], 1)): -1})


def _dense_support(e) -> tuple:
    """(position, exponent) pairs of a degree-2 dense exponent tuple."""
    if 2 in e:
        return ((e.index(2), 2),)
    i = e.index(1)
    return ((i, 1), (e.index(1, i + 1), 1))


def verify_char_p_dense(cert, k_max: int) -> tuple:
    """verify_char_p's entries with each generator a Poly over F_p:
    (generator, least k or None), each monomial's support read off its
    dense exponent tuple."""
    params = cert.params
    p = params.p
    heads = {t: (e, tail) for t, e, tail in cert.rows}
    entries = []
    for g in generators_over(params, PrimeField(p)):
        m1, m2 = map(_dense_support, g.raw_terms())
        found = next(
            (k for k in range(k_max + 1)
             if _frobenius_normal_form(heads, m1, p**k) == _frobenius_normal_form(heads, m2, p**k)),
            None,
        )
        entries.append((g, found))
    return tuple(entries)


def jacobian_row_dense(terms: dict, w: tuple, r: int) -> list:
    """Gradient at w mod r of the polynomial with terms {exps: c}, as a
    dense row: each term c*x^e adds c*e_i*w_i^(e_i-1)*prod_{j != i}
    w_j^(e_j) at each position i of its support."""
    row = [0] * len(w)
    for e, c in terms.items():
        factors = mono_support(e)
        for i, x in factors:
            v = c * x * pow(w[i], x - 1, r)
            for j, y in factors:
                if j != i:
                    v = v * pow(w[j], y, r)
            row[i] = (row[i] + v) % r
    return row
