import random
import tracemalloc
from functools import lru_cache
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import GRID_T36, GRID_T600, clear_package_caches, make_params
from veronese import (
    PrimeField,
    build_certificate,
    fields,
    full_ideal_point_survey,
    index_tuples,
    parametrize,
    point_survey,
    quadratic_generators,
    verify_char_p,
)
from veronese import checks, sci, toric
from veronese.checks import GLUING_PARAMS
from veronese.combinatorics import exponent_vectors, integer_ring, polynomial_ring, pure_tuple
from veronese.polys import Poly, frobenius_power
from veronese.sci import (
    MODE_FULL,
    MODE_IMAGE,
    FrobeniusReport,
    PointSetReport,
    SciCertificate,
    _frobenius_normal_form,
    _Image,
)
from veronese.toric import generators_over, quadric_pairs


def certificate_groebner(cert: SciCertificate) -> list:
    """Textbook Buchberger basis of the certificate over F_p: the oracle
    for the structural normal forms of ``verify_char_p``."""
    field = PrimeField(cert.params.p)
    return oracles.buchberger_textbook([g.map_field(field) for g in cert.binomials])


def test_certificate_frozen(params321):
    cert = build_certificate(params321)
    assert sorted(g.text() for g in cert.binomials) == [
        "x12^2 - x11*x22",
        "x13^2 - x11*x33",
        "x23^2 - x22*x33",
    ]
    assert len(cert) == 3


def test_certificate_shape():
    for n, p, h in ((3, 2, 1), (4, 2, 1), (3, 3, 1), (3, 2, 2)):
        params = make_params(n, p, h)
        cert = build_certificate(params)
        assert len(cert) == params.cardinality() - n
        q = params.q
        pures = {pure_tuple(params, j) for j in range(1, n + 1)}
        for g in cert.binomials:
            terms = sorted(g.raw_terms().items(), key=lambda t: -t[1])
            (lead_e, c1), (tail_e, c2) = terms
            assert (c1, c2) == (1, -1)
            # head is the q-th power of one non-pure coordinate
            head_vars = [
                (v, e) for v, e in zip(index_tuples(params), lead_e) if e
            ]
            assert len(head_vars) == 1
            (t, e) = head_vars[0]
            assert e == q and t not in pures
            # tail involves only pure coordinates
            for v, e in zip(index_tuples(params), tail_e):
                if e:
                    assert v in pures


def test_certificate_leading_terms_coprime():
    for n, p, h in ((3, 2, 1), (3, 3, 1), (3, 2, 2), (4, 2, 1)):
        params = make_params(n, p, h)
        cert = build_certificate(params)
        gb = certificate_groebner(cert)
        leads = [oracles.leading(g)[0] for g in gb]
        for i in range(len(leads)):
            for j in range(i + 1, len(leads)):
                lcm = oracles.mono_lcm(leads[i], leads[j])
                assert lcm == tuple(
                    a + b for a, b in zip(leads[i], leads[j])
                )
        # pairwise-coprime leads mean the set is already its own basis
        assert len(gb) == len(cert)


def test_verify_char_p_frozen(params321):
    report = verify_char_p(build_certificate(params321))
    assert report.success
    assert sorted(report.k_values) == [0, 0, 0, 1, 1, 1]
    assert report.k_max == 4


def test_verify_char_p_memory_stays_flat_in_k_max(params321):
    # every generator succeeds at k <= h, so a cap of 20,000 builds no
    # power past p^h: the report is the default one, in under 2 MB
    cert = build_certificate(params321)
    want = verify_char_p(cert)
    tracemalloc.start()
    try:
        report = verify_char_p(cert, k_max=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert report.entries == want.entries and report.k_max == 20_000


def test_verify_char_p_at_165_fits_in_a_few_megabytes():
    # the star quadrics are read as position pairs: the 12,726 of (4,2,3)
    # cost a few MB from cold caches, where 25 MB of dense |T|-entry
    # exponent tuples were built before
    clear_package_caches()
    tracemalloc.start()
    try:
        report = verify_char_p(build_certificate(make_params(4, 2, 3)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.success and len(report.entries) == 12726
    assert peak < 8 * 2**20


def test_generator_sets_are_mapped_to_a_field_once(monkeypatch, params321):
    # the Frobenius check maps no generator to F_p: its entries are the
    # cached position pairs themselves; the checks' F_r generators come
    # from one cached map per field
    verify_char_p(build_certificate(params321))
    full_ideal_point_survey(params321, 3)
    generators_over(params321, PrimeField(3))
    calls = []
    map_field = Poly.map_field
    monkeypatch.setattr(Poly, "map_field", lambda g, f: calls.append(f) or map_field(g, f))
    report = verify_char_p(build_certificate(params321))
    assert full_ideal_point_survey(params321, 3).count_zero_set == 27
    assert generators_over(params321, PrimeField(3)) is generators_over(params321, PrimeField(3))
    assert calls == []
    cached = quadric_pairs(params321)
    assert all(g is c for (g, _), c in zip(report.entries, cached, strict=True))


def test_verify_char_p_parameter_sweep():
    for n, p, h in ((4, 2, 1), (3, 3, 1), (3, 2, 2), (3, 2, 3), (3, 3, 2), (4, 2, 3)):
        params = make_params(n, p, h)
        report = verify_char_p(build_certificate(params))
        assert report.success
        assert max(report.k_values) <= h


def _frobenius_exponent_lemma(params, g) -> int:
    """The least k of the star quadric g against build_certificate:
    h, except h - 1 when p = 2 and g is x_(i^q)*x_(j^q) - x_c^2 with
    c = (q/2)(e_i + e_j).  For k < h a head x_t^q fires on x_t^(x*p^k),
    x in {1, 2}, only when x = 2 and p^k = q/2; both sides are then pure
    products, which agree only in that case."""
    q, h = params.q, params.h
    if params.p == 2:
        sides = sorted(tuple(t for t, e in zip(g.ring.variables, exps) for _ in range(e))
                       for exps in g.raw_terms())
        for (a, b), (c, d) in (sides, sides[::-1]):
            i, j = a[0], b[0]
            half = (i,) * (q // 2) + (j,) * (q // 2)
            if i < j and (a, b) == ((i,) * q, (j,) * q) and c == d == half:
                return h - 1
    return h


def test_frobenius_exponent_lemma_on_the_grid():
    quadrics = below = 0
    for nph in GRID_T36:
        params = make_params(*nph)
        ring = integer_ring(params)
        for pair, k in verify_char_p(build_certificate(params)).entries:
            want = _frobenius_exponent_lemma(params, oracles.quadric_poly(ring, pair))
            assert k == want == checks._lemma_frobenius_exponent(params, pair), (nph, pair)
            quadrics += 1
            below += want < params.h
    assert (quadrics, below) == (2895, 96)


def test_char_p_check_asserts_the_lemma_quadric_by_quadric(monkeypatch):
    # one k moved off the lemma but kept within k <= h fails the check
    real = checks.verify_char_p

    def moved(cert, k_max=None):
        report = real(cert, k_max)
        (g, k), *rest = report.entries
        return FrobeniusReport(report.params, report.k_max, ((g, k - 1 if k else k + 1), *rest))

    assert checks.run_check("char-p-certificate").ok
    monkeypatch.setattr(checks, "verify_char_p", moved)
    result = checks.run_check("char-p-certificate")
    assert not result.ok and "is not the lemma's" in result.detail


def test_point_checks_enumerate_what_the_survey_counts(monkeypatch):
    # a count one off, or a witness that is a later point off the image,
    # fails the checks that enumerate Zero(cert)(F_r) over F_r^|T|
    real = checks.point_survey
    names = ("char-p-point-equality", "char-neq-p-refutation")
    assert all(checks.run_check(name).ok for name in names)

    def one_more(cert, r):
        s = real(cert, r)
        return PointSetReport(s.params, s.r, s.set_label, s.mode, s.count_image,
                              s.count_zero_set + 1, s.witness)

    monkeypatch.setattr(checks, "point_survey", one_more)
    assert not any(checks.run_check(name).ok for name in names)
    assert "enumerated 35" in checks.run_check("char-neq-p-refutation").detail

    # x22 = x33 = 2, x23 = 1 is on Zero(cert)(F_3) and off the image, as 2
    # is no square mod 3, and it comes after the least such point
    # (0, 0, 0, 0, 0, 2)
    def later(cert, r):
        s = real(cert, r)
        return PointSetReport(s.params, s.r, s.set_label, s.mode, s.count_image,
                              s.count_zero_set, (0, 0, 0, 2, 1, 2))

    monkeypatch.setattr(checks, "point_survey", later)
    result = checks.run_check("char-neq-p-refutation")
    assert not result.ok and "is not the least point" in result.detail


# the Frobenius ladder of the benchmark, |T| <= 36
FROBENIUS_RUNGS = (
    (3, 2, 1), (3, 3, 1), (4, 2, 1), (5, 2, 1), (3, 2, 2), (4, 3, 1), (6, 2, 1),
    (3, 5, 1), (7, 2, 1), (8, 2, 1), (5, 3, 1), (3, 7, 1), (4, 2, 2),
)


def _groebner_entries(cert, k_max):
    """verify_char_p's entries by textbook Buchberger and division."""
    p = cert.params.p
    gb = certificate_groebner(cert)
    field = PrimeField(p)
    entries = []
    for g0 in quadratic_generators(cert.params):
        g = g0.map_field(field)
        found = next(
            (k for k in range(k_max + 1)
             if oracles.normal_form(frobenius_power(g, p, k), gb).is_zero()),
            None,
        )
        entries.append((g, found))
    return tuple(entries)


@pytest.mark.parametrize("nph", sorted(set(FROBENIUS_RUNGS) | set(GLUING_PARAMS)))
def test_verify_char_p_matches_groebner_reduction(nph):
    params = make_params(*nph)
    assert params.cardinality() <= 36
    cert = build_certificate(params)
    ring = polynomial_ring(params, PrimeField(params.p))
    # k_max = h - 1 leaves generators without a power at every rung
    for k_max in (params.h - 1, 2 * params.h + 2):
        got = tuple((oracles.quadric_poly(ring, pair), k)
                    for pair, k in verify_char_p(cert, k_max).entries)
        want = _groebner_entries(cert, k_max)
        assert got == want == oracles.verify_char_p_dense(cert, k_max)


@lru_cache(maxsize=None)
def _certificate_case(nph):
    params = make_params(*nph)
    cert = build_certificate(params)
    heads = {t: (e, fs) for t, e, fs in cert.rows}
    return params, heads, certificate_groebner(cert)


def _support(e) -> tuple:
    return tuple((i, x) for i, x in enumerate(e) if x)


def test_frobenius_normal_form_frozen():
    # x12^3 -> x12 * x11*x22 and (x12*x13)^2 -> x11^2*x22*x33
    _, heads, gb = _certificate_case((3, 2, 1))
    ring = gb[0].ring
    pos = ring.position
    assert _frobenius_normal_form(heads, _support(ring.exps_of([((1, 2), 3)])), 1) == {
        pos((1, 1)): 1, pos((1, 2)): 1, pos((2, 2)): 1,
    }
    x12x13 = _support(ring.exps_of([((1, 2), 1), ((1, 3), 1)]))
    assert _frobenius_normal_form(heads, x12x13, 2) == {
        pos((1, 1)): 2, pos((2, 2)): 1, pos((3, 3)): 1,
    }


@st.composite
def _monomial_pairs(draw):
    """(n,p,h), two dense exponent tuples and k.  The pair is random,
    or one monomial and its image under a trade of x_t^(e*d) for the
    tail to the d (so the same class), or the two terms of a quadric."""
    nph = draw(st.sampled_from(((3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2), (2, 5, 1))))
    params, heads, _ = _certificate_case(nph)
    exps = st.lists(
        st.sampled_from((0, 0, 0, 1, 2, 3, 5)),
        min_size=params.cardinality(),
        max_size=params.cardinality(),
    )
    kind = draw(st.sampled_from(("random", "traded", "quadric")))
    if kind == "random":
        m1, m2 = draw(exps), draw(exps)
    elif kind == "traded":
        m1 = draw(exps)
        m2 = list(m1)
        t = draw(st.sampled_from(sorted(heads)))
        e, factors = heads[t]
        d = draw(st.integers(1, 2))
        m1[t] += e * d
        for j, a in factors:
            m2[j] += a * d
    else:
        g = draw(st.sampled_from(quadratic_generators(params)))
        m1, m2 = g.raw_terms()
    return nph, tuple(m1), tuple(m2), draw(st.integers(0, 3))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_monomial_pairs())
def test_frobenius_normal_form_decides_membership(case):
    nph, m1, m2, k = case
    params, heads, gb = _certificate_case(nph)
    power = params.p**k
    ring = gb[0].ring
    f = frobenius_power(ring.poly({m1: 1}) - ring.poly({m2: 1}), params.p, k)
    same = _frobenius_normal_form(heads, _support(m1), power) == _frobenius_normal_form(
        heads, _support(m2), power
    )
    assert same == oracles.normal_form(f, gb).is_zero()


def test_verify_char_p_k_zero_insufficient(params321):
    report = verify_char_p(build_certificate(params321), k_max=0)
    assert not report.success
    assert len(report.failures) == 3
    with pytest.raises(ValueError):
        verify_char_p(build_certificate(params321), k_max=-1)
    assert report.entries


def test_point_survey_char_p(params321):
    report = point_survey(build_certificate(params321), 2)
    assert report.count_image == 8
    assert report.count_zero_set == 8
    assert report.witness is None
    assert report.counts_equal


def test_point_survey_char_3_witness(params321):
    report = point_survey(build_certificate(params321), 3)
    assert report.count_image == 14
    assert report.count_zero_set == 35
    assert report.witness == (0, 0, 0, 0, 0, 2)
    assert not report.counts_equal


def test_witness_is_lexicographically_first(params321):
    cert = build_certificate(params321)
    report = point_survey(cert, 3)
    field = PrimeField(3)
    image = {
        parametrize(params321, u, field) for u in product(range(3), repeat=3)
    }
    first = None
    for w in product(range(3), repeat=6):
        if w in image:
            continue
        if all(g.map_field(field).evaluate(w) == 0 for g in cert.binomials):
            first = w
            break
    assert report.witness == first


def test_documented_nonimage_point_satisfies_certificate(params321):
    # (1,1,1,1,2,1) solves all three equations over F_3 yet is not a
    # parametrized point: x12*x33 - x13*x23 separates it
    cert = build_certificate(params321)
    field = PrimeField(3)
    w = (1, 1, 1, 1, 2, 1)
    assert all(g.map_field(field).evaluate(w) == 0 for g in cert.binomials)
    image = {
        parametrize(params321, u, field) for u in product(range(3), repeat=3)
    }
    assert w not in image


def test_full_ideal_survey(params321):
    rep2 = full_ideal_point_survey(params321, 2)
    assert (rep2.count_image, rep2.count_zero_set) == (8, 8)
    assert rep2.witness is None

    rep3 = full_ideal_point_survey(params321, 3)
    assert (rep3.count_image, rep3.count_zero_set) == (14, 27)
    assert rep3.witness is not None
    # the zero set of all quadrics is the rank <= 1 symmetric locus
    assert rep3.count_zero_set == oracles.symmetric_rank_le_one_count(3)

    rep5 = full_ideal_point_survey(params321, 5)
    assert (rep5.count_image, rep5.count_zero_set) == (63, 125)

    # q = 3 and q = 4 with gcd(q, r - 1) > 1: brute-force Zero(B)(F_r)
    # equals the scaled cone {c * nu_q(v)}, of which the image of F_r^n
    # is a proper subset
    for n, p, h, r in ((2, 3, 1, 7), (2, 2, 2, 5)):
        params = make_params(n, p, h)
        field = PrimeField(r)
        images = [
            parametrize(params, v, field) for v in product(range(r), repeat=n)
        ]
        cone = {tuple(c * x % r for x in nu) for nu in images for c in range(r)}
        gens = [g.map_field(field) for g in quadratic_generators(params)]
        zero_set = {
            pt
            for pt in product(range(r), repeat=params.cardinality())
            if all(g.evaluate(pt) == 0 for g in gens)
        }
        assert zero_set == cone
        assert len(cone) == r**n

        report = full_ideal_point_survey(params, r)
        assert report.count_zero_set == len(zero_set)
        assert report.count_image == len(set(images)) < len(cone)
        assert report.witness in cone and report.witness not in images


def test_image_only_mode(params321):
    report = point_survey(build_certificate(params321), 5, mode=MODE_IMAGE)
    assert report.count_image == 63
    assert report.count_zero_set is None
    assert report.witness is None
    assert report.counts_equal is None
    assert report.mode == MODE_IMAGE
    assert full_ideal_point_survey(params321, 5, mode=MODE_IMAGE).count_image == 63


def test_invalid_mode_rejected(params321):
    with pytest.raises(ValueError):
        point_survey(build_certificate(params321), 3, mode="sample")


def _brute(params, binomials, r):
    """(count_image, count_zero_set, witness) from the enumerated image
    and a scan of F_r^|T|."""
    field = PrimeField(r)
    compiled = oracles.compile_binomials([g.map_field(field) for g in binomials])
    image = oracles.image_set(params, field)
    return (len(image),) + oracles.zero_set_scan(compiled, r, params.cardinality(), image)


def _triple(report):
    return report.count_image, report.count_zero_set, report.witness


# every case of the grid with r^|T| <= 4 * 10^5
SURVEY_GRID = [
    ((3, 2, 1), 2), ((3, 2, 1), 3), ((3, 2, 1), 5), ((3, 2, 1), 7),
    ((2, 3, 1), 7), ((2, 3, 1), 13),
    ((2, 2, 2), 5), ((2, 2, 2), 7),
    ((4, 2, 1), 3), ((2, 5, 1), 7), ((3, 3, 1), 2),
]


@pytest.mark.parametrize("nph,r", SURVEY_GRID)
def test_fibred_survey_matches_brute_scan(nph, r):
    params = make_params(*nph)
    assert r ** params.cardinality() <= 4 * 10**5
    cert = build_certificate(params)
    assert _triple(point_survey(cert, r)) == _brute(params, cert.binomials, r)


@pytest.mark.parametrize("nph,r", SURVEY_GRID)
def test_ideal_propagation_matches_brute_scan(nph, r):
    params = make_params(*nph)
    report = full_ideal_point_survey(params, r)
    assert _triple(report) == _brute(params, quadratic_generators(params), r)


# every (n, p, h) with |T| <= 36, n = 1 and n = 2 among them, and every
# prime r <= 13 with r^n <= 2 * 10^4
IMAGE_GRID = [
    (nph, r)
    for nph in GRID_T600
    if make_params(*nph).cardinality() <= 36
    for r in (2, 3, 5, 7, 11, 13)
    if r ** nph[0] <= 2 * 10**4
]


def _grid_id(case) -> str:
    (n, p, h), r = case
    return f"{n}{p}{h}-{r}"


def test_image_grid_covers_both_fibre_sizes():
    assert {n for (n, _, _), _ in IMAGE_GRID} >= {1, 2}
    sizes = {gcd(p**h, r - 1) for (_, p, h), r in IMAGE_GRID}
    assert 1 in sizes and max(sizes) > 1


@pytest.mark.parametrize("case", IMAGE_GRID, ids=_grid_id)
def test_image_count_and_membership_match_the_enumeration(case):
    # every point of F_r^|T| when there are at most 2 * 10^5; else 500
    # random points, 500 image points and 500 image points with one
    # coordinate changed
    nph, r = case
    params = make_params(*nph)
    field = PrimeField(r)
    image = _Image(params, field)
    want = oracles.image_set(params, field)
    assert image.count == len(want)
    m = params.cardinality()
    if r**m <= 2 * 10**5:
        points = product(range(r), repeat=m)
    else:
        rng = random.Random(_grid_id(case))
        members = rng.sample(sorted(want), min(500, len(want)))
        points = [tuple(rng.randrange(r) for _ in range(m)) for _ in range(500)]
        points += members
        for pt in members:
            i = rng.randrange(m)
            points.append(pt[:i] + ((pt[i] + rng.randrange(1, r)) % r,) + pt[i + 1:])
    for pt in points:
        assert (pt in image) == (pt in want), pt


def test_image_rejects_hand_built_points(params321):
    # positions x11 x12 x13 x22 x23 x33; over F_5 the squares are 1 and 4
    field = PrimeField(5)
    image = _Image(params321, field)
    want = oracles.image_set(params321, field)
    member = parametrize(params321, (1, 2, 3), field)
    assert member == (1, 2, 3, 4, 1, 4) and member in image
    outside = [
        # every pure coordinate 0, a mixed one not
        (0, 0, 0, 0, 3, 0),
        # x11 = 0 with x12 != 0: the preimage read from x22 has u_1 = 1
        (0, 1, 0, 1, 0, 0),
        # x11 = 2 is no square: 2 * nu(1, 0, 0) is in the cone, not the image
        (2, 0, 0, 0, 0, 0),
        # the pure coordinates and the row of x11 agree with nu(1, 2, 3),
        # x23 does not: only the re-evaluation sees it
        (1, 2, 3, 4, 2, 4),
    ]
    for pt in outside:
        assert pt not in want
        assert pt not in image, pt
    assert (0,) * 6 in image


@pytest.mark.parametrize(
    "case", [c for c in IMAGE_GRID if c not in SURVEY_GRID
             and c[1] ** make_params(*c[0]).cardinality() <= 2 * 10**5],
    ids=_grid_id,
)
def test_surveys_match_the_oracles_on_the_image_grid(case):
    # SURVEY_GRID holds the other cases with r^|T| <= 2 * 10^5
    nph, r = case
    params = make_params(*nph)
    cert = build_certificate(params)
    assert _triple(point_survey(cert, r)) == _brute(params, cert.binomials, r)
    report = full_ideal_point_survey(params, r)
    assert _triple(report) == _brute(params, quadratic_generators(params), r)


def test_ideal_witness_walk_skips_declared_image_points():
    # with every zero-set point but a few declared image points, the
    # witness is the least of those few, also when they all sit among
    # the candidates of one last position
    rng = random.Random(13)
    for (n, p, h), r in (((3, 2, 1), 5), ((2, 2, 2), 5), ((2, 3, 1), 7)):
        params = make_params(n, p, h)
        m = params.cardinality()
        field = PrimeField(r)
        gens = [g.map_field(field) for g in quadratic_generators(params)]
        zero_set = [
            pt for pt in product(range(r), repeat=m)
            if all(g.evaluate(pt) == 0 for g in gens)
        ]
        compiled = oracles.compile_binomials(gens)
        groups = {}
        for pt in zero_set:
            groups.setdefault(pt[:-1], []).append(pt)
        big = [g for g in groups.values() if len(g) >= 4]
        assert big
        for k in (1, 2, 3, 4):
            for dropped in (rng.sample(zero_set, k), rng.sample(rng.choice(big), k)):
                image = frozenset(zero_set) - frozenset(dropped)
                expected = (len(zero_set), min(dropped))
                assert oracles.propagate(compiled, r, m, image) == expected
                assert oracles.zero_set_scan(compiled, r, m, image) == expected


# (n,p,h) and r with r^|T| <= 2 * 10^4, so the brute scan stays quick
_SUBSET_CASES = (
    ((3, 2, 1), 2), ((3, 2, 1), 3), ((3, 2, 1), 5), ((2, 3, 1), 7),
    ((2, 3, 1), 11), ((2, 2, 2), 5), ((2, 2, 2), 7), ((4, 2, 1), 2),
    ((3, 3, 1), 2), ((2, 5, 1), 3),
)


@st.composite
def _quadric_subsets(draw):
    """(n,p,h), r and a nonempty subset of the quadrics in random order:
    positions no chosen quadric ends at are free, and a lone quadric at
    its last position hits the all-of-F_r and no-root branches."""
    nph, r = draw(st.sampled_from(_SUBSET_CASES))
    count = len(quadratic_generators(make_params(*nph)))
    picked = draw(st.lists(st.integers(0, count - 1), min_size=1, unique=True))
    return nph, r, picked


@settings(derandomize=True, max_examples=120, deadline=None)
@given(_quadric_subsets())
def test_propagation_matches_brute_scan_on_quadric_subsets(case):
    nph, r, picked = case
    params = make_params(*nph)
    field = PrimeField(r)
    quadrics = quadratic_generators(params)
    compiled = oracles.compile_binomials([quadrics[i].map_field(field) for i in picked])
    m = params.cardinality()
    image = oracles.image_set(params, field)
    assert oracles.propagate(compiled, r, m, image) == oracles.zero_set_scan(
        compiled, r, m, image
    )


def test_propagation_branches_on_one_quadric():
    # x11*x22 - x12^2 alone over F_3 ends at x22, after x11, x12, x13:
    # one root when x11 != 0, all of F_3 when x11 = x12 = 0 and none when
    # only x11 = 0; the trailing x23, x33 are free
    params = make_params(3, 2, 1)
    field = PrimeField(3)
    (g,) = [g for g in quadratic_generators(params) if g.text() == "-x12^2 + x11*x22"]
    compiled = oracles.compile_binomials([g.map_field(field)])
    image = oracles.image_set(params, field)
    count, witness = oracles.propagate(compiled, 3, 6, image)
    assert count == (2 * 3 * 3 + 3 * 3) * 3**2
    assert (count, witness) == oracles.zero_set_scan(compiled, 3, 6, image)
    assert oracles.propagate(compiled, 3, 6, frozenset()) == (count, (0,) * 6)


def test_propagation_matches_brute_scan_on_random_binomials():
    # binomials c1*x_L^k*u - c2*v with u, v monomials in earlier
    # positions and k up to 4, so candidate lists hold several roots and
    # a random half of F_r^m declared the image makes their order count
    rng = random.Random(17)
    for r in (5, 7, 13):
        for _ in range(8):
            m = rng.randrange(2, 5)
            compiled = []
            for _ in range(rng.randrange(1, 4)):
                last = rng.randrange(1, m)
                u = tuple((i, rng.randrange(1, 3)) for i in range(last) if rng.random() < 0.4)
                v = tuple((i, rng.randrange(1, 4)) for i in range(last) if rng.random() < 0.5)
                k = rng.randrange(1, 5)
                compiled.append([
                    (rng.randrange(1, r), tuple(sorted(u + ((last, k),)))),
                    (rng.randrange(1, r), v),
                ])
            image = frozenset(
                pt for pt in product(range(r), repeat=m) if rng.random() < 0.5
            )
            assert oracles.propagate(compiled, r, m, image) == oracles.zero_set_scan(
                compiled, r, m, image
            )


def test_propagation_rejects_last_variable_in_both_terms():
    # x11*x13 - x12*x13: x13 is the last variable and sits in both terms
    both = [[(1, ((0, 1), (2, 1))), (2, ((1, 1), (2, 1)))]]
    with pytest.raises(ValueError):
        oracles.propagate(both, 3, 3, frozenset())
    three = [[(1, ((0, 2),)), (2, ((1, 2),)), (1, ((2, 2),))]]
    with pytest.raises(ValueError):
        oracles.propagate(three, 3, 3, frozenset())


@pytest.mark.parametrize("nph,r", SURVEY_GRID)
def test_image_satisfies_certificate_and_quadrics(nph, r):
    params = make_params(*nph)
    field = PrimeField(r)
    gens = build_certificate(params).binomials + quadratic_generators(params)
    gens = [g.map_field(field) for g in gens]
    for pt in oracles.image_set(params, field):
        assert all(g.evaluate(pt) == 0 for g in gens), pt


@pytest.mark.parametrize("nph,r", SURVEY_GRID + [((1, 2, 1), 5), ((2, 2, 1), 101)])
def test_image_set_matches_parametrize(nph, r):
    params = make_params(*nph)
    field = PrimeField(r)
    assert oracles.image_set(params, field) == {
        parametrize(params, v, field) for v in product(range(r), repeat=params.n)
    }


def test_fibred_survey_matches_brute_scan_on_other_tails():
    # same heads, random pure-variable tails: the zero set no longer
    # contains the image, so the oracle's witness walk has to skip image
    # points that sit anywhere in a fibre; point_survey refuses the rows
    rng = random.Random(7)
    for (n, p, h), r in (((3, 2, 1), 5), ((2, 3, 1), 7), ((2, 2, 2), 5)):
        params = make_params(n, p, h)
        cert = build_certificate(params)
        pures = oracles.free_positions(cert)
        m = params.cardinality()
        image = oracles.image_set(params, PrimeField(r))
        for _ in range(4):
            rows = []
            for t, e, _ in cert.rows:
                xs = [rng.randrange(3) for _ in pures]
                rows.append((t, e, tuple((i, x) for i, x in zip(pures, xs) if x)))
            other = SciCertificate(params, tuple(rows))
            want = _brute(params, other.binomials, r)
            assert (len(image),) + oracles.fibred_scan(other.rows, pures, r, m, image) == want
            if other.rows != cert.rows:
                with pytest.raises(ValueError, match="build_certificate"):
                    point_survey(other, r)


def test_fibred_witness_walk_skips_deep_into_fibres():
    # with every zero-set point but a few declared image points, the
    # witness is the least of those few wherever they sit, including
    # several in one fibre
    rng = random.Random(11)
    for (n, p, h), r in (((3, 2, 1), 5), ((2, 2, 2), 3), ((2, 3, 1), 7)):
        params = make_params(n, p, h)
        cert = build_certificate(params)
        m = params.cardinality()
        field = PrimeField(r)
        gens = [g.map_field(field) for g in cert.binomials]
        zero_set = [
            pt for pt in product(range(r), repeat=m)
            if all(g.evaluate(pt) == 0 for g in gens)
        ]
        compiled = oracles.compile_binomials(gens)
        rows, free = cert.rows, oracles.free_positions(cert)
        fibres = {}
        for pt in zero_set:
            fibres.setdefault(tuple(pt[i] for i in free), []).append(pt)
        big = [f for f in fibres.values() if len(f) >= 4]
        for k in (1, 2, 3, 4):
            for dropped in (rng.sample(zero_set, k), rng.sample(rng.choice(big), k)):
                image = frozenset(zero_set) - frozenset(dropped)
                expected = (len(zero_set), min(dropped))
                assert oracles.fibred_scan(rows, free, r, m, image) == expected
                assert oracles.zero_set_scan(compiled, r, m, image) == expected


def test_malformed_certificate_rejected(params321):
    # x12^2 - x11*x22, x13^2 - x11*x33 and x23^2 - x22*x33, by position
    rows = build_certificate(params321).rows
    assert rows == (
        (1, 2, ((0, 1), (3, 1))),
        (2, 2, ((0, 1), (5, 1))),
        (4, 2, ((3, 1), (5, 1))),
    )
    bad = [
        # two rows solving for x12
        rows[:1] + rows,
        # the rows out of position order
        rows[::-1],
        # the tail solving for x12 involves x13, which another row solves for
        ((1, 2, ((0, 1), (2, 1))),) + rows[1:],
    ]
    for other in bad:
        with pytest.raises(ValueError):
            SciCertificate(params321, other)


@pytest.mark.parametrize("nph", GRID_T36, ids=lambda nph: "%d%d%d" % nph)
def test_certificate_rows_match_its_binomials(nph):
    # the rows against the binomials built from index tuples, and read
    # back by the generic parser; term order fixes the JSON bytes
    params = make_params(*nph)
    cert = build_certificate(params)
    ring = integer_ring(params)
    q = params.q
    pures = [pure_tuple(params, j) for j in range(1, params.n + 1)]
    want = [
        ring.poly({((t, q),): 1, tuple(zip(pures, a)): -1})
        for t, a in zip(index_tuples(params), exponent_vectors(params))
        if t not in pures
    ]
    got = cert.binomials
    assert [list(g.raw_terms().items()) for g in got] == [
        list(g.raw_terms().items()) for g in want
    ]
    assert cert.rows == oracles.triangular_rows(got)


def test_certificate_survey_past_the_scan_wall():
    # no scan reaches the 3^15 points of F_3^|T|; the count lemma answers
    params = make_params(3, 2, 2)
    cert = build_certificate(params)
    report = point_survey(cert, 3)
    assert report.count_zero_set == 8247
    assert report.count_zero_set == oracles.certificate_zero_count_closed_form(
        3, 4, 3
    )
    assert report.count_image == 14
    field = PrimeField(3)
    w = report.witness
    assert all(g.map_field(field).evaluate(w) == 0 for g in cert.binomials)
    image = {
        parametrize(params, u, field) for u in product(range(3), repeat=3)
    }
    assert w not in image
    # (5,3,1)/F_17 has 17^5 pure vectors and gcd(3, 16) = 1, so the zero
    # set is the image; at r = 10007 the least non-square is 5
    report = point_survey(build_certificate(make_params(5, 3, 1)), 17)
    assert (report.count_zero_set, report.count_image, report.witness) == (17**5, 17**5, None)
    r = 10007
    report = point_survey(cert, r)
    assert report.count_zero_set == oracles.certificate_zero_count_closed_form(3, 4, r)
    assert report.witness == (0,) * 14 + (5,)


def test_ideal_survey_past_the_scan_wall():
    # no scan reaches the 3^15 points of F_3^|T|; the cone lemma answers
    report = full_ideal_point_survey(make_params(3, 2, 2), 3)
    assert (report.count_zero_set, report.count_image) == (27, 14)
    # (4,2,2)/F_5 ran past 90 s in the propagation search; 2 is the least
    # nonzero non-4th power mod 5
    report = full_ideal_point_survey(make_params(4, 2, 2), 5)
    assert (report.count_zero_set, report.count_image) == (625, 157)
    assert report.witness == (0,) * 34 + (2,)


# r^n near 10^27, far past any scan: 10^9 + 7 has gcd(2, r - 1) = 2, and
# 998244353 = 119 * 2^23 + 1 has gcd(8, r - 1) = 8
@pytest.mark.parametrize(
    "nph, r", [((3, 2, 1), 10**9 + 7), ((3, 2, 3), 998244353)], ids=["321", "323"]
)
def test_surveys_at_a_huge_prime(nph, r):
    # each answer against what the surveys do not compute: the subset-sum
    # count, r^n, the fibre count, the certificate's rows at the witness
    # and Euler's criterion for its last entry
    params = make_params(*nph)
    n, q, m = params.n, params.q, params.cardinality()
    g = gcd(q, r - 1)
    assert g == q
    cert = build_certificate(params)
    field = PrimeField(r)
    reports = (point_survey(cert, r), full_ideal_point_survey(params, r))
    assert reports[0].count_zero_set == oracles.certificate_zero_count_closed_form(n, q, r)
    assert reports[1].count_zero_set == r**n
    for report in reports:
        assert report.count_image == 1 + (r**n - 1) // g
        w = report.witness
        assert len(w) == m and not any(w[:-1])
        assert checks._on_certificate(cert, w, r)
        y = w[-1]
        assert pow(y, (r - 1) // g, r) != 1
        assert all(pow(z, (r - 1) // g, r) == 1 for z in range(1, y))
    assert all(b.map_field(field).evaluate(reports[1].witness) == 0
               for b in quadratic_generators(params))
    for report in (point_survey(cert, r, MODE_IMAGE),
                   full_ideal_point_survey(params, r, MODE_IMAGE)):
        assert _triple(report) == (1 + (r**n - 1) // g, None, None)


def test_ideal_survey_builds_no_quadric(monkeypatch, params321):
    calls = []

    def spy(fn):
        return lambda *args: calls.append(args) or fn(*args)

    for module, name in ((toric, "generators_over"), (toric, "quadratic_generators"),
                         (toric, "quadric_pairs"), (sci, "quadric_pairs")):
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    for r in (2, 3, 5, 101):
        full_ideal_point_survey(params321, r)
    assert calls == []


# the propagation oracle's node budget: the cases past it are skipped
_PROPAGATION_NODES = 2000


def test_ideal_survey_matches_the_propagation_oracle():
    # the cone lemma against the depth-first search of F_r^|T| on every
    # |T| <= 36 set, for the primes r <= 13 with r^n <= 2 * 10^4: 50 of
    # the 120 cases finish within the node budget, 70 are skipped
    checked = skipped = 0
    for nph in GRID_T36:
        params = make_params(*nph)
        for r in (2, 3, 5, 7, 11, 13):
            if r ** params.n > 2 * 10**4:
                continue
            field = PrimeField(r)
            compiled = oracles.compile_binomials(
                g.map_field(field) for g in quadratic_generators(params)
            )
            image = oracles.image_set(params, field)
            try:
                want = oracles.propagate(
                    compiled, r, params.cardinality(), image, _PROPAGATION_NODES
                )
            except oracles.SearchTooLargeError:
                skipped += 1
                continue
            report = full_ideal_point_survey(params, r)
            assert (report.count_zero_set, report.witness) == want, (nph, r)
            checked += 1
    assert (checked, skipped) == (50, 70)


# the primes r <= 31, so gcd(q, r - 1) reaches q = 8 and q = 16 at r = 17
_PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.mark.parametrize("nph", GRID_T36, ids=lambda nph: "%d%d%d" % nph)
def test_certificate_survey_matches_the_fibred_scan_oracle(nph):
    # the count and witness lemmas against the walk over the r^n pure
    # vectors, for every prime r <= 31 with r^n <= 10^5
    params = make_params(*nph)
    cert = build_certificate(params)
    free = oracles.free_positions(cert)
    m = params.cardinality()
    for r in _PRIMES_TO_31:
        if r**params.n > 10**5:
            continue
        report = point_survey(cert, r)
        want = oracles.fibred_scan(cert.rows, free, r, m, _Image(params, PrimeField(r)))
        assert (report.count_zero_set, report.witness) == want, r


def test_certificate_count_matches_the_subset_sum():
    # the survey's count against the sum over supports and kernels of
    # oracles.certificate_zero_count_closed_form, past every scan: each
    # GRID_T36 set over every prime r < 100
    primes = [r for r in range(2, 100) if fields.is_prime(r)]
    for n, p, h in GRID_T36:
        cert = build_certificate(make_params(n, p, h))
        for r in primes:
            want = oracles.certificate_zero_count_closed_form(n, p**h, r)
            report = point_survey(cert, r)
            assert report.count_zero_set == want, (n, p, h, r)


def test_point_survey_refuses_foreign_rows(params321):
    # the count is a lemma about build_certificate's rows only: a subset
    # of them, other tails or another set's certificate are refused in
    # either mode
    cert = build_certificate(params321)
    x11_squared = ((0, 2), (3, 1))
    foreign = [
        SciCertificate(params321, cert.rows[1:]),
        SciCertificate(params321, ((1, 2, x11_squared),) + cert.rows[1:]),
        SciCertificate(params321, ((1, 3, cert.rows[0][2]),) + cert.rows[1:]),
        SciCertificate(params321, build_certificate(make_params(3, 3, 1)).rows),
    ]
    for other in foreign:
        for mode in (MODE_FULL, MODE_IMAGE):
            with pytest.raises(ValueError, match="build_certificate"):
                point_survey(other, 5, mode=mode)
    assert point_survey(SciCertificate(params321, cert.rows), 5).count_zero_set == 189
