import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
import sympy

import oracles
from conftest import GRID_T36, clear_package_caches, make_params
from veronese import (
    CyclicAction,
    PrimeField,
    TypeStarBinomial,
    build_certificate,
    cohomology_orders,
    completely_p_glued,
    fiber_check,
    full_ideal_point_survey,
    jacobian_rank,
    parametrize,
    point_survey,
    quadratic_generators,
    rewrite,
    verify_char_p,
)
import veronese
from veronese import fields, jsonio
from veronese.cli import build_parser, main
from veronese.combinatorics import exponent_vectors, integer_ring, polynomial_ring
from veronese.polys import Poly
from veronese.toric import generators_over, quadric_pairs


def _roundtrip(obj):
    return json.loads(json.dumps(obj))


def _exps(ring, pairs):
    assert all(e > 0 for _, e in pairs)
    return ring.exps_of((tuple(v), e) for v, e in pairs)


def _signed_terms(ring, doc):
    """{exponents: +1 or -1} read back from a binomial document."""
    out = {_exps(ring, m): 1 for m in doc["plus"]}
    out.update({_exps(ring, m): -1 for m in doc["minus"]})
    return out


def _signs(g):
    return {e: 1 if c == 1 else -1 for e, c in g.raw_terms().items()}


def test_params_roundtrip(params321):
    obj = _roundtrip(jsonio.params_obj(params321))
    assert jsonio.params_from_obj(obj) == params321
    assert obj["q"] == 2


def test_enumeration_document(params321):
    doc = _roundtrip(jsonio.enumeration_obj(params321))
    assert doc["schema_version"] == 1
    assert doc["cardinality"] == 6
    assert doc["elements"][0] == {"tuple": [1, 1], "exponent": [2, 0, 0]}


def test_binomial_roundtrip_over_integers(params321):
    ring = integer_ring(params321)
    for g in quadratic_generators(params321):
        obj = _roundtrip(jsonio.binomial_obj(g))
        assert _signed_terms(ring, obj) == _signs(g)
        assert len(obj["plus"]) == 1 and len(obj["minus"]) == 1
        assert obj["text"] == g.text()


def test_binomial_roundtrip_over_prime_fields(params321):
    for r in (2, 3, 5):
        field = PrimeField(r)
        ring = integer_ring(params321).with_field(field)
        for g in generators_over(params321, field):
            obj = _roundtrip(jsonio.binomial_obj(g))
            assert _signed_terms(ring, obj) == _signs(g)
            # over F_2 the unit -1 is 1, so both terms are plus terms
            assert len(obj["plus"]) == (2 if r == 2 else 1)


@pytest.mark.parametrize("nph", GRID_T36, ids=lambda nph: "%d%d%d" % nph)
def test_quadric_renderer_matches_the_poly_renderer(nph):
    # the pair renderer against binomial_obj and Poly.text of the dense
    # binomial, over the integers and over F_2, where both terms are
    # plus terms, F_3 and F_13, where the minus term prints as 2*m, 12*m
    params = make_params(*nph)
    for field in (fields.ZZ, PrimeField(2), PrimeField(3), PrimeField(13)):
        ring = polynomial_ring(params, field)
        for full in (False, True):
            for g in quadric_pairs(params, full):
                want = jsonio.binomial_obj(oracles.quadric_poly(ring, g))
                assert jsonio.quadric_obj(ring, g) == want, (field, g)
                assert jsonio.quadric_text(ring, g) == want["text"]


def test_rewrite_certificate_roundtrip(params321):
    t = TypeStarBinomial(params321, ((1, 1), (2, 3), (3, 3)), (2, 3, 1, 4, 5, 6))
    cert = rewrite(t)
    obj = _roundtrip(jsonio.rewrite_obj(cert, t.poly()))
    ring = integer_ring(params321)
    assert _signed_terms(ring, obj["input"]) == _signs(t.poly())
    assert len(obj["steps"]) == len(cert) >= 1
    for doc, st in zip(obj["steps"], cert.steps):
        assert _signed_terms(ring, doc["quadratic"]) == _signs(st.quadratic)
        assert _exps(ring, doc["cofactor"]) == st.cofactor
        assert doc["sign"] == st.sign
    assert cert.expansion() == t.poly()


def test_type_star_from_obj(params321):
    obj = {
        "params": {"n": 3, "p": 2, "h": 1},
        "blocks": [[1, 1], [2, 3]],
        "sigma": [2, 3, 1, 4],
    }
    t = jsonio.type_star_from_obj(obj)
    assert t.right_blocks() == ((1, 2), (1, 3))


def test_report_documents_serialize(params321):
    cert = build_certificate(params321)
    docs = [
        jsonio.certificate_obj(cert),
        jsonio.frobenius_obj(verify_char_p(cert)),
        jsonio.points_obj(point_survey(cert, 3)),
        jsonio.points_obj(full_ideal_point_survey(params321, 2)),
        jsonio.jacobian_obj(
            jacobian_rank(
                params321, parametrize(params321, (1, 2, 3), PrimeField(5)), 5
            )
        ),
        jsonio.fiber_obj(fiber_check(params321, 5, (1, 2, 3))),
        jsonio.cohomology_obj(cohomology_orders(CyclicAction(2, 1))),
        jsonio.generators_obj(params321, quadric_pairs(params321)),
        jsonio.enumeration_obj(params321),
    ]
    for doc in docs:
        parsed = _roundtrip(doc)
        assert parsed["schema_version"] == 1


def test_gluing_tree_document(params321):
    comb = completely_p_glued(params321)
    doc = json.loads(jsonio.gluing_text(params321, comb))
    node = doc["tree"]
    assert node["type"] == "glued"
    seen_free = 0
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur["type"] == "free":
            seen_free += 1
        else:
            assert set(cur["witness"]) == {"alpha", "s", "rep1", "rep2"}
            stack.append(cur["left"])
            stack.append(cur["right"])
    assert seen_free == 4


# the ten gluing sets of the frobenius-mix pass (perfbench/workloads.py)
_BENCH_GLUING = ((3, 2, 2), (4, 3, 1), (6, 2, 1), (4, 2, 2), (3, 7, 1),
                 (3, 2, 3), (3, 3, 2), (6, 3, 1), (4, 5, 1), (5, 2, 2))


@pytest.mark.parametrize(
    "nph", sorted(set(GRID_T36) | set(_BENCH_GLUING) | {(1, 2, 1), (2, 5, 1)}),
    ids=lambda nph: "%d-%d-%d" % nph,
)
def test_gluing_text_matches_the_dict_oracle(nph):
    # byte for byte what json.dumps writes for the document built as dicts
    params = make_params(*nph)
    comb = completely_p_glued(params)
    want = json.dumps(oracles.gluing_obj(params, comb))
    assert jsonio.gluing_text(params, comb) == want


def test_gluing_text_refuses_peels_out_of_order(params322):
    # the prefix-and-suffix layout holds only for peels in generator order
    comb = completely_p_glued(params322)
    swapped = replace(comb, peels=comb.peels[::-1])
    with pytest.raises(ValueError, match="out of generator order"):
        jsonio.gluing_text(params322, swapped)


def test_cli_gluing_json_at_990_peels(tmp_path):
    # 990 glued objects nest down the left spine; encoding them as a
    # tree of dicts recursed once per level and raised RecursionError
    params = make_params(45, 2, 1)
    path = tmp_path / "comb.json"
    with open(path, "w") as fh, redirect_stdout(fh):
        code = main(["gluing", "--n", "45", "--p", "2", "--h", "1",
                     "--format", "json"])
    assert code == 0
    # the decoder recurses once per level too, and the test runner's own
    # frames leave it fewer than 990 under the default limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 1000)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    finally:
        sys.setrecursionlimit(limit)
    node, glued = doc["tree"], 0
    assert [tuple(g) for g in node["generators"]] == list(exponent_vectors(params))
    while node["type"] == "glued":
        glued, node = glued + 1, node["left"]
    assert glued == 990
    assert len(node["generators"]) == 45


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_enumerate(capsys):
    code, out = run_cli(capsys, "enumerate", "--n", "3", "--p", "2", "--h", "1")
    assert code == 0
    assert "|T| = 6" in out


def test_cli_generators_json(capsys):
    code, out = run_cli(
        capsys, "--format", "json", "generators", "--n", "3", "--p", "2", "--h", "1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 6


def test_cli_rewrite_from_file(tmp_path, capsys):
    payload = {"blocks": [[1, 1], [2, 3]], "sigma": [2, 3, 1, 4]}
    path = tmp_path / "binomial.json"
    path.write_text(json.dumps(payload))
    code, out = run_cli(
        capsys, "rewrite", "--n", "3", "--p", "2", "--h", "1",
        "--input", str(path),
    )
    assert code == 0
    assert "1 steps" in out


def test_cli_certificate_and_verify(capsys):
    code, out = run_cli(capsys, "certificate", "--n", "3", "--p", "2", "--h", "1")
    assert code == 0
    assert "3 binomials" in out
    code, out = run_cli(capsys, "verify-sci", "--n", "3", "--p", "2", "--h", "1")
    assert code == 0
    assert "success: True" in out


def test_cli_verify_negative_exit(capsys):
    code, out = run_cli(
        capsys, "verify-sci", "--n", "3", "--p", "2", "--h", "1", "--k-max", "0"
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-sci", "--n", "3", "--p", "2", "--h", "1", "--k-max", "-1"),
    ],
    ids=["k-max"],
)
def test_cli_negative_cap_is_usage_error(capsys, argv):
    # a negative cap is out of range: no verdict, one error line
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_points_exit_codes(capsys):
    code, _ = run_cli(
        capsys, "points", "--n", "3", "--p", "2", "--h", "1", "--r", "2"
    )
    assert code == 0
    code, _ = run_cli(
        capsys, "points", "--n", "3", "--p", "2", "--h", "1", "--r", "3"
    )
    assert code == 1
    # a modulus the primality test does not certify is a usage error,
    # however large: 4 and 10^16 are composite, and the least prime past
    # MR_BOUND has no base of the test as a factor, so it is undecided
    for r in (4, 10**16, int(sympy.nextprime(fields.MR_BOUND))):
        for which in ("certificate", "ideal"):
            for mode in ("full-enumeration", "image-only"):
                code = main(["points", "--n", "3", "--p", "2", "--h", "1", "--r", str(r),
                             "--set", which, "--mode", mode])
                captured = capsys.readouterr()
                assert code == 2 and captured.out == "", (r, which, mode)
                lines = captured.err.splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_cli_points_at_a_huge_prime(capsys):
    # r^3 near 10^27: the counts are the fibre count 1 + (r^3 - 1)/2 and
    # the subset-sum oracle, the witness 5 is the least non-square mod r
    r = 10**9 + 7
    argv = ["--format", "json", "points", "--n", "3", "--p", "2", "--h", "1", "--r", str(r)]
    code, out = run_cli(capsys, *argv)
    obj = json.loads(out)
    assert code == 1
    assert obj["count_V"] == 500000010500000073500000172 == 1 + (r**3 - 1) // 2
    assert obj["count_zero_set"] == 2000000039000000255000000559
    assert obj["count_zero_set"] == oracles.certificate_zero_count_closed_form(3, 2, r)
    assert obj["witness"] == [0, 0, 0, 0, 0, 5]
    code, out = run_cli(capsys, *argv, "--set", "ideal")
    obj = json.loads(out)
    assert (code, obj["count_zero_set"], obj["witness"]) == (1, r**3, [0, 0, 0, 0, 0, 5])


def test_cli_ideal_survey_past_the_scan_wall(capsys):
    # no scan reaches the 3^15 points of F_3^|T|; the cone lemma answers,
    # and its witness off the image makes the exit code 1
    code, out = run_cli(capsys, "--format", "json", "points", "--n", "3", "--p", "2",
                        "--h", "2", "--r", "3", "--set", "ideal")
    obj = json.loads(out)
    assert (code, obj["count_zero_set"], obj["count_V"]) == (1, 27, 14)
    # the request the propagation search could not answer in 90 s
    code, out = run_cli(capsys, "--format", "json", "points", "--n", "4", "--p", "2",
                        "--h", "2", "--r", "5", "--set", "ideal")
    obj = json.loads(out)
    assert (code, obj["count_zero_set"], obj["count_V"]) == (1, 625, 157)
    assert obj["witness"] == [0] * 34 + [2]


def test_cli_gluing(capsys):
    code, out = run_cli(
        capsys, "--format", "json", "gluing", "--n", "3", "--p", "2", "--h", "1"
    )
    assert code == 0
    assert json.loads(out)["tree"]["type"] == "glued"


def test_cli_jacobian_and_fibers(capsys):
    code, out = run_cli(
        capsys, "jacobian", "--n", "3", "--p", "2", "--h", "1", "--r", "5",
        "--u", "1,1,1",
    )
    assert code == 0
    assert "rank = 3" in out
    code, _ = run_cli(
        capsys, "jacobian", "--n", "3", "--p", "2", "--h", "1", "--r", "5"
    )
    assert code == 2  # neither --u nor --point
    code, out = run_cli(
        capsys, "fibers", "--n", "3", "--p", "2", "--h", "1", "--r", "5",
        "--u", "1,2,3",
    )
    assert code == 0
    assert "equal: True" in out
    code, _ = run_cli(
        capsys, "fibers", "--n", "3", "--p", "3", "--h", "1", "--r", "5",
        "--u", "1,1,1",
    )
    assert code == 2  # no cube roots of unity in F_5


def test_cli_cohomology(capsys):
    code, out = run_cli(capsys, "cohomology", "--q", "4", "--a", "3")
    assert code == 0
    assert "|H^0| = 2" in out
    code, _ = run_cli(capsys, "cohomology", "--q", "9", "--a", "2")
    assert code == 2


def test_cli_reproduce_subset(capsys):
    code, out = run_cli(
        capsys, "reproduce-paper", "--only", "cardinality", "golden-generators"
    )
    assert code == 0
    assert "cardinality: PASS" in out
    assert "golden-generators: PASS" in out


def _readme_cli_lines() -> list:
    """Every veronese command line of the README's CLI section, with
    backslash continuations joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if "veronese " in line and not line.lstrip().startswith("#"):
                lines.append(line.strip())
    return lines


def test_readme_cli_examples_run(monkeypatch, capsys):
    # an option dropped from the parser but left in the README fails here
    lines = _readme_cli_lines()
    assert len(lines) >= 10
    for line in lines:
        tokens = shlex.split(line)
        stages = [[]]
        for tok in tokens:
            if tok == "|":
                stages.append([])
            else:
                stages[-1].append(tok)
        stdin = ""
        if stages[0][0] == "echo":
            stdin = " ".join(stages.pop(0)[1:]) + "\n"
        if stages[-1] == ["python", "-m", "json.tool"]:
            stages.pop()
        assert len(stages) == 1 and stages[0][0] == "veronese", line
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        try:
            code = main(stages[0][1:])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert code in (0, 1) and out, (line, code)


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generators", "--n", "3"])
    assert exc.value.code == 2


def test_cli_deterministic_output(capsys):
    argv = ["--format", "json", "points", "--n", "3", "--p", "2", "--h", "1",
            "--r", "3"]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert (code1, out1) == (code2, out2)


def _pinned_digest(out: str, fmt: str) -> str:
    """SHA-256 of stdout; a JSON document is hashed in its two-space
    indented form, after checking that stdout is the compact one-line
    encoding of the same value, so the pair still fixes every byte."""
    if fmt == "json":
        doc = json.loads(out)
        assert out == json.dumps(doc) + "\n"
        out = json.dumps(doc, indent=2) + "\n"
    return hashlib.sha256(out.encode()).hexdigest()


_P321 = ("--n", "3", "--p", "2", "--h", "1")
# two-digit indices: variables named x{1,10} ... x{10,10}
_P1021 = ("--n", "10", "--p", "2", "--h", "1")

# argv of each case without --format; "@payload" is replaced by a file
# holding the case's block-form binomial
_FROZEN_ARGV = {
    "enumerate": ("enumerate",) + _P321,
    "generators": ("generators",) + _P321,
    "generators-full": ("generators",) + _P321 + ("--full",),
    "rewrite": ("rewrite",) + _P321 + ("--input", "@payload"),
    "rewrite-cofactor": ("rewrite",) + _P321 + ("--input", "@payload"),
    "certificate": ("certificate",) + _P321,
    "verify-sci": ("verify-sci",) + _P321,
    "points-certificate": ("points",) + _P321 + ("--r", "3"),
    "points-ideal": ("points",) + _P321 + ("--r", "3", "--set", "ideal"),
    "points-image-only": ("points",) + _P321 + ("--r", "5", "--mode", "image-only"),
    "points-ideal-image-only": ("points",) + _P321
    + ("--r", "5", "--set", "ideal", "--mode", "image-only"),
    "gluing": ("gluing",) + _P321,
    # 7 of its 42 peels cut blocks past the consecutive split
    "gluing-323": ("gluing", "--n", "3", "--p", "2", "--h", "3"),
    "jacobian": ("jacobian",) + _P321 + ("--r", "5", "--u", "1,1,1"),
    "fibers": ("fibers",) + _P321 + ("--r", "5", "--u", "1,2,3"),
    "cohomology": ("cohomology", "--q", "4", "--a", "3"),
    "generators-n10": ("generators",) + _P1021,
    "certificate-n10": ("certificate",) + _P1021,
    "verify-sci-n10": ("verify-sci",) + _P1021,
    # odd p: the minus term of each witness is (p - 1)*m, not a plus term
    "verify-sci-331": ("verify-sci", "--n", "3", "--p", "3", "--h", "1"),
    "verify-sci-351": ("verify-sci", "--n", "3", "--p", "5", "--h", "1"),
    # q = 4: 138 pairwise differences against 75 star quadrics
    "generators-322": ("generators", "--n", "3", "--p", "2", "--h", "2"),
    "generators-full-322": ("generators", "--n", "3", "--p", "2", "--h", "2", "--full"),
}

_FROZEN_PAYLOADS = {
    "rewrite": {"blocks": [[1, 1], [2, 3]], "sigma": [2, 3, 1, 4]},
    "rewrite-cofactor": {"blocks": [[1, 1], [2, 3], [3, 3]],
                         "sigma": [2, 3, 1, 4, 5, 6]},
}

# (case, format, exit code, SHA-256 of stdout)
_FROZEN_DOCUMENTS = (
    ("enumerate", "json", 0, "d4bf0fe44b46f2e5299b4d8822217441f7fba191036a1d65cb7762b513e11ac3"),
    ("generators", "json", 0, "ddcbb9fa11c801c6946814cbe7c8e69ab03743a80317d8986d1e27a05d6127fd"),
    ("generators-full", "json", 0, "ddcbb9fa11c801c6946814cbe7c8e69ab03743a80317d8986d1e27a05d6127fd"),
    ("rewrite", "json", 0, "b2cf694486d7e50075a63936e5e2cf2a3611db7989b4e43636bd41ab6b8c057b"),
    ("rewrite-cofactor", "json", 0, "f1a36389227dab816f8c7e3e7e30685a8a6348be7e62f24a3c8168086638bdc1"),
    ("certificate", "json", 0, "49591e8b071c78e98ebcae21e33fb75e255b7c1390f1342d157adb93f4f6479f"),
    ("verify-sci", "json", 0, "0a894881a888c88d26030af0db7315087251cee8843986afc96fc2a532ca3e77"),
    ("points-certificate", "json", 1, "d212e9e1f75cd60dcefa95b13f787e175b1891cfd782dd39721e1e0bb2e4c20a"),
    ("points-ideal", "json", 1, "f1f9f12f844d98d4b45860cea30d6ddeed6e5ee21054079233eb1c0d662552e9"),
    ("points-image-only", "json", 0, "f9bbca4874a0d17e82886690f8a751145403a6fbcce998e7fdf1103877898438"),
    ("points-ideal-image-only", "json", 0, "9cc7298f9bea68c0ceffacbd2a3e06f5d3a387ffda8cc511a692aae2600cd3d6"),
    ("gluing", "json", 0, "c366a2dc8fbd7a5750ee65148a72b69fb244fffc92b2911e6b30c1112c53c299"),
    ("gluing-323", "json", 0, "7e0e6d56c7b885f289289106dbcca2aa0f5988f11d1728de75f3c9a855e629ac"),
    ("jacobian", "json", 0, "a5005d3728db6cda24788afd04d16a68d79ee14b128c4a34cedf19052c278843"),
    ("fibers", "json", 0, "26b60306871df85785a902bc3df7fa43b951b21db08ede3ac00e68cb63e542b8"),
    ("cohomology", "json", 0, "1ccae81200d0aaf20afea761329c0dfd8521cfa8a49add6849d0b6158ef0e1c0"),
    ("enumerate", "text", 0, "57c58386e52fcb9908e7a00cc0f29d5c62b43b761e3eb7064ccfd7e110ff30d3"),
    ("generators", "text", 0, "132d76f4fffff1a10d7a6d6a3f24b86ae294786c392540e0710e7b3b9faa7cf8"),
    ("generators-full", "text", 0, "132d76f4fffff1a10d7a6d6a3f24b86ae294786c392540e0710e7b3b9faa7cf8"),
    ("rewrite", "text", 0, "cc1c41189e60f7ac83e3809bad33c88f39428aa21d952cf3a58fa8314957dc98"),
    ("rewrite-cofactor", "text", 0, "6fac0182855595b90886a14236406ef14412716dbd2b75b95c25e38ecb41b15b"),
    ("certificate", "text", 0, "6f2b8f61a8556d2a389d69a1a7cb1e658afde5c42c457b92bd5a4e9a92aa634a"),
    ("verify-sci", "text", 0, "e99fcaf98c3a4e0aef8a123a24cd22d9b7b3614d052319feea0ec5858d375a98"),
    ("points-certificate", "text", 1, "179047c7ad147721cc70b1ffc177dcd489be480a293a8c0c7ae093c94510d381"),
    ("points-ideal", "text", 1, "4785d9e814baf1342b0526a3b8148c826e7bb6365987843e1d77919f4d38b8b6"),
    ("points-image-only", "text", 0, "206ef8b29e8fdf188279a10d6eb32a1d2ec4a9076fc131b71fa0b7135a5e43c1"),
    ("points-ideal-image-only", "text", 0, "e10e3ed94b82fee1ee742df37487e364e86244ec9a7f1023f67ac7d75f825a27"),
    ("gluing", "text", 0, "393472aa4e0af601dbfb7f79d5ce4f017d7759e576153d40f8e474c52d1119b8"),
    ("gluing-323", "text", 0, "3d832e1d4f3609032e96a70e733de0ebe620516a39dceb3628606ff1ef13afba"),
    ("jacobian", "text", 0, "1a4f16f7e8ac449d1ab87a35a9ce1d8a196189f4f4af49216dc1f88f9d7d4209"),
    ("fibers", "text", 0, "98c3b61d60896b919c35dbb88c3d45dd2aed1320f6f0b46cee23e20ed5e78daa"),
    ("cohomology", "text", 0, "4d4abccf028a9fdb5ef60a29386f37d752fbe52e921f23bf2bd0670a721bfbfd"),
    ("generators-n10", "json", 0, "e6951336530782c6d088c600d7f07e393bb851c70c07a931ac6af053db24aa1a"),
    ("generators-n10", "text", 0, "48a077044d9e2c0b7f07baae0a172abaab23633435752cb055bdbd7caba2ef9a"),
    ("certificate-n10", "json", 0, "1ac45b04a74a0a3bd665b24575ce73ee4626e4394636cc4160a0cd5f8658f0cf"),
    ("certificate-n10", "text", 0, "32796c0a621d14c4aacb9da8b92ab4dfd95f12da9291f0b8e9fe1d38ecf4f006"),
    ("verify-sci-n10", "json", 0, "77ce9a21c601166c10057f1ee287f92ffaaa4cc6766957789093be909a27b2ca"),
    ("verify-sci-n10", "text", 0, "09addf0d32cc1e48bc7f904ceec937cded7836b0ce59b6bc273ded6f39af6525"),
    ("verify-sci-331", "json", 0, "d7188ccbf5ba9fcd59e49763fd99d26cd9c2e75a1759355161d041944ad072be"),
    ("verify-sci-331", "text", 0, "653156683bab034b465c3af673f81931aa56b04ea42908a22fb4d25bb9d121dd"),
    ("verify-sci-351", "json", 0, "fa51f35c47ec6032879a5bdd0829b063971d5366c53cdc916d7d395852f24009"),
    ("verify-sci-351", "text", 0, "c9d910b3868f76b8e2d6612c1979ad7740656d2a2be03678608c6355e4e4cc56"),
    ("generators-322", "json", 0, "90349fb302c9585aad33400dd8ba7ed165b2b96452084f656ada610c37f427d9"),
    ("generators-322", "text", 0, "3e76a949bc2ee13c703ab07e24da5b6b3ab6c24c8f5482b306f7cb66361cb985"),
    ("generators-full-322", "json", 0, "2a28f9bd6d878663cde2c6e5566f5090e84bee16c7842f17ede73b4e2317f159"),
    ("generators-full-322", "text", 0, "24f033151c76999962cde3e3836ed76dd721e2d0a6fbf105f64e83712f4dfb32"),
)


@pytest.mark.parametrize(
    "case,fmt,code,digest", _FROZEN_DOCUMENTS,
    ids=[f"{case}-{fmt}" for case, fmt, _, _ in _FROZEN_DOCUMENTS],
)
def test_cli_documents_frozen(tmp_path, capsys, case, fmt, code, digest):
    argv = list(_FROZEN_ARGV[case])
    if "@payload" in argv:
        path = tmp_path / "binomial.json"
        path.write_text(json.dumps(_FROZEN_PAYLOADS[case]))
        argv[argv.index("@payload")] = str(path)
    got_code, out = run_cli(capsys, "--format", fmt, *argv)
    assert (got_code, _pinned_digest(out, fmt)) == (code, digest)


@pytest.mark.parametrize("sub,key", [("generators", "binomials"), ("verify-sci", "witnesses")])
def test_cli_json_renders_each_binomial_once(monkeypatch, capsys, sub, key):
    rendered = []
    text = jsonio.quadric_text

    def counted(ring, g):
        rendered.append(g)
        return text(ring, g)

    monkeypatch.setattr(jsonio, "quadric_text", counted)
    code, out = run_cli(capsys, "--format", "json", sub, *_P321)
    assert code == 0 and len(json.loads(out)[key]) == 6
    assert len(rendered) == len({id(g) for g in rendered}) == 6


def test_cli_text_mode_builds_no_document(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a JSON document was built in text mode")

    builders = [name for name in dir(jsonio)
                if name.endswith("_obj") and not name.endswith("_from_obj")]
    for name in builders + ["gluing_text", "encode"]:
        monkeypatch.setattr(jsonio, name, refuse)
    seen = set()
    for case, fmt, code, digest in _FROZEN_DOCUMENTS:
        if fmt != "text":
            continue
        argv = list(_FROZEN_ARGV[case])
        if "@payload" in argv:
            path = tmp_path / f"{case}.json"
            path.write_text(json.dumps(_FROZEN_PAYLOADS[case]))
            argv[argv.index("@payload")] = str(path)
        got_code, out = run_cli(capsys, *argv)
        assert (got_code, _pinned_digest(out, fmt)) == (code, digest), case
        seen.add(argv[0])
    assert len(seen) == 10  # every subcommand but reproduce-paper


# (n, p, h, SHA-256 of the gluing JSON document); every one exits 0
_GLUING_DOCUMENTS = (
    (3, 2, 2, "145ca423cb65a65d5863c364cacb135d7273ef01d1913bbcf8f602ca8a0d46d9"),
    (4, 3, 1, "1b01fe53d07aec880a5c4155583840dfead11dac84323f2418a0c639b894a3ed"),
    (4, 2, 2, "69145188a48d80874281ab235d0f2444601e7b5be898aa2b75a9032c934fdb9c"),
    (3, 3, 2, "cc449dcd4ceab1ac539d08dde3254280c6413af6d61ca7ba9831945414af9722"),
    (5, 2, 2, "b42f4d93ac1b737f13468fac14099bcce6f8a627426886a406af098f3121bf7d"),
    # the two trees where the membership search does most of the work
    (4, 2, 3, "9d6ba404776633eae03e92189e5d30e060e925d3a0f5918c6967089479000150"),
    (3, 2, 4, "f164ed0950ab1e32db1166a2112a7697c7326125daa9031a95dd7733dc2e76e2"),
)


@pytest.mark.parametrize(
    "n,p,h,digest", _GLUING_DOCUMENTS,
    ids=[f"{n}{p}{h}" for n, p, h, _ in _GLUING_DOCUMENTS],
)
def test_cli_gluing_documents_frozen(capsys, n, p, h, digest):
    got_code, out = run_cli(
        capsys, "--format", "json", "gluing",
        "--n", str(n), "--p", str(p), "--h", str(h),
    )
    assert (got_code, _pinned_digest(out, "json")) == (0, digest)


# (argv, stdin) of malformed invocations that a subcommand rejects: exit 2,
# nothing on stdout, one "error:" line on stderr
_FUZZ_ERRORS = [
    (["rewrite", *_P321], '{"blocks": 5, "sigma": [1]}'),
    (["rewrite", *_P321], "[1,2]"),
    (["rewrite", *_P321],
     '{"params": {"n": 3, "h": 1}, "blocks": [[1, 1], [2, 3]], "sigma": [2, 3, 1, 4]}'),
    (["rewrite", *_P321], '{"blocks": [[1, 1], [2, 3]], "sigma": "2314"}'),
    (["rewrite", *_P321], '{"blocks": [5], "sigma": [1]}'),
    (["rewrite", *_P321], '{"blocks": [[1, 1], [2, 3]], "sigma": [[2], 3, 1, 4]}'),
    (["rewrite", *_P321], '{"blocks": [[1, 1.5], [2, 3]], "sigma": [2, 3, 1, 4]}'),
    (["rewrite", *_P321], '{"sigma": [2, 3, 1, 4]}'),
    (["rewrite", *_P321], 'null'),
    (["rewrite", *_P321], '{"blocks": [[1, 1], [2, 3]], "sigma": [2, 3, 1, 4], "params": [3]}'),
    (["rewrite", *_P321], "not json"),
    (["points", *_P321, "--r", "4"], None),
    (["points", *_P321, "--r", "-5"], None),
    (["jacobian", *_P321, "--r", "4", "--u", "1,2,3"], None),
    (["enumerate", "--n", "0", "--p", "2", "--h", "1"], None),
    (["gluing", "--n", "3", "--p", "4", "--h", "1"], None),
    (["enumerate", "--n", "3", "--p", "3", "--h", "1000000"], None),
    (["enumerate", "--n", "100000", "--p", "2", "--h", "1"], None),
    (["fibers", *_P321, "--r", "5", "--u", "1,2"], None),
    (["fibers", *_P321, "--r", "5", "--u", "a,b,c"], None),
    (["jacobian", *_P321, "--r", "5", "--u", "1,2"], None),
    (["jacobian", *_P321, "--r", "5", "--point", "1,2,3"], None),
    (["cohomology", "--q", "0", "--a", "1"], None),
    (["cohomology", "--q", "4", "--a", "3", "--i-max", "-1"], None),
    (["cohomology", "--q", "4", "--a", "3", "--i-max", "1001"], None),
]
# invocations that argparse itself rejects
_FUZZ_USAGE = [
    ["points", *_P321],  # --r is required
    ["generators", "--n", "3"],
    ["points", *_P321, "--r", "x"],
    ["points", *_P321, "--r", "5", "--set", "nowhere"],
    ["--format", "xml", "enumerate", *_P321],
    ["no-such-command"],
    [],
]


def test_cli_fuzz_exits_cleanly_and_keeps_the_parser(capsys, monkeypatch):
    argv = ["--format", "json", "enumerate", *_P321]
    assert main(argv) == 0
    first = capsys.readouterr().out
    for bad, stdin in _FUZZ_ERRORS:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin or ""))
        code = main(bad)
        captured = capsys.readouterr()
        assert code == 2, (bad, stdin, captured.err)
        assert captured.out == "", (bad, stdin)
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (bad, stdin, lines)
    for bad in _FUZZ_USAGE:
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2, bad
        assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert build_parser() is build_parser()


def test_cli_parser_is_built_on_first_use():
    # importing the CLI must not pay for the parser (interpreter start-up)
    code = ("import veronese.cli as c; n = c.build_parser.cache_info().currsize; "
            "c.main(['cohomology', '--q', '2', '--a', '1']); "
            "print(n, c.build_parser.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(veronese.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 1"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_closed_stdout_exits_quietly(fmt):
    # the pipe's read end is closed before the child starts, so its first
    # write to stdout fails with EPIPE
    src = os.path.dirname(os.path.dirname(veronese.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from veronese.cli import entry; entry()",
             "enumerate", "--n", "3", "--p", "2", "--h", "4", "--format", fmt],
            env=env, stdout=w, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(w)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_generators_and_jacobian_share_one_cache_entry(capsys):
    # --full reaches quadric_pairs only when given, so the generators
    # subcommand keys the cache like every other caller
    quadric_pairs.cache_clear()
    run_cli(capsys, "generators", "--n", "4", "--p", "2", "--h", "2")
    run_cli(capsys, "jacobian", "--n", "4", "--p", "2", "--h", "2", "--r", "5",
            "--u", "1,2,3,4")
    run_cli(capsys, "verify-sci", "--n", "4", "--p", "2", "--h", "2")
    info = quadric_pairs.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_quadric_paths_build_no_dense_tuple(monkeypatch, capsys, params322):
    # the Frobenius check, the Jacobian and the generators and
    # verify-sci documents read position pairs: from cold caches they
    # build neither a Poly nor a dense exponent tuple
    calls = []
    init = Poly.__init__

    def spy_init(self, *args):
        calls.append("Poly")
        init(self, *args)

    monkeypatch.setattr(Poly, "__init__", spy_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("veronese") and hasattr(module, "pair_exponents"):
            real = module.pair_exponents
            monkeypatch.setattr(module, "pair_exponents",
                                lambda *args, real=real: calls.append("pair") or real(*args))
    clear_package_caches()
    assert verify_char_p(build_certificate(params322)).success
    clear_package_caches()
    assert jacobian_rank(params322, (1,) * 15, 5).rank == 12
    for argv in (("--format", "json", "generators"), ("generators", "--full"),
                 ("--format", "json", "verify-sci"), ("verify-sci",)):
        clear_package_caches()
        code, out = run_cli(capsys, *argv, "--n", "3", "--p", "2", "--h", "2")
        assert code == 0 and out, argv
    assert calls == []
    # the spies see the dense path
    clear_package_caches()
    quadratic_generators(params322)
    assert "Poly" in calls and "pair" in calls


def test_cli_cohomology_of_a_huge_q_exits_at_once():
    # q = 2^40: the norm is a modular power and p is an integer root of
    # q, so nothing loops q times
    src = os.path.dirname(os.path.dirname(veronese.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "from veronese.cli import entry; entry()",
         "cohomology", "--q", str(2**40), "--a", "1"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"q = {2**40}, a = 1, invariant p^(h-1) = {2**39}" in proc.stdout


@pytest.mark.parametrize("q,code", [(10**18 + 3, 0), (2**89 - 1, 2)])
def test_cli_cohomology_of_a_large_prime_q_exits_at_once(q, code):
    # Miller-Rabin decides a prime q below its bound at once and refuses
    # one past it; no divisor is tried up to sqrt(q)
    src = os.path.dirname(os.path.dirname(veronese.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "from veronese.cli import entry; entry()",
         "cohomology", "--q", str(q), "--a", "1"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stdout == ""
        assert "bound of the primality test" in proc.stderr
    else:
        assert f"q = {q}, a = 1, invariant p^(h-1) = 1" in proc.stdout


def test_cli_cohomology_of_a_huge_composite_q_exits_at_once():
    # 10^4000 is even and not a power of 2, which settles it before any
    # root is taken
    src = os.path.dirname(os.path.dirname(veronese.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "from veronese.cli import entry; entry()",
         "cohomology", "--q", "1" + "0" * 4000, "--a", "1"],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "is not a prime power" in proc.stderr


def test_cli_refuses_huge_coordinate_sets_at_once():
    # |T| = C(100001, 2) is refused when the parameters are read, before
    # any coordinate is listed
    src = os.path.dirname(os.path.dirname(veronese.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "from veronese.cli import entry; entry()",
         "enumerate", "--n", "100000", "--p", "2", "--h", "1"],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "exceeds the cap" in lines[0]
