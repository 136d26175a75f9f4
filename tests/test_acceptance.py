import json
import math
import random

import pytest

import test_quotient
import test_toroids

from modpoly.cli import main as cli_main
from modpoly.diagram import parse_diagram
from modpoly.engine import StabChain, enumerate_small, intersection_order
from modpoly.matrep import ModularRep, reduce_mod, reflection_matrices
from modpoly.polytopality import verify_diagram, verify_words
from modpoly.registry import H_WORDS, K_WORDS, RANK5, RANK6, RANK6_DERIVED
from modpoly.toroids import (
    classify,
    classify_spherical,
    predicted_type_vector,
    quotient_criterion,
    translation_generators,
    type_vector,
)


def test_criterion_1_square_family():
    for text, order in (("1 - 2 - 1", 32), ("1 - 2 - 4", 128),
                        ("4 - 2 - 1", 128), ("2 - 1 - 2", 64)):
        rep = verify_diagram(parse_diagram(text), 4)
        assert rep.verdict == "StringCGroup"
        assert rep.order == order
        assert rep.schlafli == (4, 4)


def test_criterion_2_rank4_464():
    d = parse_diagram("2 - 1 - 3 - 6")
    reports = {s: verify_diagram(d, s) for s in (2, 3, 6)}
    assert reports[2].verdict == "StringCGroup"
    assert reports[3].verdict == "StringCGroup"
    assert reports[6].verdict == "IntersectionFails"
    assert reports[2].order == 96
    assert reports[3].order == 5184
    assert reports[6].order == 248832
    assert reports[6].order == reports[2].order * reports[3].order // 2
    # the dihedral segment <r_1, r_2> has index 3 in the intersection of the
    # facet subgroup with the vertex-figure subgroup
    bad = [c for c in reports[6].checks if not c.passed]
    assert bad[0].witness["k"] == 1
    assert bad[0].witness["expected"] == 12
    assert bad[0].witness["measured"] == 36
    assert bad[0].witness["index"] == 3


def test_criterion_3_rank4_363():
    d = parse_diagram("3 - 3 - 1 - 1")
    rep = verify_diagram(d, 4)
    assert rep.verdict == "StringCGroup"
    assert rep.order == 7680
    secs = {sc.window: sc for sc in classify(d, 4)}
    assert secs[(0, 2)].measured_q == (4, 0)
    assert secs[(1, 3)].measured_q == (4, 0)
    for s in range(3, 13):
        vertex = {sc.window: sc for sc in classify(d, s)}[(1, 3)]
        want = (s // 3, s // 3) if s % 3 == 0 else (s, 0)
        assert vertex.kind == "Euclidean"
        assert vertex.measured_q == want, (s, vertex.measured_q)


def test_criterion_4_rank5_mod4():
    g = 2 ** 16 * 3 ** 2
    assert g == 589824
    for key, factor in (("a", 1), ("b", 1), ("c", 4), ("d", 16)):
        rep = verify_diagram(parse_diagram(RANK5[key]), 4)
        assert rep.verdict == "StringCGroup", key
        assert rep.order == factor * g, key
    secs = {sc.window: sc for sc in classify(parse_diagram(RANK5["d"]), 4)}
    assert secs[(0, 3)].measured_q == (4, 4, 0)


def test_criterion_5_rank5_mod2():
    expected = {"a": ("NotSGGI", 576), "b": ("NotSGGI", 576),
                "c": ("StringCGroup", 2304), "d": ("StringCGroup", 9216)}
    for key, (verdict, order) in expected.items():
        rep = verify_diagram(parse_diagram(RANK5[key]), 2)
        assert (rep.verdict, rep.order) == (verdict, order), key
    # the collapse witness: r_0 reduces to the identity mod 2
    rep = verify_diagram(parse_diagram(RANK5["a"]), 2)
    bad = [c for c in rep.checks if not c.passed]
    assert bad[0].witness == {"generator": 0, "reason": "identity"}


def test_criterion_6_rank5_odd_primes():
    # scaling a root by a unit never changes its reflection, so mod an odd
    # prime all four label patterns generate the same orthogonal group; for
    # p = 3, 5 (both within residues +-3 mod 8) that is the full group, twice
    # the index-2 kernel subgroup of order p^4 (p^4 - 1)(p^2 - 1)
    kernel3 = 3 ** 4 * (3 ** 4 - 1) * (3 ** 2 - 1)
    for key in RANK5:
        rep = verify_diagram(parse_diagram(RANK5[key]), 3)
        assert rep.verdict == "StringCGroup", key
        assert rep.order == 2 * kernel3 == 103680, key
    kernel5 = 5 ** 4 * (5 ** 4 - 1) * (5 ** 2 - 1)
    assert kernel5 == 9360000
    rep = verify_diagram(parse_diagram(RANK5["a"]), 5)
    assert rep.verdict == "StringCGroup"
    assert rep.order == 2 * kernel5 == 18720000


@pytest.mark.long
def test_criterion_7_rank6_mod4():
    g6 = 2 ** 26 * 3 ** 2 * 5
    assert g6 == 3019898880
    ra = verify_diagram(parse_diagram(RANK6["a"]), 4)
    rb = verify_diagram(parse_diagram(RANK6["b"]), 4)
    assert ra.verdict == rb.verdict == "StringCGroup"
    assert ra.order == rb.order == g6
    h = verify_words(parse_diagram(RANK6["b"]), 4, H_WORDS)
    assert h.verdict == "StringCGroup"
    assert rb.order == 5 * h.order
    assert h.schlafli == parse_diagram("2 - 2 - 2 - 1 - 1 - 1").branch_periods()
    k = verify_words(parse_diagram(RANK6["a"]), 4, K_WORDS)
    assert k.verdict == "StringCGroup"
    assert ra.order == 10 * k.order
    assert k.schlafli == parse_diagram(RANK6_DERIVED["b"]).branch_periods()
    rc = verify_diagram(parse_diagram(RANK6_DERIVED["c"]), 4)
    assert rc.verdict == "StringCGroup"
    assert rc.order == 2 ** 29 * 3 ** 2 == 4831838208
    for key in ("b", "d"):
        for s in (4, 6):
            rep = verify_diagram(parse_diagram(RANK6_DERIVED[key]), s)
            assert rep.verdict == "IntersectionFails", (key, s)


@pytest.mark.long
def test_criterion_7_reproduce_long_registry(capsys):
    code = cli_main(["reproduce", "--long", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["counts"]["fail"] == 0
    assert payload["counts"]["skipped"] == 0


def test_criterion_8_rank6_mod3():
    expected = 2 * 3 ** 6 * (3 ** 4 - 1) * (3 ** 3 - 1) * (3 ** 2 - 1)
    assert expected == 24261120
    for key in RANK6:
        rep = verify_diagram(parse_diagram(RANK6[key]), 3)
        assert rep.verdict == "StringCGroup", key
        assert rep.order == expected, key
    # both derived generating sets collapse to index 1 mod 3
    h = verify_words(parse_diagram(RANK6["b"]), 3, H_WORDS)
    k = verify_words(parse_diagram(RANK6["a"]), 3, K_WORDS)
    assert h.order == k.order == expected


def test_criterion_9_spherical_suite():
    seen = set()
    for text, window, at3, at2 in test_toroids.SPHERICAL_FIXTURES:
        diagram = parse_diagram(text)
        refl = reflection_matrices(diagram)
        k = len(window)
        for s in range(2, 8):
            row_id, order, _ = at2 if s == 2 else at3
            sc = classify_spherical(diagram, window, s)
            assert sc.constraints_row_id == row_id, (text, s)
            assert sc.predicted_order == order
            assert sc.measured_order == order
            mats = reduce_mod([refl[i] for i in window], s)
            assert enumerate_small(mats, s, bound=3000).shape[0] == order
            if row_id == "A:any":
                assert order == math.factorial(k + 1)
            if row_id in ("Bsys1:s3", "Bsys2:s3"):
                assert order == 2 ** k * math.factorial(k)
            if row_id == "F4:s3":
                assert order == 1152
            seen.add(row_id)
    assert len(seen) == 15


def test_criterion_10_toroid_suite():
    seen = set()
    for text, window in test_toroids.EUCLIDEAN_FIXTURES:
        diagram = parse_diagram(text)
        tsub = translation_generators(diagram, window)
        fd, fw = test_toroids.flipped(text, window)
        ftsub = translation_generators(fd, fw)
        for s in range(2, 13):
            row_id, q = predicted_type_vector(diagram, window, s)
            assert (row_id, q) == predicted_type_vector(fd, fw, s)
            if row_id is None:
                continue
            assert type_vector(tsub, s) == q, (text, window, s)
            assert type_vector(ftsub, s) == q, (text, window, s)
            seen.add(row_id)
    assert seen == test_toroids.ALL_ROW_IDS


ORACLE_POOL = [
    ("1 - 2", (2, 3, 4, 5, 6, 7)),
    ("1 - 3", (2, 3, 4, 5, 6, 7)),
    ("2 - 1", (2, 3, 4, 5, 6)),
    ("4 - 1", (2, 3, 4, 5, 6)),
    ("1 = 1", (2, 3, 4, 5, 6, 7)),
    ("1 , 1", (2, 3, 4, 5)),
    ("1 - 2 - 1", (2, 3, 4, 5, 6)),
    ("2 - 1 - 2", (2, 3, 4, 5, 6)),
    ("1 - 1 - 1", (2, 3, 4, 5)),
    ("1 - 1 - 2", (2, 3, 4, 5, 6)),
    ("4 - 2 - 1", (2, 3, 4, 5, 6)),
    ("1 - 1 - 3", (2, 3, 4, 5, 6)),
    ("3 - 3 - 1", (2, 3, 4, 5)),
    ("1 - 2 , 1", (2, 3, 4, 5)),
    ("1 - 1 = 1", (2, 3, 4, 5)),
    ("3 - 3 - 1 - 1", (2, 3, 4, 5, 6)),
    ("2 - 1 - 3 - 6", (2, 3, 4, 6)),
    ("1 - 1 - 2 - 2", (2, 3, 4, 5)),
    ("4 - 2 - 2 - 1", (2, 3, 4)),
    ("1 - 2 - 2 - 1", (2, 3, 4)),
    ("2 - 1 - 1 - 2 - 2", (2, 3)),
    ("1 - 2 - 2 - 1 - 1", (2, 3)),
]


def test_criterion_11_engine_oracle():
    rng = random.Random(58230947)
    combos = [(t, m) for t, mods in ORACLE_POOL for m in mods]
    rng.shuffle(combos)
    cases = combos[:50]
    assert len(cases) == 50
    for text, d in cases:
        rep = ModularRep(parse_diagram(text), d)
        els = enumerate_small(rep.mats, d, bound=1_000_000)
        order = els.shape[0]
        assert order <= 10 ** 6
        chain = StabChain(rep.mats, d)
        assert chain.order() == order
        rank = len(rep.mats)
        lo = rng.randrange(rank)
        hi = rng.randrange(lo + 1, rank + 1)
        sub = rep.mats[lo:hi]
        sub_set = {e.tobytes()
                   for e in enumerate_small(sub, d, bound=1_000_000)}
        sub_chain = StabChain(sub, d)
        assert sub_chain.order() == len(sub_set)
        for i in sorted(rng.sample(range(order), min(12, order))):
            x = els[i]
            assert chain.member_mask(x[None])[0]
            assert sub_chain.member_mask(x[None])[0] == (x.tobytes() in sub_set)
        lo2 = rng.randrange(rank)
        hi2 = rng.randrange(lo2 + 1, rank + 1)
        other = rep.mats[lo2:hi2]
        other_set = {e.tobytes()
                     for e in enumerate_small(other, d, bound=1_000_000)}
        other_chain = StabChain(other, d)
        # the shared index segment generates a subgroup of both
        lo3, hi3 = max(lo, lo2), min(hi, hi2)
        shared = StabChain(rep.mats[lo3:hi3], d) if lo3 < hi3 else None
        assert intersection_order(sub_chain, other_chain, shared) == \
            len(sub_set & other_set), (text, d, lo, hi, lo2, hi2)


def test_criterion_12_quotient_criterion():
    for text, base, target in test_quotient.AGREEMENT_PAIRS:
        d = parse_diagram(text)
        res = quotient_criterion(d, base, target)
        direct = verify_diagram(d, target)
        assert direct.order <= 10 ** 7, (text, target)
        assert res.ok == direct.ok, (text, base, target)
    # the designed refusal: with the period-doubling label 4 on the open end,
    # the modulus d = 2s for odd s puts a translation power into the vertex
    # subgroup and the intersection condition fails
    d = parse_diagram("1 - 4 = 4")
    for base, target in ((3, 6), (5, 10)):
        res = quotient_criterion(d, base, target)
        assert not res.ok
        assert res.verdict == "IntersectionFails"
    for base, target in ((3, 9), (4, 8), (3, 12), (4, 12)):
        assert quotient_criterion(d, base, target).ok


def test_registry_fast_cases_all_pass(capsys):
    code = cli_main(["reproduce", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["counts"]["fail"] == 0
    assert payload["counts"]["pass"] >= 21
