import hashlib
import importlib.util
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import modpoly.polytopality as polytopality
from modpoly.diagram import parse_diagram
from modpoly.engine import Listed, OrderGuardExceeded, element_period, enumerate_small
from modpoly.matrep import ModularRep, predict_branch_periods, predict_collapse
from modpoly.polytopality import Verifier, verify_diagram, verify_words, word_matrices

PREDICTION_SAMPLES = [
    "1",
    "1 - 1",
    "1 - 2",
    "2 - 1",
    "1 = 1",
    "1 - 4",
    "4 - 1",
    "1 - 3",
    "3 - 1",
    "1 , 1",
    "1 - 2 - 1",
    "2 - 1 - 2",
    "1 - 2 - 4",
    "2 - 1 - 4",
    "3 - 1 - 4",
    "4 - 2 - 1",
    "1 - 1 = 1 - 1",
    "3 - 1 = 1 - 3",
    "2 - 1 = 1 - 2",
    "2 - 1 = 1 - 3",
    "1 - 2 - 2 - 1",
    "2 - 1 - 3 - 6",
    "1 , 3 - 1",
]


@pytest.mark.parametrize("modulus", [2, 3, 4, 5, 6, 8])
@pytest.mark.parametrize("text", PREDICTION_SAMPLES)
def test_local_predictions(text, modulus):
    diagram = parse_diagram(text)
    rep = ModularRep(diagram, modulus)
    ident = np.eye(diagram.rank, dtype=np.int64) % modulus
    for i, expect in enumerate(predict_collapse(diagram, modulus)):
        assert np.array_equal(rep.mats[i], ident) == expect
    for i, expect in enumerate(predict_branch_periods(diagram, modulus)):
        prod = rep.mats[i] @ rep.mats[i + 1] % modulus
        assert element_period(prod, modulus) == expect


def test_square_family_mod4():
    for text, order in [("1 - 2 - 1", 32), ("1 - 2 - 4", 128), ("2 - 1 - 2", 64)]:
        report = verify_diagram(parse_diagram(text), 4)
        assert report.verdict == "StringCGroup"
        assert report.order == order
        assert report.schlafli == (4, 4)
        assert report.diagram == text
        assert all(c.passed for c in report.checks)


def test_collapse_mod_two():
    report = verify_diagram(parse_diagram("1 - 2 - 1"), 2)
    assert report.verdict == "NotSGGI"
    assert report.order == 2
    failing = [c for c in report.checks if not c.passed]
    assert failing[0].witness == {"generator": 0, "reason": "identity"}


def test_rank4_tower():
    diagram = parse_diagram("2 - 1 - 3 - 6")
    r2 = verify_diagram(diagram, 2)
    assert (r2.verdict, r2.order, r2.schlafli) == ("StringCGroup", 96, (4, 3, 4))
    r3 = verify_diagram(diagram, 3)
    assert (r3.verdict, r3.order, r3.schlafli) == ("StringCGroup", 5184, (4, 6, 4))
    r6 = verify_diagram(diagram, 6)
    assert r6.verdict == "IntersectionFails"
    assert r6.order == 248832
    last = r6.checks[-1]
    assert not last.passed
    assert last.witness["rank"] == 4
    assert last.witness["k"] == 1
    assert last.witness["index"] == 3


def test_small_ranks():
    report = verify_diagram(parse_diagram("1"), 3)
    assert report.verdict == "StringCGroup"
    assert report.order == 2
    assert report.schlafli == ()
    assert verify_diagram(parse_diagram("1"), 2).verdict == "NotSGGI"
    empty = verify_diagram(parse_diagram("1 - 1"), 5, window=[])
    assert empty.verdict == "Degenerate"
    assert empty.order == 1


def test_window_verification():
    diagram = parse_diagram("2 - 1 - 3 - 6")
    report = verify_diagram(diagram, 5, window=[1, 2])
    assert report.diagram == "1 - 3"
    assert report.schlafli == (6,)
    assert report.order == 12


def test_word_subgroups():
    diagram = parse_diagram("1 - 2")
    report = verify_words(diagram, 5, [[0], [1, 0, 1]])
    assert report.verdict == "StringCGroup"
    assert report.order == 4
    assert report.schlafli == (2,)
    assert report.words == ((0,), (1, 0, 1))
    bad = verify_words(diagram, 5, [[0, 1]])
    assert bad.verdict == "NotSGGI"
    assert bad.order == 4
    assert bad.schlafli is None


def test_duplicate_generator_fails_intersection():
    report = verify_words(parse_diagram("1 - 2"), 5, [[0], [1], [0]])
    assert report.verdict == "IntersectionFails"
    last = report.checks[-1]
    assert last.witness == {"rank": 3, "k": 1, "expected": 2, "measured": 8, "index": 4}


def test_report_dict_shape():
    data = verify_diagram(parse_diagram("1 - 2 - 1"), 4).to_dict()
    assert data["order"] == "32"
    assert data["schlafli"] == [4, 4]
    assert data["verdict"] == "StringCGroup"
    assert all(set(c) <= {"name", "pass", "witness"} for c in data["checks"])
    assert all(c["pass"] for c in data["checks"])


def pairwise_generator_checks(mats, modulus):
    """The generator checks one matrix product at a time, as a reference."""
    ident = np.eye(mats[0].shape[0], dtype=np.int64)
    sggi, involutions, checks = True, True, []
    for i, m in enumerate(mats):
        square_ok = np.array_equal(m @ m % modulus, ident)
        trivial = np.array_equal(m, ident)
        involutions &= square_ok
        sggi &= square_ok and not trivial
        checks.append({"name": "involution r%d" % i, "pass": square_ok and not trivial})
        if not checks[-1]["pass"]:
            checks[-1]["witness"] = {
                "generator": i, "reason": "identity" if trivial else "square is not the identity"}
    for i in range(len(mats)):
        for j in range(i + 2, len(mats)):
            ok = np.array_equal(mats[i] @ mats[j] % modulus, mats[j] @ mats[i] % modulus)
            sggi &= ok
            checks.append({"name": "commute r%d r%d" % (i, j), "pass": ok})
            if not ok:
                checks[-1]["witness"] = {"pair": [i, j]}
    return sggi, involutions, checks


@pytest.mark.parametrize("text,modulus,words", [
    ("1 - 2 - 2 - 4 - 4", 2, None),           # r_0 collapses to the identity
    ("2 - 1 - 3 - 6", 6, None),
    ("1 - 2 - 1 , 1 - 2", 4, None),
    ("1 - 2 - 1", 4, [[0, 1], [2], [1]]),      # r_0 r_1 is no involution
    ("1 - 1 - 1 - 1", 3, [[0], [1], [0, 1, 0], [3]]),  # s_0 and s_2 do not commute
])
def test_generator_checks_match_the_pairwise_reference(text, modulus, words):
    rep = ModularRep(parse_diagram(text), modulus)
    mats = rep.mats if words is None else word_matrices(rep, words)
    sggi, involutions, checks = Verifier(mats, modulus)._generator_checks
    assert (sggi, involutions, [c.to_dict() for c in checks]) == \
        pairwise_generator_checks([np.asarray(m) % modulus for m in mats], modulus)


def brute_verdict(mats, modulus, bound=400_000):
    """Definition-level oracle: intersection property over all subset pairs."""
    n = len(mats)
    dim = mats[0].shape[0]
    ident = np.eye(dim, dtype=np.int64) % modulus
    for m in mats:
        if np.array_equal(m, ident):
            return "NotSGGI"
        if not np.array_equal(m @ m % modulus, ident):
            return "NotSGGI"
    for i in range(n):
        for j in range(i + 2, n):
            if not np.array_equal(mats[i] @ mats[j] % modulus,
                                  mats[j] @ mats[i] % modulus):
                return "NotSGGI"
    cache = {}

    def elems(subset):
        if subset not in cache:
            if not subset:
                cache[subset] = {ident.tobytes()}
            else:
                gens = [mats[i] for i in subset]
                closure = enumerate_small(gens, modulus, bound=bound)
                cache[subset] = {m.tobytes() for m in closure}
        return cache[subset]

    subsets = [s for r in range(n + 1) for s in itertools.combinations(range(n), r)]
    for left in subsets:
        for right in subsets:
            meet = tuple(sorted(set(left) & set(right)))
            if len(elems(left) & elems(right)) != len(elems(meet)):
                return "IntersectionFails"
    return "StringCGroup"


BRUTE_CASES = [
    ("1 - 2 - 1", 2), ("1 - 2 - 1", 3), ("1 - 2 - 1", 4), ("1 - 2 - 1", 5),
    ("1 - 2 - 1", 6),
    ("1 - 2 - 4", 2), ("1 - 2 - 4", 3), ("1 - 2 - 4", 4), ("1 - 2 - 4", 5),
    ("2 - 1 - 2", 2), ("2 - 1 - 2", 3), ("2 - 1 - 2", 4), ("2 - 1 - 2", 5),
    ("1 - 1", 2), ("1 - 1", 3), ("1 - 1", 5),
    ("1 = 1", 2), ("1 = 1", 3), ("1 = 1", 4), ("1 = 1", 6),
    ("1 - 1 - 1", 2), ("1 - 1 - 1", 3),
    ("1 - 2 - 2 - 1", 2), ("1 - 2 - 2 - 1", 3),
    ("2 - 1 - 3 - 6", 2), ("2 - 1 - 3 - 6", 3),
    ("1 , 1", 3), ("3 - 1 - 4", 2), ("3 - 1 - 4", 4),
    # commuting cuts; the first two fail at r=3 k=1 and at r=4 k=2
    ("1 - 4 - 1 , 1", 6), ("1 , 1 - 4 - 1", 6), ("1 - 2 , 1", 2), ("1 - 2 , 1", 5),
    ("2 - 1 , 1 - 2", 4), ("1 , 1 , 1", 3),
    # its facet is Euclidean only read backwards; fails at r=4 k=1
    ("1 - 3 - 3 - 1", 4),
    # faithful segments: A_3, B_3 and F_4, whole or in part, at d = 2 too
    ("1 - 1 - 1", 4), ("1 - 1 - 2", 2), ("1 - 1 - 2", 4),
    ("1 - 1 - 2 - 2", 2), ("1 - 1 - 2 - 2", 3),
]


@pytest.mark.parametrize("text,modulus", BRUTE_CASES)
def test_verdicts_match_definition(text, modulus):
    diagram = parse_diagram(text)
    rep = ModularRep(diagram, modulus)
    report = verify_diagram(diagram, modulus)
    assert report.verdict == brute_verdict(rep.mats, modulus)


def test_word_verdict_matches_definition():
    rep = ModularRep(parse_diagram("1 - 2"), 5)
    mats = word_matrices(rep, [[0], [1], [0]])
    assert brute_verdict(mats, 5) == "IntersectionFails"


def test_end_segments_are_lifted_and_interior_ones_direct():
    # a segment group of at most 256 elements is listed; a larger segment at
    # an end of the string only gives orders and memberships, so its chain
    # acts on (Z_2)^4, while the chain of a larger shared segment of the
    # intersection checks gives coset representatives and stays direct
    v = Verifier(ModularRep(parse_diagram("3 - 3 - 1 - 1"), 4).mats, 4)
    report = v.verify()
    assert report.order == 7680 and report.ok
    # the report of the direct chains, byte for byte
    payload = json.dumps(report.to_dict(), sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == \
        "53509935049ecc19ab22ec9f2f69b490c4fd60797a54ae5a75ae4acca7054616"
    assert (0, 4) in v._chains
    for (lo, hi), group in v._chains.items():
        if group.order() <= 256:
            assert isinstance(group, Listed), (lo, hi)
        elif lo == 0 or hi == 4:
            assert group.lift == 2 and group.space.d == 2, (lo, hi)
        else:
            assert group.lift is None, (lo, hi)


def test_a_segment_past_the_list_bound_is_not_listed_again(monkeypatch):
    tried = []
    listed = polytopality.Listed

    def recording(mats, *args, **kwargs):
        tried.append(len(mats))
        return listed(mats, *args, **kwargs)

    monkeypatch.setattr(polytopality, "Listed", recording)
    v = Verifier(ModularRep(parse_diagram("1 - 1 - 1 - 1 - 1 - 1"), 3).mats, 3)
    # the closure of (0, 5) outgrows 256 elements, so it gets a chain
    assert v.segment_order(0, 5) == 720 and tried == [5]
    assert not isinstance(v.chain(0, 5), Listed)
    # (0, 6) holds (0, 5): no closure is tried
    assert v.segment_order(0, 6) == 5040 and tried == [5]
    # neither sub-segment of (1, 6) is cached yet
    assert v.segment_order(1, 6) == 720 and tried == [5, 5]
    assert isinstance(v.chain(1, 3), Listed) and v.segment_order(1, 3) == 6


def test_order_guard():
    # the guard reads segment_order, whether the group is listed or chained
    with pytest.raises(OrderGuardExceeded):
        Verifier(ModularRep(parse_diagram("2 - 1 - 2"), 6).mats, 6, order_guard=10).verify()
    mats = ModularRep(parse_diagram("1 - 2 - 1"), 4).mats
    with pytest.raises(OrderGuardExceeded, match="^order 32 exceeds guard 10$"):
        Verifier(mats, 4, order_guard=10).segment_order(0, 3)
    assert Verifier(mats, 4, order_guard=32).segment_order(0, 3) == 32


def test_order_guard_bounds_a_closure_of_non_involutions():
    # generators that are not involutions get their order from a closure,
    # under the same guard and message as segment_order
    diagram, words = parse_diagram("1 - 2 - 1"), [(0, 1), (2,)]
    with pytest.raises(OrderGuardExceeded, match="^order 16 exceeds guard 5$"):
        verify_words(diagram, 4, words, order_guard=5)
    report = verify_words(diagram, 4, words, order_guard=16)
    assert (report.verdict, report.order) == ("NotSGGI", 16)


ROOT = Path(__file__).resolve().parents[1]
# disconnected diagrams: each "," is a commuting cut
CUT_CASES = [("1 - 4 - 1 , 1", 6), ("1 , 1 - 4 - 1", 6), ("2 - 1 , 1 - 2", 4),
             ("1 - 2 - 1 , 1 - 2 - 1", 4), ("1 , 1 , 1", 3), ("1 - 1 , 2 - 2 - 1", 5)]


def sweep_diagrams(seed):
    """The benchmark sweep's diagram texts for seed, from its own generator."""
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "bench" / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep.diagrams(seed)


def test_commuting_cuts_change_no_report(monkeypatch):
    cases = [(text, d) for text in sweep_diagrams(3) if "," in text for d in range(2, 8)]
    # a word repeated right of the cut: checks across it pass, then r=5 k=3 fails
    words = (parse_diagram("1 - 2 , 1 - 2"), 5, [[2], [3], [0], [1], [0]])

    def payload():
        reports = [verify_diagram(parse_diagram(text), d) for text, d in cases]
        reports.append(verify_words(*words))
        return json.dumps([r.to_dict() for r in reports], sort_keys=True)

    with_cuts = payload()
    monkeypatch.setattr(polytopality, "_cuts", lambda mats, modulus: ())
    assert payload() == with_cuts
    assert len(cases) > 200 and '"IntersectionFails"' in with_cuts


@pytest.mark.parametrize("text,modulus", CUT_CASES)
def test_no_group_is_built_across_a_cut(text, modulus):
    diagram = parse_diagram(text)
    v = Verifier(ModularRep(diagram, modulus).mats, modulus)
    v.verify()
    assert v.cuts == tuple(part.start for part in diagram.components()[1:])
    assert not any(lo < c < hi for lo, hi in v._chains for c in v.cuts)


@pytest.mark.parametrize("text,modulus", CUT_CASES)
def test_order_across_cuts_is_the_product_of_the_components(text, modulus):
    diagram = parse_diagram(text)
    v = Verifier(ModularRep(diagram, modulus).mats, modulus)
    parts = [verify_diagram(diagram.subdiagram(part), modulus).order
             for part in diagram.components()]
    assert v.segment_order(0, diagram.rank) == math.prod(parts)


def no_spherical_segments(monkeypatch):
    """Take every segment's Coxeter group for infinite: no faithful segment
    settles a check and no chain has an order bound."""
    monkeypatch.setattr(polytopality, "coxeter_order", lambda periods: None)


def test_faithful_segments_change_no_report(monkeypatch):
    cases = [(parse_diagram(text), d) for text in sweep_diagrams(3) for d in range(2, 8)]
    # word lists: the string read backwards, and a duplicate that fails at r=3
    words = [(diagram, d, [[i] for i in reversed(range(diagram.rank))])
             for diagram, d in cases[::7]]
    words += [(parse_diagram("1 - 1 - 2"), 3, [[0], [1], [0]]),
              (parse_diagram("1 - 1 - 2 - 2"), 3, [[0], [1], [2], [3, 2, 3]])]
    calls = []
    counted = polytopality.intersection_order

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    def payload():
        reports = [verify_diagram(diagram, d) for diagram, d in cases]
        reports += [verify_words(*w) for w in words]
        return [r.to_dict() for r in reports]

    monkeypatch.setattr(polytopality, "intersection_order", counting)
    shortcut = payload()
    faithful_calls = len(calls)
    no_spherical_segments(monkeypatch)
    assert shortcut == payload()
    verdicts = {r["verdict"] for r in shortcut}
    assert len(cases) == 360 and len(words) == 54 and "IntersectionFails" in verdicts
    assert faithful_calls < len(calls) - faithful_calls


def test_a_failing_vertex_figure_check_keeps_the_report(monkeypatch):
    # the vertex-figure shortcut forced on: the layer's first computed
    # check, k = 1, fails, as it does without the shortcut
    diagram = parse_diagram("1 - 3 - 3 - 1")
    with monkeypatch.context() as m:
        no_spherical_segments(m)
        plain = verify_diagram(diagram, 4)
    assert plain.checks[-1].witness["rank"] == 4 and plain.checks[-1].witness["k"] == 1
    monkeypatch.setattr(Verifier, "_faithful", lambda self, lo, hi: lo == 1)
    forced = verify_diagram(diagram, 4)
    payload = json.dumps(forced.to_dict(), sort_keys=True)
    assert payload == json.dumps(plain.to_dict(), sort_keys=True)
    # the report before faithful segments, byte for byte
    assert hashlib.sha256(payload.encode()).hexdigest() == \
        "38992b84b7a6fcb4b1d984e781765847586b21817e0e1e1f8c51c3f8e0ecb452"
    assert forced.checks[-1].witness == {"rank": 4, "k": 1, "expected": 6, "measured": 12,
                                         "index": 2}


def test_faithful_segments_are_read_from_measured_periods():
    b3 = parse_diagram("1 - 1 - 2")
    v = Verifier(ModularRep(b3, 3).mats, 3)
    assert v.periods == (3, 4) == v.schlafli()
    assert v._faithful(0, 3) and v._faithful(1, 3)
    # B_3 mod 2 keeps its periods but not its order; its A_2 part is faithful
    v = Verifier(ModularRep(b3, 2).mats, 2)
    assert v.periods == (3, 4) and v.segment_order(0, 3) < 48
    assert not v._faithful(0, 3) and v._faithful(0, 2)
    # words give periods too: r_0, r_1, r_0 generate A_2, read as a string
    # with periods 3 and 3, whose A_3 does not fit in it
    v = Verifier(word_matrices(ModularRep(b3, 3), [[0], [1], [0]]), 3)
    assert v.periods == (3, 3) and not v._faithful(0, 3) and v._faithful(0, 2)
    # a period of 2 inside a block leaves W disconnected, and not spherical
    v = Verifier(word_matrices(ModularRep(b3, 3), [[0], [2]]), 3)
    assert v.periods == (2,) and v.cuts == () and not v._faithful(0, 2)


BIG_CHAIN = "1 - 1 - 2 - 2 - 2 - 2 - 2 - 2"


@pytest.mark.parametrize("text,modulus,chains,meets,listings", [
    # F_4 settles layers 2-4, the vertex figure B_7 one check of each later
    # layer; of six listings tried, three pass 256 elements
    (BIG_CHAIN, 4, 9, 4, 6),
    # at d = 2 the whole group A_20 is tried as a listing before its chain
    (" - ".join(["1"] * 20), 2, 1, 0, 1),
])
def test_faithful_segments_save_chains_and_intersections(text, modulus, chains, meets,
                                                         listings, monkeypatch):
    counts = {"chains": 0, "meets": 0, "listings": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(polytopality, "StabChain", counting("chains", polytopality.StabChain))
    monkeypatch.setattr(polytopality, "intersection_order",
                        counting("meets", polytopality.intersection_order))
    monkeypatch.setattr(polytopality, "Listed", counting("listings", polytopality.Listed))
    assert verify_diagram(parse_diagram(text), modulus).ok
    assert counts == {"chains": chains, "meets": meets, "listings": listings}
