import itertools

import pytest

from modpoly import engine
from modpoly.diagram import Branch, Diagram, parse_diagram
from modpoly.polytopality import verify_diagram
from modpoly.toroids import (
    _euclidean_system,
    _match,
    _spherical_system,
    quotient_criterion,
)


def test_right_infinity_label_four_refusals():
    # "1 - 4 = 4" fails to be a string C-group exactly when the modulus is
    # twice an odd base: a translation power lands in the vertex subgroup
    d = parse_diagram("1 - 4 = 4")
    for base, target in [(3, 6), (5, 10)]:
        res = quotient_criterion(d, base, target)
        assert res.case == "direct"
        assert res.verdict == "IntersectionFails"
        assert not res.ok
        cond = [c for c in res.checks if "translation intersection" in c["name"]]
        assert cond and not cond[0]["passed"]
        assert cond[0]["detail"]["witness_exponents"] is not None
    for base, target in [(3, 9), (3, 12), (4, 8), (4, 12)]:
        res = quotient_criterion(d, base, target)
        assert res.ok and res.case == "b", (base, target, res.verdict)
    # base 6 is itself the failing modulus, so nothing can be lifted from it;
    # the target is still fine and direct verification says so
    res = quotient_criterion(d, 6, 12)
    assert res.case == "direct" and res.ok
    assert res.checks[0]["passed"] is False


def test_left_infinity_label_four_never_refuses():
    d = parse_diagram("4 - 1 = 1")
    for base, target in [(3, 6), (5, 10), (4, 8), (3, 9)]:
        res = quotient_criterion(d, base, target)
        assert res.ok and res.case == "b", (base, target, res.verdict)


def test_hexagonal_rank_four_family():
    d = parse_diagram("3 - 3 - 1 - 1")
    for base, target in [(3, 6), (3, 9), (3, 12), (4, 8), (4, 12), (5, 10)]:
        res = quotient_criterion(d, base, target)
        assert res.ok and res.case == "b", (base, target, res.verdict)


def test_rank5_criterion_cases():
    # facet window is Euclidean in printed orientation, so case (b) fires
    # without needing the dual pass
    d = parse_diagram("4 - 2 - 2 - 1 - 1")
    res = quotient_criterion(d, 2, 4)
    assert res.ok and res.case == "b" and not res.dual
    res = quotient_criterion(d, 3, 6)
    assert res.ok and res.case == "b"

    d = parse_diagram("2 - 1 - 1 - 2 - 2")
    res = quotient_criterion(d, 2, 4)
    assert res.ok and res.case == "b"


def test_spherical_facet_case_a():
    # finite ambient group: the facet keeps its full order at the base, so
    # case (a) certifies every multiple
    d = parse_diagram("1 - 1 - 2")
    for base, target in [(3, 6), (3, 9), (2, 4)]:
        res = quotient_criterion(d, base, target)
        assert res.ok and res.case == "a", (base, target)


def test_base_failure_falls_back_to_direct():
    # mod 2 the right-end generators collapse, so no criterion applies and
    # the target is verified directly
    d = parse_diagram("1 - 2 - 2 - 4 - 4")
    res = quotient_criterion(d, 2, 4)
    assert res.case == "direct"
    assert res.verdict == verify_diagram(d, 4).verdict
    assert res.checks[0]["passed"] is False

    d = parse_diagram("1 - 2 - 1")
    res = quotient_criterion(d, 2, 4)
    assert res.case == "direct"
    assert res.ok
    assert res.verdict == "StringCGroup"


def test_criterion_validates_input():
    d = parse_diagram("1 - 2 - 1")
    with pytest.raises(ValueError):
        quotient_criterion(d, 4, 6)
    with pytest.raises(ValueError):
        quotient_criterion(d, 1, 4)


AGREEMENT_PAIRS = [
    ("1 - 4 = 4", 3, 6),
    ("1 - 4 = 4", 3, 9),
    ("1 - 4 = 4", 3, 12),
    ("1 - 4 = 4", 4, 8),
    ("1 - 4 = 4", 5, 10),
    ("4 - 1 = 1", 3, 6),
    ("4 - 1 = 1", 5, 10),
    ("4 - 1 = 1", 4, 8),
    ("3 - 3 - 1 - 1", 3, 6),
    ("3 - 3 - 1 - 1", 3, 9),
    ("3 - 3 - 1 - 1", 4, 8),
    ("3 - 3 - 1 - 1", 3, 12),
    ("1 - 1 - 2", 3, 6),
    ("1 - 1 - 2", 2, 4),
    ("1 - 2 - 1", 2, 4),
    ("2 - 1 - 2", 2, 4),
    ("4 - 2 - 2 - 1 - 1", 2, 4),
    ("2 - 1 - 1 - 2 - 2", 2, 4),
    # facets Euclidean only read backwards: IntersectionFails mod 4
    ("1 - 3 - 3 - 1", 2, 4),
    ("3 - 1 - 1 - 3", 2, 4),
]


@pytest.mark.parametrize("text,base,target", AGREEMENT_PAIRS)
def test_criterion_agrees_with_direct_verification(text, base, target):
    d = parse_diagram(text)
    res = quotient_criterion(d, base, target)
    direct = verify_diagram(d, target)
    assert res.ok == direct.ok, (res.verdict, direct.verdict)
    if res.case == "direct":
        assert res.verdict == direct.verdict


def test_result_dict():
    res = quotient_criterion(parse_diagram("3 - 3 - 1 - 1"), 3, 6)
    d = res.to_dict()
    assert d["verdict"] == "StringCGroup-by-criterion"
    assert d["case"] == "b"
    assert d["base_modulus"] == 3 and d["modulus"] == 6
    assert all(isinstance(c["name"], str) for c in d["checks"])


@pytest.mark.parametrize("base,target", [(2, 2), (2, 4), (3, 3), (3, 6)])
def test_rank_one_falls_through_to_direct_verification(base, target):
    # the facet window of a rank-1 diagram is empty, so only the direct
    # verification can decide
    d = parse_diagram("1")
    res = quotient_criterion(d, base, target)
    direct = verify_diagram(d, target)
    assert res.case == "direct"
    assert res.verdict == direct.verdict
    assert res.ok == direct.ok
    assert [c["name"] for c in res.checks] == [
        "base modulus %d gives a string C-group" % base,
        "direct verification mod %d" % target,
    ]


def test_dual_facet_case_a():
    # "1 , 1" matches nothing; the flip's facet "1 - 1" is A_2 at full order
    res = quotient_criterion(parse_diagram("1 , 1 - 1"), 3, 6)
    assert res.ok and res.case == "a" and res.dual
    assert res.checks[1] == {
        "name": "facet subgroup matches no spherical or Euclidean system",
        "passed": False, "detail": {}}
    assert res.checks[-1]["name"] == "dual facet subgroup is spherical with full order mod 3"
    assert res.checks[-1]["detail"] == {"pattern": "A", "char0_order": 6, "reduced_order": 6}


def test_dual_point_group_case_b():
    # the flip's facet "1 = 1" is Euclidean with point group A_1
    res = quotient_criterion(parse_diagram("1 , 1 = 1"), 3, 6)
    assert res.ok and res.case == "b" and res.dual
    point, cond = res.checks[-2:]
    assert point["name"] == "dual point group is spherical with full order mod 3"
    assert point["detail"] == {"pattern": "A", "char0_order": 2, "reduced_order": 2}
    assert cond["name"] == "dual translation intersection trivial mod 6"
    assert cond["passed"] and cond["detail"]["trivial"]
    assert cond["detail"]["t_order"] == 3 and cond["detail"]["subgroup_order"] == 4


def test_backward_euclidean_facet_goes_to_the_dual_pass():
    # the printed facet "1 - 4" is Euclidean only read backwards, where its
    # special node is the last one, so case (b) waits for the dual facet
    res = quotient_criterion(parse_diagram("1 - 4 = 4"), 3, 9)
    assert res.ok and res.case == "b" and res.dual
    assert res.checks[1] == {
        "name": "facet subgroup is Euclidean only with its special node last",
        "passed": False, "detail": {}}
    assert res.checks[-1]["name"] == "dual translation intersection trivial mod 9"


def test_printed_euclidean_point_groups_are_spherical():
    # case (b) reads the point group <r_1 .. r_{n-2}> of a facet that is
    # Euclidean in its printed frame as a spherical system
    seen = set()
    for rank in range(2, 7):
        for labels in itertools.product((1, 2, 3, 4), repeat=rank):
            for branch in ((Branch.SINGLE, Branch.DOUBLE) if rank == 2 else (Branch.SINGLE,)):
                try:
                    d = Diagram(labels, (branch,) * (rank - 1))
                except ValueError:      # labels that cannot flank this branch
                    continue
                system = _euclidean_system(d, tuple(range(rank)))
                if system is not None:
                    seen.add(system)
                    assert _match(d, tuple(range(1, rank)), _spherical_system), d.render()
    assert seen == {"P%d" % i for i in range(1, 10)}


def _small_diagrams():
    """Every valid rank-3 and rank-4 diagram with labels 1-4 and branches
    "-" or "=", one per flip pair."""
    seen = {}
    for rank in (3, 4):
        for labels in itertools.product("1234", repeat=rank):
            for branches in itertools.product("-=", repeat=rank - 1):
                text = labels[0] + "".join(" %s %s" % bl for bl in zip(branches, labels[1:]))
                try:
                    d = parse_diagram(text)
                except ValueError:
                    continue
                seen.setdefault(min(d.render(), d.flip().render()), d)
    return list(seen.values())


@pytest.mark.long
def test_every_certificate_agrees_with_direct_verification():
    diagrams = _small_diagrams()
    assert len(diagrams) == 140
    cases = {"a": 0, "b": 0, "direct": 0}
    for d in diagrams:
        for base, target in [(2, 4), (2, 6), (3, 6), (3, 9), (4, 8)]:
            res = quotient_criterion(d, base, target)
            cases[res.case] += 1
            if res.case != "direct":
                assert verify_diagram(d, target).ok, (d.render(), base, target, res.case)
    assert cases == {"a": 160, "b": 76, "direct": 464}


@pytest.mark.parametrize("call,most", [
    (lambda: quotient_criterion(parse_diagram("2 - 1 - 1"), 3, 6), 6),
    (lambda: quotient_criterion(parse_diagram("1 , 1 = 1"), 3, 6), 7),
], ids=["case-a", "dual-case-b"])
def test_window_orders_reuse_the_verifier_chains(monkeypatch, call, most):
    # window and facet orders come from the chains the verdict already built
    builds = []
    init = engine.StabChain.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(engine.StabChain, "__init__", counting)
    call()
    assert len(builds) <= most
