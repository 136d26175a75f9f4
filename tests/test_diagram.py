import itertools
import math

import pytest
from hypothesis import given, strategies as st

from modpoly.diagram import (Branch, Diagram, ParseError, coxeter_order, parse_diagram,
                             parse_file)
from modpoly.engine import enumerate_small
from modpoly.matrep import ModularRep, gram_matrix


def strings(rank, kinds, labels):
    """Every valid diagram of this rank with these branch kinds and labels."""
    bonds = []
    for a, kind, b in itertools.product(labels, map(Branch, kinds), labels):
        try:
            Diagram((a, b), (kind,))
        except ValueError:
            continue
        bonds.append((a, kind, b))
    rows = [((a,), ()) for a in labels]
    for _ in range(rank - 1):
        rows = [(ls + (b,), bs + (kind,)) for ls, bs in rows
                for a, kind, b in bonds if a == ls[-1]]
    return [Diagram(ls, bs) for ls, bs in rows]


def test_parse_basic():
    d = parse_diagram("1 - 2 = 2 , 3")
    # the isolated component normalizes to label 1
    assert d.labels == (1, 2, 2, 1)
    assert d.branches == (Branch.SINGLE, Branch.DOUBLE, Branch.NONE)


def test_whitespace_insignificant():
    assert parse_diagram("1-2=2,3") == parse_diagram("  1 -  2=2 ,3 ")


def test_render_round_trip():
    for text in ["1", "1 - 2", "2 - 1 - 2", "1 - 1 - 3", "1 = 1", "1 , 1 - 4"]:
        d = parse_diagram(text)
        assert parse_diagram(d.render()) == d
        assert d.render() == text


def test_normalization_per_component():
    assert parse_diagram("2 - 2").labels == (1, 1)
    assert parse_diagram("2 - 4 , 6 = 6").labels == (1, 2, 1, 1)
    assert parse_diagram("3 - 3 , 5").labels == (1, 1, 1)
    # connected labels keep their ratio
    assert parse_diagram("2 - 4").labels == (1, 2)


def test_rank_one_and_disconnected():
    assert parse_diagram("7").labels == (1,)
    d = parse_diagram("1 , 1 , 1")
    assert [list(c) for c in d.components()] == [[0], [1], [2]]


def test_invalid_ratio():
    with pytest.raises(ParseError):
        parse_diagram("1 - 5")
    with pytest.raises(ParseError):
        parse_diagram("2 - 3")  # 3/2 is not integral


def test_double_needs_equal_labels():
    with pytest.raises(ParseError):
        parse_diagram("1 = 2")


@pytest.mark.parametrize("text,message,position", [
    ("1 - 5", "single branch needs label ratio 1, 2, 3 or 4 (1 - 5)", 2),
    ("1 - 2 - 3", "single branch needs label ratio 1, 2, 3 or 4 (2 - 3)", 6),
    ("1 = 2", "double branch requires equal labels (1 = 2)", 2),
])
def test_branch_errors_name_the_labels_and_the_branch_position(text, message, position):
    with pytest.raises(ParseError) as err:
        parse_diagram(text)
    assert str(err.value) == "%s (at position %d)" % (message, position)
    assert err.value.position == position


@pytest.mark.parametrize("labels,branch", [
    ((2, 3), Branch.SINGLE),     # 3/2 is not integral
    ((1, 5), Branch.SINGLE),     # ratio 5
    ((1, 2), Branch.DOUBLE),     # unequal labels
    ((0, 1), Branch.SINGLE),
])
def test_diagram_rejects_bonds_its_labels_cannot_form(labels, branch):
    with pytest.raises(ValueError):
        Diagram(labels, (branch,))


def test_dangling_and_empty():
    with pytest.raises(ParseError):
        parse_diagram("1 -")
    with pytest.raises(ParseError):
        parse_diagram("")
    with pytest.raises(ParseError):
        parse_diagram("- 1")


def test_bad_character_position():
    with pytest.raises(ParseError) as err:
        parse_diagram("1 - x")
    assert err.value.position == 4


def test_zero_label_rejected():
    with pytest.raises(ParseError):
        parse_diagram("0 - 1")


def test_branch_periods():
    assert parse_diagram("1 - 1").branch_periods() == (3,)
    assert parse_diagram("1 - 2").branch_periods() == (4,)
    assert parse_diagram("1 - 3").branch_periods() == (6,)
    assert parse_diagram("1 - 4").branch_periods() == (0,)
    assert parse_diagram("1 = 1").branch_periods() == (0,)
    assert parse_diagram("1 , 1").branch_periods() == (2,)


@pytest.mark.parametrize("periods,order", [
    ((), 2), ((3,), 6), ((4,), 8), ((6,), 12),
    ((3, 3, 3), 120), ((4, 3, 3), 384), ((3, 3, 4), 384), ((3, 4, 3), 1152),
    ((4, 3, 3, 3), 3840),
    ((0,), None), ((2,), None), ((3, 2, 3), None), ((4, 4), None), ((3, 6), None),
    ((4, 3, 4), None), ((3, 3, 4, 3), None), ((3, 4, 3, 3), None),
])
def test_coxeter_order(periods, order):
    assert coxeter_order(periods) == order


def _positive_definite(gram):
    """Sylvester's criterion: every pivot of elimination without swaps is positive."""
    g = [row[:] for row in gram]
    for i in range(len(g)):
        if g[i][i] <= 0:
            return False
        for r in range(i + 1, len(g)):
            f = g[r][i] / g[i][i]
            g[r] = [x - f * y for x, y in zip(g[r], g[i])]
    return True


def test_coxeter_order_matches_the_measured_order_mod_5():
    # W is finite exactly when its Gram form is positive definite, and a
    # finite W reduces faithfully mod d >= 3
    connected = [d for rank in range(1, 6) for d in strings(rank, "-=", (1, 2, 3, 4))
                 if math.gcd(*d.labels) == 1]
    assert len(connected) == 1227
    finite = 0
    for d in connected:
        order = coxeter_order(d.branch_periods())
        assert (order is not None) == _positive_definite(gram_matrix(d)), d.render()
        if order is not None:
            finite += 1
            assert len(enumerate_small(ModularRep(d, 5).mats, 5)) == order, d.render()
    assert finite == 23


def test_cartan_pairs_smaller_label_gets_larger_integer():
    assert parse_diagram("1 - 2").cartan_pairs() == ((2, 1),)
    assert parse_diagram("2 - 1").cartan_pairs() == ((1, 2),)
    assert parse_diagram("1 - 4").cartan_pairs() == ((4, 1),)
    assert parse_diagram("1 - 1").cartan_pairs() == ((1, 1),)
    assert parse_diagram("1 = 1").cartan_pairs() == ((2, 2),)
    assert parse_diagram("1 , 1").cartan_pairs() == ((0, 0),)


def test_cartan_matrix():
    d = parse_diagram("1 - 2 - 4")
    assert d.cartan_matrix() == (
        (-2, 2, 0),
        (1, -2, 2),
        (0, 1, -2),
    )


def test_node_parity():
    d = parse_diagram("1 - 1")
    assert d.node_parity(0) == "oe"
    assert d.node_parity(1) == "oe"
    d = parse_diagram("2 - 1 - 2")
    assert d.node_parity(0) == "oe"
    assert d.node_parity(1) == "ee"
    assert parse_diagram("1").node_parity(0) == "ee"
    d = parse_diagram("1 - 1 - 1")
    assert d.node_parity(1) == "oo"


def test_flip():
    d = parse_diagram("1 - 2 = 2 , 3")
    assert d.flip().render() == "1 , 2 = 2 - 1"
    assert d.flip().flip() == d


def test_subdiagram():
    d = parse_diagram("2 - 1 - 3 - 6")
    assert d.subdiagram(range(1, 3)).labels == (1, 3)
    with pytest.raises(ValueError):
        d.subdiagram([0, 2])


def test_side_integers_end_convention():
    d = parse_diagram("1 - 2")
    assert d.side_integers(0) == (0, 2)
    assert d.side_integers(1) == (1, 0)


def test_parse_file():
    text = "# header\n1 - 2\n\n2 - 1 - 2  # square tiling\n"
    out = parse_file(text)
    assert [d.render() for d in out] == ["1 - 2", "2 - 1 - 2"]


def test_parse_file_error_carries_line():
    with pytest.raises(ParseError) as err:
        parse_file("1 - 2\n1 = 3\n")
    assert "line 2" in str(err.value)


_labels = st.integers(min_value=1, max_value=12)


@st.composite
def _diagrams(draw):
    rank = draw(st.integers(min_value=1, max_value=6))
    labels = [draw(_labels)]
    branches = []
    for _ in range(rank - 1):
        kind = draw(st.sampled_from(list(Branch)))
        if kind is Branch.DOUBLE:
            labels.append(labels[-1])
        elif kind is Branch.SINGLE:
            ratio = draw(st.sampled_from([1, 2, 3, 4]))
            up = draw(st.booleans())
            labels.append(labels[-1] * ratio if up else labels[-1])
            if not up and labels[-1] % ratio == 0:
                labels[-1] //= ratio
        else:
            labels.append(draw(_labels))
        branches.append(kind)
    return Diagram(tuple(labels), tuple(branches))


@given(_diagrams())
def test_round_trip_property(d):
    parsed = parse_diagram(d.render())
    assert parsed.branches == d.branches
    # parse normalizes; normalizing again is a fixed point
    assert parse_diagram(parsed.render()) == parsed
