from fractions import Fraction

import numpy as np
import pytest

from modpoly.diagram import parse_diagram
from modpoly.matrep import (
    ModularRep,
    embed_window_vector,
    gram_matrix,
    radical_vector,
    reduce_mod,
    reflection_matrices,
)

SAMPLES = ["1", "1 - 1", "1 - 2", "1 - 3", "1 - 4", "1 = 1", "1 , 1",
           "2 - 1 - 2", "1 - 2 - 1", "1 - 1 - 3", "3 - 3 - 1 - 1",
           "2 - 1 - 3 - 6", "1 - 1 - 1 - 2 - 2"]


def test_generators_are_integer_involutions():
    for text in SAMPLES:
        d = parse_diagram(text)
        n = d.rank
        for r in reflection_matrices(d):
            assert r.dtype == np.int64
            assert np.array_equal(r @ r, np.eye(n, dtype=np.int64))


def test_braid_periods_over_z():
    cases = {"1 - 1": 3, "1 - 2": 4, "1 - 3": 6, "1 , 1": 2}
    for text, period in cases.items():
        d = parse_diagram(text)
        r0, r1 = reflection_matrices(d)
        prod = r0 @ r1
        power = np.eye(2, dtype=np.int64)
        for k in range(1, period + 1):
            power = power @ prod
        assert np.array_equal(power, np.eye(2, dtype=np.int64))
        # and no smaller power is trivial
        power = np.eye(2, dtype=np.int64)
        for k in range(1, period):
            power = power @ prod
            assert not np.array_equal(power, np.eye(2, dtype=np.int64))


def test_infinite_branches_have_unipotent_products():
    for text in ["1 - 4", "1 = 1"]:
        d = parse_diagram(text)
        r0, r1 = reflection_matrices(d)
        prod = r0 @ r1
        power = np.eye(2, dtype=np.int64)
        for _ in range(64):
            power = power @ prod
            assert not np.array_equal(power, np.eye(2, dtype=np.int64))


def test_reflection_matrix_shape():
    d = parse_diagram("1 - 4")
    r0, r1 = reflection_matrices(d)
    assert r0.tolist() == [[-1, 4], [0, 1]]
    assert r1.tolist() == [[1, 0], [1, -1]]


def test_reduce_mod_range_and_functoriality():
    d = parse_diagram("2 - 1 - 3 - 6")
    mats = reflection_matrices(d)
    for modulus in [2, 3, 4, 5, 6, 12]:
        reduced = reduce_mod(mats, modulus)
        for m in reduced:
            assert m.min() >= 0 and m.max() < modulus
        # reduction commutes with multiplication
        for a, b in zip(mats, mats[1:]):
            ra, rb = reduce_mod([a, b], modulus)
            assert np.array_equal((a @ b) % modulus, ra @ rb % modulus)
    # the residues are int64: a modulus from 2^63 on is refused, not overflowed
    assert reduce_mod(mats, 2 ** 63 - 1)[0][0, 0] == 2 ** 63 - 2
    for modulus in (2 ** 63, 10 ** 20):
        with pytest.raises(ValueError):
            reduce_mod(mats, modulus)


def test_modular_rep_select():
    d = parse_diagram("2 - 1 - 2")
    rep = ModularRep(d, 4)
    assert rep.rank == 3
    assert len(rep.select([1, 2])) == 2
    assert np.array_equal(rep.select([0])[0], rep.mats[0])


def test_gram_is_preserved_by_generators():
    for text in SAMPLES:
        d = parse_diagram(text)
        n = d.rank
        g = gram_matrix(d)
        assert all(isinstance(x, Fraction) for row in g for x in row)
        assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
        assert [g[i][i] for i in range(n)] == list(d.labels)
        for r in reflection_matrices(d):
            r = r.tolist()
            rt_g_r = [[sum(r[k][i] * g[k][l] * r[l][j]
                           for k in range(n) for l in range(n))
                       for j in range(n)] for i in range(n)]
            assert rt_g_r == g


def test_radical_vectors():
    cases = {
        "2 - 1 - 2": (1, 2, 1),
        "1 - 2 - 1": (1, 1, 1),
        "4 - 2 - 1": (1, 2, 2),
        "1 - 1 - 3": (1, 2, 1),
        "3 - 3 - 1": (1, 2, 3),
        "1 = 1": (1, 1),
        "4 - 1": (1, 2),
        "1 - 4": (2, 1),
        "1 - 1 - 1 - 2 - 2": (1, 2, 3, 2, 1),
        "2 - 2 - 2 - 1 - 1": (1, 2, 3, 4, 2),
    }
    for text, expected in cases.items():
        d = parse_diagram(text)
        c = radical_vector(d)
        assert c == expected, text
        # the radical is fixed by every generator
        amb = embed_window_vector(c, range(d.rank), d.rank)
        for r in reflection_matrices(d):
            assert np.array_equal(r @ amb, amb)


def test_radical_vector_window():
    d = parse_diagram("1 - 2 - 1 - 3")
    assert radical_vector(d, range(0, 3)) == (1, 1, 1)


def test_radical_requires_corank_one():
    with pytest.raises(ValueError):
        radical_vector(parse_diagram("1 - 1"))


def test_radical_vector_refuses_a_window_that_leaves_the_diagram():
    # nodes 2..4 of a rank-4 diagram: the window is refused, not read as
    # the "1 - 1" of nodes 2 and 3, whose radical is 0-dimensional
    with pytest.raises(ValueError, match="run of the diagram's nodes"):
        radical_vector(parse_diagram("1 - 2 - 1 - 1"), [2, 3, 4])
    with pytest.raises(ValueError, match="run of the diagram's nodes"):
        radical_vector(parse_diagram("1 - 2 - 1"), [])


def test_embed_window_vector():
    v = embed_window_vector((1, 2, 1), [1, 2, 3], 5)
    assert v.tolist() == [0, 1, 2, 1, 0]
