import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

import modpoly.engine as engine
import modpoly.toroids as toroids
from modpoly.diagram import Branch, ParseError, coxeter_order, parse_diagram
from modpoly.engine import BoundExceeded, element_period, enumerate_small
from modpoly.matrep import (
    _row_hnf,
    embed_window_vector,
    radical_vector,
    reduce_mod,
    reflection_matrices,
)
from modpoly.polytopality import verify_diagram
from modpoly.toroids import (
    _index_in,
    _kernel_data,
    _translation_meet,
    _translation_period,
    classify,
    classify_euclidean,
    classify_spherical,
    predicted_type_vector,
    quotient_criterion,
    translation_generators,
    type_vector,
)
from test_diagram import strings

# One witness embedding per Euclidean prediction row.  Windows are chosen so
# the end-node parity classes (which see the ambient diagram) hit each row.
EUCLIDEAN_FIXTURES = [
    ("2 - 1 - 2", (0, 1, 2)),              # P1 m even: odd / even-meven rows
    ("2 - 1 - 1 - 2", (0, 1, 2, 3)),       # P1 m odd, both ends oe
    ("2 - 2 - 1 - 1 - 2", (1, 2, 3, 4)),   # P1 m odd, one end oo
    ("2 - 2 - 1 - 1 - 2 - 2", (1, 2, 3, 4)),   # P1 m odd, both ends oo (s=2 row)
    ("1 - 2 - 1", (0, 1, 2)),              # P2 both ends ee
    ("1 - 2 - 2 - 1", (0, 1, 2, 3)),       # P2 at m=3
    ("1 - 1 - 2 - 1", (1, 2, 3)),          # P2 one end oe
    ("1 - 1 - 2 - 1 - 1", (1, 2, 3)),      # P2 both ends oe (s=2 row)
    ("4 - 2 - 1", (0, 1, 2)),              # P3 end ee
    ("4 - 2 - 2 - 1", (0, 1, 2, 3)),       # P3 end ee, m=3
    ("4 - 2 - 1 - 1", (0, 1, 2)),          # P3 end oe
    ("4 - 2 - 2 - 1 - 1", (0, 1, 2, 3)),   # P3 end oe, m=3
    ("1 - 1 - 1 - 2 - 2", (0, 1, 2, 3, 4)),        # P4 j-node oe
    ("1 - 1 - 1 - 1 - 2 - 2", (1, 2, 3, 4, 5)),    # P4 j-node oo
    ("2 - 2 - 2 - 1 - 1", (0, 1, 2, 3, 4)),        # P5
    ("1 - 1 - 3", (0, 1, 2)),              # P6 terminal: left integer 0
    ("1 - 1 - 1 - 3", (1, 2, 3)),          # P6 left integer 1
    ("2 - 1 - 1 - 3", (1, 2, 3)),          # P6 left integer 2
    ("3 - 3 - 1", (0, 1, 2)),              # P7
    ("1 = 1", (0, 1)),                     # P8 both ends ee
    ("1 - 1 = 1", (1, 2)),                 # P8 one end oe
    ("1 - 1 = 1 - 1", (1, 2)),             # P8 both ends oe (s=2 row)
    ("4 - 1", (0, 1)),                     # P9 a-node ee
    ("4 - 1 - 1", (0, 1)),                 # P9 a-node oe
]

ALL_ROW_IDS = {
    "P1:odd", "P1:even-modd-some-oo", "P1:even-modd-both-oe", "P1:even-meven",
    "P1:s2-both-oo",
    "P2:odd", "P2:even-some-oe", "P2:even-both-ee", "P2:s2-both-oe",
    "P3:odd", "P3:even-end-ee", "P3:even-end-oe",
    "P4:odd", "P4:even-j-oo", "P4:even-j-oe",
    "P5:any",
    "P6:s-not-div-3", "P6:s-div3-m-pm1", "P6:s-div3-m-0",
    "P7:any",
    "P8:odd", "P8:even-some-oe", "P8:even-both-ee", "P8:s2-both-oe",
    "P9:odd", "P9:even-a-ee", "P9:even-a-oe",
}


def flipped(text, window):
    d = parse_diagram(text)
    return d.flip(), tuple(d.rank - 1 - i for i in reversed(window))


def radical_ambient(tsub):
    """The radical vector c of the window, placed in the frame's coordinates."""
    return embed_window_vector(radical_vector(tsub.frame_diagram, tsub.frame_window),
                               tsub.frame_window, tsub.frame_diagram.rank)


def test_generator_construction():
    for text, window in EUCLIDEAN_FIXTURES:
        tsub = translation_generators(parse_diagram(text), window)
        eye = np.eye(tsub.frame_diagram.rank, dtype=np.int64)
        assert len(tsub.mats) == len(window) - 1
        assert radical_ambient(tsub)[tsub.frame_window[0]] == 1
        for t in tsub.mats:
            assert not np.linalg.matrix_power(t - eye, 3).any()
        for a in tsub.mats:
            for b in tsub.mats:
                assert np.array_equal(a @ b, b @ a)


@pytest.mark.parametrize("text,window", EUCLIDEAN_FIXTURES)
def test_measured_equals_predicted(text, window):
    diagram = parse_diagram(text)
    tsub = translation_generators(diagram, window)
    seen = set()
    for s in range(2, 13):
        row_id, q = predicted_type_vector(diagram, window, s)
        if row_id is None:
            continue
        tv = type_vector(tsub, s)
        assert tv is not None, (text, window, s, row_id)
        assert tv == q, (text, window, s, row_id, tv)
        seen.add(row_id)
    assert seen


def test_every_row_witnessed():
    seen = set()
    for text, window in EUCLIDEAN_FIXTURES:
        diagram = parse_diagram(text)
        for s in range(2, 13):
            row_id, _ = predicted_type_vector(diagram, window, s)
            if row_id is not None:
                seen.add(row_id)
    assert seen == ALL_ROW_IDS


@pytest.mark.parametrize("text,window", EUCLIDEAN_FIXTURES)
def test_flipped_window_agrees(text, window):
    diagram = parse_diagram(text)
    fd, fw = flipped(text, window)
    tsub = translation_generators(fd, fw)
    for s in (2, 3, 4, 6, 9, 12):
        assert (predicted_type_vector(fd, fw, s)
                == predicted_type_vector(diagram, window, s))
        row_id, q = predicted_type_vector(fd, fw, s)
        if row_id is None:
            continue
        tv = type_vector(tsub, s)
        assert tv == q, (text, window, s)


KNOWN_VECTORS = [
    ("1 = 1", (0, 1), 3, (3,), 3),
    ("1 = 1", (0, 1), 4, (2,), 2),
    ("4 - 1", (0, 1), 4, (4,), 4),
    ("4 - 1 - 1", (0, 1), 4, (8,), 8),
    ("1 - 2 - 1", (0, 1, 2), 4, (2, 0), 4),
    ("2 - 1 - 2", (0, 1, 2), 4, (2, 2), 8),
    ("4 - 2 - 1", (0, 1, 2), 4, (4, 0), 16),
    ("4 - 2 - 1 - 1", (0, 1, 2), 2, (2, 2), 8),
    ("4 - 2 - 1 - 1", (0, 1, 2), 3, (3, 0), 9),
    ("4 - 2 - 1 - 1", (0, 1, 2), 6, (6, 6), 72),
    ("1 - 1 - 3", (0, 1, 2), 3, (1, 1), 3),
    ("1 - 1 - 3", (0, 1, 2), 6, (2, 2), 12),
    ("1 - 1 - 3", (0, 1, 2), 4, (4, 0), 16),
    ("1 - 1 - 1 - 3", (1, 2, 3), 3, (3, 0), 9),
    ("3 - 3 - 1", (0, 1, 2), 5, (5, 0), 25),
    ("1 - 1 - 1 - 2 - 2", (0, 1, 2, 3, 4), 3, (3, 0, 0, 0), 81),
    ("1 - 1 - 1 - 2 - 2", (0, 1, 2, 3, 4), 4, (2, 2, 0, 0), 64),
    ("2 - 2 - 2 - 1 - 1", (0, 1, 2, 3, 4), 3, (3, 0, 0, 0), 81),
    ("2 - 2 - 2 - 1 - 1", (0, 1, 2, 3, 4), 4, (4, 0, 0, 0), 256),
]


@pytest.mark.parametrize("text,window,s,vector,order", KNOWN_VECTORS)
def test_known_type_vectors(text, window, s, vector, order):
    tsub = translation_generators(parse_diagram(text), window)
    assert type_vector(tsub, s) == vector
    assert _kernel_data(tsub, s)[3] == order
    assert all((2 * s) % _translation_period(t, s) == 0 for t in tsub.mats)


def brute_transvection_count(els, tsub, s):
    n = tsub.frame_diagram.rank
    fwin = tsub.frame_window
    if tsub.flipped:
        els = np.ascontiguousarray(els[:, ::-1, ::-1])
    diff = (els - np.eye(n, dtype=np.int64)) % s
    cols = diff[:, :, list(fwin)]
    w = cols[:, fwin[0], :]
    want = np.einsum("i,ej->eij", radical_ambient(tsub), w) % s
    return int((cols == want).all(axis=(1, 2)).sum())


def test_brute_transvection_oracle():
    # filtering E^s for transvections recovers T^s up to the point-group
    # elements that act trivially on the window span modulo its radical; only
    # the mod-2 image of a central -e does that, so for s >= 3 the filter
    # count equals |T^s| exactly
    for text, window in EUCLIDEAN_FIXTURES:
        if len(window) - 1 > 3:
            continue
        diagram = parse_diagram(text)
        tsub = translation_generators(diagram, window)
        refl = reflection_matrices(diagram)
        point = window[:-1] if tsub.flipped else window[1:]
        for s in range(2, 7):
            e_els = enumerate_small(reduce_mod([refl[i] for i in window], s),
                                    s, bound=50_000)
            h_els = enumerate_small(reduce_mod([refl[i] for i in point], s),
                                    s, bound=50_000)
            count = brute_transvection_count(e_els, tsub, s)
            h_count = brute_transvection_count(h_els, tsub, s)
            order_t = _kernel_data(tsub, s)[3]
            assert count == order_t * h_count, (text, window, s, count, order_t)
            assert e_els.shape[0] == order_t * h_els.shape[0]
            if s >= 3:
                assert h_count == 1, (text, window, s, h_count)


@pytest.mark.parametrize("text,window,s,orders", [
    ("4 - 2 - 1 - 1", (0, 1, 2), 3, (72, 9, 8)),
    ("4 - 2 - 1 - 1", (0, 1, 2), 2, (64, 8, 8)),
    ("4 - 2 - 1 - 1", (0, 1, 2), 4, (256, 32, 8)),
    ("3 - 3 - 1", (0, 1, 2), 4, (192, 16, 12)),
    ("1 - 1 - 1 - 2 - 2", (0, 1, 2, 3, 4), 3, (93312, 81, 1152)),
    ("1 - 1 - 1 - 2 - 2", (0, 1, 2, 3, 4), 4, (73728, 64, 1152)),
    ("1 = 1", (0, 1), 4, (4, 2, 2)),
])
def test_splitting_product(text, window, s, orders):
    # E^s = T^s . H^s, where H^s is the point group: the window without its
    # special node, which is its last node when the window matches flipped
    diagram = parse_diagram(text)
    tsub = translation_generators(diagram, window)
    whole = verify_diagram(diagram, s, window=window)
    point = window[:-1] if tsub.flipped else window[1:]
    kernel = _kernel_data(tsub, s)
    got = (whole.order, kernel[3], verify_diagram(diagram, s, window=point).order)
    assert got == orders
    assert got[0] == got[1] * got[2]
    # T^s meets the group of the nodes after the special node trivially
    meet = _translation_meet(tsub, s, tsub.frame_window[0] + 1, tsub.frame_diagram.rank, kernel)
    assert meet["trivial"]
    if (text, s) == ("4 - 2 - 1 - 1", 3):
        assert whole.ok


def test_the_exponent_box_is_bounded_before_it_is_formed(monkeypatch):
    # T^4 of this window has periods (8, 8): a box of 64 exponent vectors
    diagram, window = parse_diagram("4 - 2 - 1 - 1"), (0, 1, 2)
    tsub = translation_generators(diagram, window)
    monkeypatch.setattr(toroids, "_BOX_BOUND", 63)
    with pytest.raises(BoundExceeded, match="^exponent box 8 x 8 exceeds bound 63$"):
        _kernel_data(tsub, 4)
    with pytest.raises(BoundExceeded):
        classify(diagram, 4)
    monkeypatch.setattr(toroids, "_BOX_BOUND", 64)
    assert _kernel_data(tsub, 4)[3] == 32


def test_the_exponent_box_is_bounded_before_any_power_is_taken(monkeypatch):
    # the periods come in closed form, so no period of 5,000,001 steps is
    # found by repeated products before the box is checked
    tsub = translation_generators(parse_diagram("1 = 1"), (0, 1))

    def no_period(*args, **kwargs):
        raise AssertionError("element_period called")

    # toroids holds no name of its own for it, so the patch covers every call
    assert not hasattr(toroids, "element_period")
    monkeypatch.setattr(engine, "element_period", no_period)
    with pytest.raises(BoundExceeded, match="^exponent box 5000001 exceeds bound 4194304$"):
        _kernel_data(tsub, 5000001)


def test_the_period_floor_bounds_every_period():
    # the box guard reads the floors before 2s is factored, so a floor above
    # a period would refuse a box that fits
    for text, window in EUCLIDEAN_FIXTURES:
        for t in translation_generators(parse_diagram(text), window).mats:
            for s in range(2, 61):
                floor = toroids._period_floor(t, s)
                assert 1 <= floor <= toroids._translation_period(t, s), (text, window, s)


def test_the_exponent_box_is_bounded_before_2s_is_factored(monkeypatch):
    # trial division of 2s takes seconds at a prime s near 10^16
    tsub = translation_generators(parse_diagram("1 = 1"), (0, 1))

    def no_factoring(*args, **kwargs):
        raise AssertionError("prime_factors called")

    monkeypatch.setattr(toroids, "prime_factors", no_factoring)
    with pytest.raises(BoundExceeded,
                       match="^exponent box of at least 100000001 exceeds bound 4194304$"):
        _kernel_data(tsub, 10 ** 16 + 61)


# Spherical fixtures: (text, window, {modulus range: (row id, order, collapsed)}).
SPHERICAL_FIXTURES = [
    ("1 - 1 - 1", (0, 1, 2), ("A:any", 24, False), ("A:any", 24, False)),
    ("1 = 1", (0,), ("A:any", 2, False), ("A1:s2-ee", 1, True)),
    ("1 - 1 = 1", (1,), ("A:any", 2, False), ("A:any", 2, False)),
    ("1 - 2", (0, 1), ("I2:s3", 8, False), ("I2:s2-one-ee", 2, True)),
    ("1 - 3", (0, 1), ("I2:s3", 12, False), ("I2:s2", 6, False)),
    ("1 - 1 - 2", (1, 2), ("I2:s3", 8, False), ("I2:s2", 8, False)),
    ("1 - 2 - 2", (0, 1, 2), ("Bsys1:s3", 48, False), ("Bsys1:s2-ee", 6, True)),
    ("1 - 1 - 2 - 2", (1, 2, 3), ("Bsys1:s3", 48, False), ("Bsys1:s2-oe", 48, False)),
    ("2 - 1 - 1", (0, 1, 2), ("Bsys2:s3", 48, False), ("Bsys2:s2-oe-oe", 24, False)),
    ("2 - 1 - 1 - 1", (0, 1, 2, 3), ("Bsys2:s3", 384, False), ("Bsys2:s2-oe-oe", 192, False)),
    ("2 - 2 - 1 - 1", (1, 2, 3), ("Bsys2:s3", 48, False), ("Bsys2:s2-oo-oe", 48, False)),
    ("2 - 2 - 1 - 1 - 1", (1, 2, 3, 4), ("Bsys2:s3", 384, False), ("Bsys2:s2-oo-oe", 192, False)),
    ("2 - 2 - 1 - 1 - 1", (1, 2, 3), ("Bsys2:s3", 48, False), ("Bsys2:s2-oo-oo", 48, False)),
    ("2 - 1 - 1 - 1", (0, 1, 2), ("Bsys2:s3", 48, False), ("Bsys2:s2-oe-oo", 48, False)),
    ("1 - 1 - 2 - 2", (0, 1, 2, 3), ("F4:s3", 1152, False), ("F4:s2", 576, False)),
    ("2 - 2 - 1 - 1", (0, 1, 2, 3), ("F4:s3", 1152, False), ("F4:s2", 576, False)),
]


@pytest.mark.parametrize("text,window,at3,at2", SPHERICAL_FIXTURES)
def test_spherical_rows(text, window, at3, at2):
    diagram = parse_diagram(text)
    refl = reflection_matrices(diagram)
    for s in range(2, 8):
        row_id, order, collapsed = at2 if s == 2 else at3
        sc = classify_spherical(diagram, window, s)
        assert sc.kind == "Spherical"
        assert sc.constraints_row_id == row_id, (text, s, sc.constraints_row_id)
        assert sc.predicted_order == order
        assert sc.measured_order == order
        assert sc.collapsed == collapsed
        mats = reduce_mod([refl[i] for i in window], s)
        assert enumerate_small(mats, s, bound=3000).shape[0] == order


def test_spherical_row_coverage():
    seen = set()
    for text, window, at3, at2 in SPHERICAL_FIXTURES:
        seen.add(at3[0])
        seen.add(at2[0])
    # the "both generators reduce to the identity" dihedral row needs both
    # nodes e-e, but the larger label always carries Cartan integer 1 toward
    # the smaller, so one node of every dihedral window has an odd side
    assert seen == {
        "A:any", "A1:s2-ee",
        "I2:s3", "I2:s2-one-ee", "I2:s2",
        "Bsys1:s3", "Bsys1:s2-oe", "Bsys1:s2-ee",
        "Bsys2:s3", "Bsys2:s2-oo-oo", "Bsys2:s2-oo-oe",
        "Bsys2:s2-oe-oo", "Bsys2:s2-oe-oe",
        "F4:s3", "F4:s2",
    }


def radius_diagrams():
    """Every normalized diagram of rank <= 3 with labels 1..4, then the
    fixture diagrams, each once."""
    out = {}
    for rank in (1, 2, 3):
        for labels in itertools.product("1234", repeat=rank):
            for branches in itertools.product("-=,", repeat=rank - 1):
                text = labels[0] + "".join(b + l for b, l in zip(branches, labels[1:]))
                try:
                    out.setdefault(parse_diagram(text), None)
                except ParseError:
                    pass
    for fixture in EUCLIDEAN_FIXTURES + SPHERICAL_FIXTURES:
        out.setdefault(parse_diagram(fixture[0]), None)
    return list(out)


def test_prediction_digest():
    # pins every row id, prediction and collapse flag over the radius, so
    # any change to a prediction rule changes the digest
    digest = hashlib.sha256()
    euclidean_rows, spherical_rows = set(), set()
    for diagram in radius_diagrams():
        for lo, hi in itertools.combinations_with_replacement(range(diagram.rank), 2):
            window = tuple(range(lo, hi + 1))
            try:
                for s in range(2, 13):
                    row_id, q = predicted_type_vector(diagram, window, s)
                    digest.update(("E %s %s %d %s %s\n" % (diagram, window, s, row_id, q)).encode())
                    euclidean_rows.add(row_id)
            except ValueError:
                pass
            try:
                for s in range(2, 6):
                    sc = classify_spherical(diagram, window, s)
                    digest.update(("S %s %s %d %s %s %s %s\n" % (
                        diagram, window, s, sc.family, sc.predicted_order,
                        sc.constraints_row_id, sc.collapsed)).encode())
                    spherical_rows.add(sc.constraints_row_id)
            except ValueError:
                pass
    assert euclidean_rows - {None} == ALL_ROW_IDS
    assert len(spherical_rows) == 15
    assert digest.hexdigest() == (
        "9044ffbe04308a60c9b442cba728208260beeb9c08ef7d0717c075e9c179937d")


def radius_euclidean_windows():
    """(diagram, window) for every Euclidean window over the radius."""
    out = []
    for diagram in radius_diagrams():
        for lo, hi in itertools.combinations_with_replacement(range(diagram.rank), 2):
            window = tuple(range(lo, hi + 1))
            if toroids._match(diagram, window, toroids._euclidean_system) is not None:
                out.append((diagram, window))
    return out


def test_type_vector_digest():
    # pins the measured type vector and |T^s| of every Euclidean window over
    # the radius (the fixture windows among them), so any change to how the
    # kernel lattice is measured or compared changes the digest
    digest = hashlib.sha256()
    windows = radius_euclidean_windows()
    for diagram, window in windows:
        tsub = translation_generators(diagram, window)
        for s in range(2, 13):
            tv = type_vector(tsub, s)
            digest.update(("%s %s %d %s %s\n" % (
                diagram, window, s, tv,
                None if tv is None else _kernel_data(tsub, s)[3])).encode())
    assert len(windows) == 67
    assert digest.hexdigest() == (
        "cc9b9797d00022a8fc5c07799bebfbde42fb6e2ec0bde18121940ef51753d951")


def test_kernel_lattice_key_periods_match_the_matrix_orders():
    # the kernel lattice, read in exponent coordinates, against an
    # independent order: the least j with j . sigma_k in the kernel is the
    # period of the key translation t_1 ... t_k mod s, by repeated products
    windows = radius_euclidean_windows()
    checked = 0
    for diagram, window in windows:
        tsub = translation_generators(diagram, window)
        for s in range(2, 13):
            basis = list(_kernel_data(tsub, s)[1])
            key = np.eye(tsub.frame_diagram.rank, dtype=np.int64)
            for k in range(1, tsub.m + 1):
                key = key @ tsub.mats[k - 1] % s
                if k not in tsub.sigma_lattices:
                    continue
                sigma = (1,) * k + (0,) * (tsub.m - k)
                least = next((j for j in range(1, 2 * s + 1)
                              if _row_hnf(basis + [tuple(j * x for x in sigma)], tsub.m)[0]
                              == basis), None)
                assert least == element_period(key, s), (diagram, window, s, k)
                checked += 1
    assert len(windows) == 67
    assert checked == 1056    # 96 legal (window, k) pairs at 11 moduli


def test_index_in_reads_the_index_from_hnf_pivots():
    ref, ref_pivots = _row_hnf([(1, 0, 0), (0, 1, 0)], 3)
    assert _index_in([(2, 0, 0), (0, 3, 0)], ref, ref_pivots) == 6
    assert _index_in([(1, 1, 0), (1, -1, 0)], ref, ref_pivots) == 2
    assert _index_in([(2, 0, 0)], ref, ref_pivots) == 0
    with pytest.raises(ValueError, match="outside the reference lattice"):
        _index_in([(0, 0, 1)], ref, ref_pivots)


def test_type_vector_is_none_when_no_reference_lattice_matches():
    # every (window, s) pair over the radius matches a legal shape, so the
    # no-match branch is reached by withholding the shape that does match
    diagram = parse_diagram("4 - 2 - 2 - 1 - 1")
    tsub = translation_generators(diagram, (0, 1, 2, 3))
    assert type_vector(tsub, 4) == (4, 4, 0)
    lattices = {k: lam for k, lam in tsub.sigma_lattices.items() if k != 2}
    assert type_vector(dataclasses.replace(tsub, sigma_lattices=lattices), 4) is None


def test_radical_vector_digest():
    # pins the radical vector, or the ValueError, of every window over the
    # radius, so any change to how the radical is solved changes the digest
    digest = hashlib.sha256()
    windows = radicals = 0
    for diagram in radius_diagrams():
        for lo, hi in itertools.combinations_with_replacement(range(diagram.rank), 2):
            windows += 1
            try:
                got = radical_vector(diagram, range(lo, hi + 1))
                radicals += 1
            except ValueError as exc:
                got = "ValueError: %s" % exc
            digest.update(("%s %d %d %s\n" % (diagram, lo, hi, got)).encode())
    assert (windows, radicals) == (636, 73)
    assert digest.hexdigest() == (
        "4ebefc3f5b8fe7e63b3864e4c0a916e53f1780f254e45d3c25308d51b16c6ab5")


def test_euclidean_excluded_moduli_report_other():
    for text, window, s in [
        ("1 - 1 - 1 - 2 - 2", (0, 1, 2, 3, 4), 2),
        ("2 - 2 - 2 - 1 - 1", (0, 1, 2, 3, 4), 2),
        ("1 - 1 - 3", (0, 1, 2), 2),
        ("3 - 3 - 1", (0, 1, 2), 2),
        ("1 - 2 - 1", (0, 1, 2), 2),
        ("4 - 2 - 1", (0, 1, 2), 2),
        ("4 - 1", (0, 1), 2),
        ("1 = 1", (0, 1), 2),
    ]:
        sc = classify_euclidean(parse_diagram(text), window, s)
        assert sc.kind == "Other"
        assert sc.predicted_q is None
        assert "toroid" in sc.annotation


@pytest.mark.parametrize("s", [1, 0])
def test_moduli_below_two_are_rejected(s):
    diagram = parse_diagram("1 = 1")
    for fn in (predicted_type_vector, classify_euclidean):
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            fn(diagram, (0, 1), s)


def test_classify_scan():
    secs = classify(parse_diagram("3 - 3 - 1 - 1"), 4)
    assert [(sc.window, sc.kind, sc.family) for sc in secs] == [
        ((0, 2), "Euclidean", "[3,6]"),
        ((1, 3), "Euclidean", "[6,3]"),
    ]
    assert secs[0].measured_q == (4, 0) and not secs[0].flipped
    assert secs[1].measured_q == (4, 0) and secs[1].flipped

    secs = classify(parse_diagram("3 - 3 - 1 - 1"), 6)
    assert secs[0].measured_q == (6, 0)
    assert secs[1].measured_q == (2, 2)
    assert secs[1].constraints_row_id == "P6:s-div3-m-0"

    secs = classify(parse_diagram("1 - 2 - 2 - 4 - 4"), 4)
    assert [(sc.window, sc.kind) for sc in secs] == [
        ((0, 3), "Euclidean"), ((1, 4), "Spherical"),
    ]
    assert secs[0].measured_q == (4, 0, 0)
    assert secs[1].family == "F_4"
    assert secs[1].measured_order == 1152


def test_classify_builds_each_translation_subgroup_once(monkeypatch):
    # the windows depend only on the diagram, so seven moduli build the two
    # Euclidean windows' subgroups once each
    builds = []
    init = toroids.TranslationSubgroup.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(toroids.TranslationSubgroup, "__init__", counting)
    toroids._windows.cache_clear()
    diagram = parse_diagram("3 - 3 - 1 - 1")
    for s in range(2, 9):
        assert [sc.kind for sc in classify(diagram, s)] == (
            ["Other", "Other"] if s == 2 else ["Euclidean", "Euclidean"])
    assert len(builds) == 2


def test_section_dicts_round_trip():
    sc = classify_euclidean(parse_diagram("2 - 1 - 2"), (0, 1, 2), 4)
    d = sc.to_dict()
    assert d["window"] == [0, 2]
    assert d["predicted_q"] == [2, 2] and d["measured_q"] == [2, 2]
    sc = classify_spherical(parse_diagram("1 - 2"), (0, 1), 5)
    d = sc.to_dict()
    assert d["kind"] == "Spherical" and d["measured_order"] == "8"


def test_flip_of_representation_is_reverse_conjugate():
    for text in ["2 - 1 - 3 - 6", "1 - 1 - 1 - 2 - 2", "4 - 1 = 1", "1 , 3 - 1"]:
        diagram = parse_diagram(text)
        n = diagram.rank
        mats = reflection_matrices(diagram)
        flipped_mats = reflection_matrices(diagram.flip())
        for k in range(n):
            assert np.array_equal(flipped_mats[k],
                                  mats[n - 1 - k][::-1, ::-1])


def test_verify_flip_invariance():
    for text, s in [("2 - 1 - 3 - 6", 4), ("1 - 2 - 1", 4), ("3 - 3 - 1 - 1", 4),
                    ("2 - 1 - 3 - 6", 6), ("1 - 4 = 4", 6)]:
        diagram = parse_diagram(text)
        a = verify_diagram(diagram, s)
        b = verify_diagram(diagram.flip(), s)
        assert a.verdict == b.verdict
        assert a.order == b.order
        if a.schlafli is not None:
            assert b.schlafli == tuple(reversed(a.schlafli))


# ---------------------------------------------------------------------------
# the recognizers and t_1 against the label-ratio rules and the point-group
# search that they replaced

def _ratios(sub):
    g = math.gcd(*sub.labels)
    return tuple(x // g for x in sub.labels)


def _ratio_euclidean(sub):
    """Printed-frame Euclidean system of a whole diagram by its label ratios."""
    k = sub.rank
    if k == 2:
        a, b = sub.labels
        if sub.branches[0] is Branch.DOUBLE:
            return "P8" if a == b else None
        return "P9" if sub.branches[0] is Branch.SINGLE and a == 4 * b else None
    if k < 3 or any(br is not Branch.SINGLE for br in sub.branches):
        return None
    r = _ratios(sub)
    named = {(1, 1, 3): "P6", (3, 3, 1): "P7", (1, 1, 1, 2, 2): "P4", (2, 2, 2, 1, 1): "P5",
             (2,) + (1,) * (k - 2) + (2,): "P1", (1,) + (2,) * (k - 2) + (1,): "P2",
             (4,) + (2,) * (k - 2) + (1,): "P3"}
    return named.get(r)


def _ratio_spherical(sub):
    """Printed-frame spherical system of a whole diagram by its label ratios."""
    k = sub.rank
    if k == 1:
        return ("A", 1)
    if any(br is not Branch.SINGLE for br in sub.branches):
        return None
    r = _ratios(sub)
    if all(x == 1 for x in r):
        return ("A", k)
    if k == 2:
        return ("I2", 2) if sub.branch_periods()[0] in (4, 6) else None
    if k == 4 and r == (1, 1, 2, 2):
        return ("F4", 4)
    if r == (1,) + (2,) * (k - 1):
        return ("Bsys1", k)
    if r == (2,) + (1,) * (k - 1):
        return ("Bsys2", k)
    return None


@pytest.mark.parametrize("kinds,most", [
    ("-=", 5), ("-=,", 3), pytest.param("-=,", 5, marks=pytest.mark.long)])
def test_recognizers_match_the_label_ratio_rules(kinds, most):
    # every window of such a diagram is itself one of these diagrams
    matched = 0
    for rank in range(1, most + 1):
        for d in strings(rank, kinds, (1, 2, 3, 4, 6, 12)):
            whole = tuple(range(rank))
            euc = toroids._euclidean_system(d, whole)
            sph = toroids._spherical_system(d, whole)
            assert (euc, sph) == (_ratio_euclidean(d), _ratio_spherical(d)), d.render()
            matched += euc is not None or sph is not None
    assert matched


def _point_group_t1(frame_d, frame_w, c_amb):
    """(t_1, |point group|) by search: r_j h for the one element h of the
    point group that makes a nontrivial translation."""
    refl = reflection_matrices(frame_d)
    gens = [refl[i] for i in frame_w[1:]]
    els = toroids._orbit(np.eye(frame_d.rank, dtype=np.int64),
                         lambda x: [x @ g for g in gens], "point group")
    found = [x for x in (refl[frame_w[0]] @ h for h in els)
             if any(toroids._translation_row(x, c_amb, frame_w) or ())]
    assert len(found) == 1
    return found[0], len(els)


def string_windows(most):
    """(diagram, window, match) for each Euclidean window of 2 to 5 nodes with
    at most one neighbour on each side, in the strings up to rank most.

    t_1 is the identity beyond the window's neighbours, and a "," neighbour
    acts as none, so these cover every embedding once the diagrams reach
    rank 7."""
    for rank in range(2, most + 1):
        for d in strings(rank, "-=", (1, 2, 3, 4)):
            for lo, hi in {(0, rank), (1, rank), (0, rank - 1), (1, rank - 1)}:
                if not 2 <= hi - lo <= 5:
                    continue
                window = tuple(range(lo, hi))
                match = toroids._match(d, window, toroids._euclidean_system)
                if match is not None:
                    yield d, window, match


@pytest.mark.parametrize("most,count", [(5, 501), pytest.param(7, 991, marks=pytest.mark.long)])
def test_first_translation_matches_the_point_group_search(most, count):
    seen = 0
    for d, _, (_, _, fd, fw) in string_windows(most):
        c_amb = embed_window_vector(radical_vector(fd, fw), fw, fd.rank)
        t1, point_order = _point_group_t1(fd, fw, c_amb)
        assert np.array_equal(toroids._first_translation(fd, fw, c_amb), t1), d
        assert coxeter_order(toroids._periods(fd, fw[1:])) == point_order, d
        seen += 1
    assert seen == count


# the orbit-span index of the key translation t_1 t_2 in the translation lattice
KEY_INDEX = {"P4": 4, "P5": 4, "P6": 3, "P7": 3}


def mate_search(tsub):
    """(orbit size, HNFs of the key-translation lattices) of the search that
    chose a [3,6] or [3,3,4,3] system's second generator among the conjugates
    of t_1: each conjugate t whose key translation t_1 t has index
    KEY_INDEX in the translation lattice gives the HNF of the conjugacy orbit
    of t_1 t.  Also asserts that tsub's generators span that lattice."""
    fd, fw = tsub.frame_diagram, tsub.frame_window
    c_amb = radical_ambient(tsub)
    refl = reflection_matrices(fd)
    point = [refl[i] for i in fw[1:]]
    t1 = tsub.mats[0]
    orbit = toroids._conj_orbit(t1, point, c_amb, fw)
    full, pivots = _row_hnf(orbit, tsub.m + 1)
    assert _index_in(tsub.w_rows, full, pivots) == 1
    found = []
    for t in orbit.values():
        key = toroids._conj_orbit(t1 @ t, point, c_amb, fw, "sigma")
        if _index_in(key, full, pivots) == KEY_INDEX[tsub.system]:
            found.append(_row_hnf(key, tsub.m + 1)[0])
    return len(orbit), found


@pytest.mark.parametrize("most,count", [(5, 208), pytest.param(7, 632, marks=pytest.mark.long)])
def test_reflection_conjugates_give_the_mate_search_lattices(most, count):
    # every [3,6] and [3,3,4,3] embedding, printed and flipped: each mate
    # the search could have chosen gives the reference lattice L_2
    seen = 0
    for d, window, (system, *_) in string_windows(most):
        if system not in KEY_INDEX:
            continue
        flipped = tuple(d.rank - 1 - i for i in reversed(window))
        for diagram, win in ((d, window), (d.flip(), flipped)):
            tsub = translation_generators(diagram, win)
            _, found = mate_search(tsub)
            assert found and all(hnf == tsub.sigma_lattices[2] for hnf in found), diagram
            seen += 1
    assert seen == count


def test_six_of_the_p4_mates_have_key_index_4():
    tsub = translation_generators(parse_diagram("1 - 1 - 1 - 2 - 2"), (0, 1, 2, 3, 4))
    size, found = mate_search(tsub)
    assert (tsub.system, size, len(found)) == ("P4", 24, 6)
    assert all(hnf == tsub.sigma_lattices[2] for hnf in found)


@pytest.mark.parametrize("text,row", [
    ("1 - 2 - 2 - 2 - 2 - 1", "P2:"), ("2 - 1 - 1 - 1 - 1 - 2", "P1:")])
def test_cubic_windows_with_point_group_b5_classify(text, row):
    # B_5 has 3,840 elements: too many for the point-group search used before
    diagram = parse_diagram(text)
    for s in range(3, 7):
        (sc,) = classify(diagram, s)
        assert (sc.window, sc.kind, sc.flipped) == ((0, 5), "Euclidean", False)
        assert sc.constraints_row_id.startswith(row)
        assert sc.measured_q == sc.predicted_q, s
    assert classify(diagram, 3)[0].measured_q == (3, 0, 0, 0, 0)
    # E^3 = T^3 . H^3, and the point group H^3 keeps its char-0 order
    order_h = verify_diagram(diagram, 3, window=range(1, 6)).order
    assert order_h == coxeter_order(toroids._periods(diagram, range(1, 6))) == 3840
    tsub = translation_generators(diagram, tuple(range(6)))
    assert verify_diagram(diagram, 3).order == _kernel_data(tsub, 3)[3] * order_h
