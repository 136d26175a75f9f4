import hashlib
import itertools
import math

import numpy as np
import pytest

import modpoly.toroids as toroids
from modpoly.diagram import Branch, ParseError, coxeter_order, parse_diagram
from modpoly.engine import enumerate_small
from modpoly.matrep import embed_window_vector, radical_vector, reduce_mod, reflection_matrices
from modpoly.polytopality import verify_diagram
from modpoly.toroids import (
    _kernel_data,
    check_translation_splitting,
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


def test_generator_construction():
    for text, window in EUCLIDEAN_FIXTURES:
        tsub = translation_generators(parse_diagram(text), window)
        n = tsub.frame_diagram.rank
        eye = np.eye(n, dtype=np.int64)
        assert len(tsub.mats) == len(window) - 1
        assert tsub.c_window[0] == 1
        for t, tinv in zip(tsub.mats, tsub.inverses):
            assert np.array_equal(t @ tinv, eye)
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
        assert tv.vector == q, (text, window, s, row_id, tv.vector)
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
        assert tv.vector == q, (text, window, s)


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
    tv = type_vector(tsub, s)
    assert tv.vector == vector
    assert tv.order == order
    assert all((2 * s) % p == 0 for p in tv.periods)


def brute_transvection_count(els, tsub, s):
    n = tsub.frame_diagram.rank
    fwin = tsub.frame_window
    if tsub.flipped:
        els = np.ascontiguousarray(els[:, ::-1, ::-1])
    diff = (els - np.eye(n, dtype=np.int64)) % s
    cols = diff[:, :, list(fwin)]
    w = cols[:, fwin[0], :]
    want = np.einsum("i,ej->eij", tsub.c_ambient, w) % s
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
            order_t = _kernel_data(tsub, s)[4]
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
    rep = check_translation_splitting(parse_diagram(text), window, s)
    got = (rep["splitting"]["order_E"], rep["splitting"]["order_T"],
           rep["splitting"]["order_H"])
    assert got == orders
    assert rep["splitting"]["product_ok"]
    assert rep["intersection"]["trivial"]


def test_translation_splitting_faithfulness():
    d = parse_diagram("4 - 2 - 1 - 1")
    rep = check_translation_splitting(d, (0, 1, 2), 3)
    assert rep["faithful_action"]["faithful"]
    assert rep["string_c_group"]["ok"]
    # at s=2 the embedded window's translations act on the flanking column:
    # half of T^2 is invisible on the window submodule
    rep = check_translation_splitting(d, (0, 1, 2), 2)
    assert not rep["faithful_action"]["faithful"]
    assert rep["faithful_action"]["kernel_index"] == 8
    assert rep["faithful_action"]["action_kernel_index"] == 4
    assert rep["intersection"]["trivial"]


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


@pytest.mark.parametrize("most,count", [(5, 501), pytest.param(7, 991, marks=pytest.mark.long)])
def test_first_translation_matches_the_point_group_search(most, count):
    # t_1 is the identity beyond the window's neighbours, and a "," neighbour
    # acts as none, so the windows of 2 to 5 nodes with at most one neighbour
    # on each side cover every embedding once the diagrams reach rank 7
    seen = 0
    for rank in range(2, most + 1):
        for d in strings(rank, "-=", (1, 2, 3, 4)):
            for lo, hi in {(0, rank), (1, rank), (0, rank - 1), (1, rank - 1)}:
                if not 2 <= hi - lo <= 5:
                    continue
                match = toroids._match(d, tuple(range(lo, hi)), toroids._euclidean_system)
                if match is None:
                    continue
                _, _, fd, fw = match
                c_amb = embed_window_vector(radical_vector(fd, fw), fw, fd.rank)
                t1, point_order = _point_group_t1(fd, fw, c_amb)
                assert np.array_equal(toroids._first_translation(fd, fw, c_amb)[0], t1), d
                assert coxeter_order(toroids._periods(fd, fw[1:])) == point_order, d
                seen += 1
    assert seen == count


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
    report = check_translation_splitting(diagram, tuple(range(6)), 3)
    assert report["splitting"]["product_ok"] and report["splitting"]["H_faithful"]
