"""Spherical and Euclidean window classification and toroid type vectors.

A contiguous window of a diagram generates a subgroup whose mod-s image is
either a finite spherical group (simplex, hyperoctahedral, F_4, dihedral),
the automorphism group of a regular toroid {4,3^{m-2},4}_q, {3,3,4,3}_q,
{3,6}_q, or {...}_q over [oo], or something degenerate.  This module
recognises a window by its branch periods, which name the spherical or
affine group (its char-0 order comes from `diagram.coxeter_order`), while
its labels fix the printed or flipped frame.  It predicts the outcome from
rules keyed on modulus arithmetic and node parity classes, and measures
the outcome exactly:

* spherical windows: predicted vs measured group order;
* Euclidean windows: predicted vs measured toroid type vector q = (q^k, 0^(m-k)).

`classify` works in two stages.  `_windows` reads no modulus: it resolves
each maximal window of a diagram once to its printed or flipped frame and
builds each Euclidean window's translation subgroup.  `_section` then builds
the SectionClass of a resolved window at each modulus.

Type vectors are measured from the translation subgroup.  Standard
generators t_1..t_m are constructed over the integers (t_1 = r_j s_theta
for the highest root theta of the point group; the rest by reflection
conjugacy), and the kernel lattice K = {a : t_1^a1 ... t_m^am = e mod s}
is enumerated exactly and compared, in Hermite normal form, against the
scaled reference lattices q . span(orbit of t_1 ... t_k) of the legal
shapes.  For toroid background see McMullen & Schulte, "Abstract Regular
Polytopes", chapter 6.

Embedded windows need care: a translation t of the window subgroup acts on
the two ambient basis vectors adjacent to the window, so t - e = N has
N^3 = 0 rather than N^2 = 0, and t^k = e + kN + C(k,2) N^2.  Hence the
period of t mod s divides 2s but can exceed s, which is exactly what the
(s,s,0,...) and (2s) rows require.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .diagram import Diagram, INFINITY, coxeter_order
from .engine import BoundExceeded, element_period
from .matrep import (
    ModularRep,
    embed_window_vector,
    is_transvection,
    predict_branch_periods,
    predict_collapse,
    radical_vector,
    reflection_matrices,
    rref,
)
from .polytopality import Verifier, verify_diagram

_ORBIT_BOUND = 4000     # safety cap on conjugacy orbits of translations and sigma_k


# ---------------------------------------------------------------------------
# integer lattice utilities (row lattices, Hermite normal form)

def _row_hnf(rows, width):
    """Hermite normal form of the integer row span.

    Returns (basis, pivots): basis rows have positive pivot entries, zeros at
    every earlier pivot column, and entries above each pivot reduced into
    [0, pivot).  Rows appear in ascending pivot order.
    """
    pool = [list(map(int, r)) for r in rows]
    pool = [r for r in pool if any(r)]
    basis, pivots = [], []
    for col in range(width):
        live = [r for r in pool if r[col]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            for r in live[1:]:
                q = r[col] // p[col]
                for t in range(width):
                    r[t] -= q * p[t]
            live = [r for r in live if r[col]]
        p = live[0]
        if p[col] < 0:
            p[:] = [-x for x in p]
        basis.append(p)
        pivots.append(col)
        pool = [r for r in pool if r is not p and any(r)]
    for bi in range(len(basis)):
        for ai in range(bi):
            q = basis[ai][pivots[bi]] // basis[bi][pivots[bi]]
            if q:
                for t in range(width):
                    basis[ai][t] -= q * basis[bi][t]
    return [tuple(r) for r in basis], tuple(pivots)


def _lattice_index(basis, pivots, width):
    """Index of the row lattice in Z^width; 0 means infinite (not full rank)."""
    if len(basis) < width:
        return 0
    return math.prod(r[c] for r, c in zip(basis, pivots))


def _lattice_coords(vec, basis, pivots):
    """Integer coordinates of vec over an HNF basis, or None if outside."""
    v = list(map(int, vec))
    out = []
    for r, c in zip(basis, pivots):
        if v[c] % r[c]:
            return None
        q = v[c] // r[c]
        out.append(q)
        if q:
            for t in range(len(v)):
                v[t] -= q * r[t]
    return out if not any(v) else None


def _index_in(rows, ref_basis, ref_pivots):
    """Index of span(rows) inside the reference lattice (0 if rank-deficient)."""
    coords = []
    for r in rows:
        cc = _lattice_coords(r, ref_basis, ref_pivots)
        if cc is None:
            raise ValueError("vector lies outside the reference lattice")
        coords.append(cc)
    h, p = _row_hnf(coords, len(ref_basis))
    return _lattice_index(h, p, len(ref_basis))


def _iroot(x, m):
    """Exact integer m-th root, or None."""
    if x <= 0:
        return None
    q = round(x ** (1.0 / m))
    for cand in (q - 1, q, q + 1):
        if cand >= 1 and cand ** m == x:
            return cand
    return None


# ---------------------------------------------------------------------------
# pattern recognition

_FAMILY_KIND = {
    "P1": "cubic", "P2": "cubic", "P3": "cubic",
    "P4": "f443", "P5": "f443",
    "P6": "hex", "P7": "hex",
    "P8": "inf", "P9": "inf",
}


def _check_window(diagram, window):
    win = tuple(int(i) for i in window)
    if (not win or win[0] < 0 or win[-1] >= diagram.rank
            or any(b - a != 1 for a, b in zip(win, win[1:]))):
        raise ValueError("window must be a contiguous ascending run of node indices")
    return win


def _check_modulus(modulus):
    s = int(modulus)
    if s < 2:
        raise ValueError("modulus must be at least 2")
    return s


def _periods(diagram, window):
    """Branch periods inside a contiguous window."""
    return diagram.branch_periods()[window[0]:window[-1]]


def _euclidean_system(diagram, window):
    """Printed-frame Euclidean basic system matched by the window, or None.

    The branch periods name the affine group; the labels fix the frame."""
    pers, a = _periods(diagram, window), diagram.labels[window[0]:window[-1] + 1]
    if pers == (INFINITY,):
        return "P8" if a[0] == a[1] else "P9" if a[0] > a[1] else None
    if pers == (3, 6):
        return "P6" if a[1] < a[2] else "P7"
    if pers == (3, 3, 4, 3):
        return "P4" if a[2] < a[3] else "P5"
    if len(pers) < 2 or pers[0] != 4 or pers[-1] != 4 or any(p != 3 for p in pers[1:-1]):
        return None
    if a[0] < a[1]:
        return "P2" if a[-1] < a[-2] else None
    return "P1" if a[-1] > a[-2] else "P3"


def _spherical_system(diagram, window):
    """(kind, node count) of the printed-frame spherical system, or None.

    The branch periods name the finite group; the labels fix the frame."""
    pers, a, k = _periods(diagram, window), diagram.labels[window[0]:window[-1] + 1], len(window)
    if coxeter_order(pers) is None:
        return None
    if all(p == 3 for p in pers):
        return ("A", k)
    if k == 2:
        return ("I2", 2)
    if pers[0] == 4:
        return ("Bsys1" if a[0] < a[1] else "Bsys2", k)
    # what is left is F_4 or B_m with its 4 last, which reads flipped
    return ("F4", 4) if pers == (3, 4, 3) and a[1] < a[2] else None


def _match(diagram, window, system):
    """(match, flipped, frame diagram, frame window) for the first frame,
    printed then flipped, in which system(diagram, window) matches; None when
    neither does.
    """
    got = system(diagram, window)
    if got is not None:
        return got, False, diagram, window
    frame_d = diagram.flip()
    frame_w = tuple(diagram.rank - 1 - i for i in reversed(window))
    got = system(frame_d, frame_w)
    if got is not None:
        return got, True, frame_d, frame_w
    return None


# ---------------------------------------------------------------------------
# result containers

@dataclass(frozen=True)
class SectionClass:
    """Classification of one diagram window at one modulus."""

    window: tuple
    kind: str                # "Spherical" | "Euclidean" | "Other"
    family: str
    modulus: int
    flipped: bool = False
    collapsed: bool = False
    predicted_order: int = None
    measured_order: int = None
    predicted_q: tuple = None
    measured_q: tuple = None
    constraints_row_id: str = None
    annotation: str = ""

    def to_dict(self):
        out = dict(vars(self), window=list(self.window))
        for key in ("predicted_order", "measured_order"):
            out[key] = None if out[key] is None else str(out[key])
        for key in ("predicted_q", "measured_q"):
            out[key] = None if out[key] is None else list(out[key])
        return out


@dataclass(frozen=True)
class TypeVector:
    """Measured toroid identification vector q = (q^k, 0^(m-k))."""

    vector: tuple
    k: int
    q: int
    m: int
    modulus: int
    order: int               # |T^s| = index of the kernel lattice
    periods: tuple           # period of each generator t_i mod s
    key_periods: tuple       # ((k, period of t_1 ... t_k mod s), ...) over legal k


@dataclass
class TranslationSubgroup:
    """Standard integer generators of a Euclidean window's translation subgroup."""

    diagram: Diagram
    window: tuple
    flipped: bool
    system: str
    m: int
    frame_diagram: Diagram
    frame_window: tuple
    c_window: tuple
    c_ambient: np.ndarray
    mats: list
    inverses: list
    w_rows: tuple
    point_order: int
    sigma_lattices: dict

    def translation(self, exponents):
        """Exact integer matrix of t_1^a1 ... t_m^am."""
        n = self.frame_diagram.rank
        out = np.eye(n, dtype=np.int64)
        for t, tinv, a in zip(self.mats, self.inverses, exponents):
            step = t if a >= 0 else tinv
            for _ in range(abs(int(a))):
                out = out @ step
        return out


# ---------------------------------------------------------------------------
# translation generator construction

def _orbit(start, images, name):
    """Breadth-first orbit of an integer array, sorted for determinism.

    images(x) lists the neighbours of x.  Raises BoundExceeded, naming the
    orbit, once it would exceed _ORBIT_BOUND elements.
    """
    seen = {start.tobytes(): start}
    frontier = [start]
    while frontier:
        step = []
        for x in frontier:
            for y in images(x):
                key = y.tobytes()
                if key not in seen:
                    if len(seen) >= _ORBIT_BOUND:
                        raise BoundExceeded("%s orbit exceeded bound %d" % (name, _ORBIT_BOUND))
                    seen[key] = y
                    step.append(y)
        frontier = step
    return sorted(seen.values(), key=lambda a: a.tobytes())


def _translation_row(mat, c_ambient, window):
    """Window-restricted translation vector w with mat - e = c (x) w, or None."""
    n = mat.shape[0]
    diff = mat - np.eye(n, dtype=np.int64)
    cols = diff[:, list(window)]
    w = cols[window[0]]                     # c_ambient[window[0]] == 1 by construction
    if np.array_equal(cols, np.outer(c_ambient, w)):
        return tuple(int(v) for v in w)
    return None


def _unipotent_inverse(mat):
    """Exact inverse of e + N with N^3 = 0."""
    n = mat.shape[0]
    nil = mat - np.eye(n, dtype=np.int64)
    inv = np.eye(n, dtype=np.int64) - nil + nil @ nil
    if not np.array_equal(mat @ inv, np.eye(n, dtype=np.int64)):
        raise AssertionError("generator is not unipotent of the expected depth")
    return inv


def _conj_orbit(mat, gens, c_ambient, window):
    """Orbit of a translation under conjugation by the point reflections.

    Returns {w row: matrix}; the char-0 window action is faithful, so the
    translation vector determines the matrix.
    """
    seen = _orbit(mat, lambda x: [g @ x @ g for g in gens], "translation")
    out = {}
    for x in seen:
        w = _translation_row(x, c_ambient, window)
        if w is None:
            raise AssertionError("conjugate of a translation failed the translation test")
        if w in out:
            raise AssertionError("two distinct translations share a translation vector")
        out[w] = x
    return out


def _sigma_indices(kind, m):
    """{legal k: index of the orbit lattice of sigma_k = (1^k, 0^(m-k))}."""
    return {
        "cubic": {1: 1, 2: 2, m: 2 ** (m - 1)},    # m = 2 gives 2: 2 again
        "f443": {1: 1, 2: 4},
        "hex": {1: 1, 2: 3},
        "inf": {1: 1},
    }[kind]


def _first_translation(frame_d, frame_w, c_amb):
    """(t_1, w_1) with t_1 = r_j s_theta, j = frame_w[0]; see translation_generators.

    theta = c - b_j is made primitive, so s_theta's coefficients 2 B(b_l, theta)
    / B(theta, theta) are integers; 2 B(b_l, v) = -a_l (C v)_l for the Gram
    form B of gram_matrix and the Cartan matrix C."""
    j = frame_w[0]
    theta = c_amb.copy()
    theta[j] = 0
    theta //= math.gcd(*theta.tolist())
    two_b = -np.array(frame_d.labels) * (np.array(frame_d.cartan_matrix()) @ theta)
    coef, rem = np.divmod(2 * two_b, theta @ two_b)
    if rem.any():
        raise AssertionError("highest-root reflection is not integral")
    s_theta = np.eye(frame_d.rank, dtype=np.int64) - np.outer(theta, coef)
    t1 = reflection_matrices(frame_d)[j] @ s_theta
    w1 = _translation_row(t1, c_amb, frame_w)
    if w1 is None or not any(w1):
        raise AssertionError("r_j s_theta is not a nontrivial translation")
    return t1, w1


def translation_generators(diagram, window):
    """Standard generators t_1..t_m of a Euclidean window's translation subgroup.

    j is the window's first node in its printed frame.  The affine Weyl
    group is the translations times the point group <r_i : i != j>, and
    b_j = c - theta for the radical vector c and the highest root theta of
    the point group, so t_1 = r_j s_theta is a translation (Humphreys,
    "Reflection Groups and Coxeter Groups" 4.2; McMullen & Schulte,
    "Abstract Regular Polytopes" ch. 6).  It is the only one of the form
    r_j h with h in the point group, since the char-0 window action is
    faithful.  For the cubic systems the rest follow by successive reflection conjugation; for
    [3,3,4,3] and [3,6] the mates are chosen from the conjugacy orbit of t_1
    by the orbit-span index of the key translation t_1 t_2, and for
    [3,3,4,3] the last two generators complete the orbit to a basis.
    """
    win = _check_window(diagram, window)
    match = _match(diagram, win, _euclidean_system)
    if match is None:
        raise ValueError("window does not match a Euclidean basic system")
    system, flipped, frame_d, frame_w = match
    kind = _FAMILY_KIND[system]
    m = len(frame_w) - 1
    j = frame_w[0]

    refl = reflection_matrices(frame_d)
    c_win = radical_vector(frame_d, frame_w)
    if c_win[0] != 1:
        raise AssertionError("radical vector does not start at 1: %r" % (c_win,))
    c_amb = embed_window_vector(c_win, frame_w, frame_d.rank)

    point_nodes = tuple(frame_w[1:])
    point_gens = [refl[i] for i in point_nodes]
    t1, w1 = _first_translation(frame_d, frame_w, c_amb)
    orbit = _conj_orbit(t1, point_gens, c_amb, frame_w)
    w_all = sorted(orbit)
    full_hnf, full_piv = _row_hnf(w_all, m + 1)

    mats = [t1]
    if kind == "cubic":
        for i in range(1, m):
            r = refl[j + i]
            mats.append(r @ mats[-1] @ r)
    elif kind != "inf":
        if len(full_hnf) != m:
            raise AssertionError("translation orbit does not span rank %d" % m)
        target = 3 if kind == "hex" else 4
        neg_w1 = tuple(-x for x in w1)
        pick = None
        for wv in w_all:
            if wv in (w1, neg_w1):
                continue
            sig = t1 @ orbit[wv]
            sig_orbit = _conj_orbit(sig, point_gens, c_amb, frame_w)
            if _index_in(sorted(sig_orbit), full_hnf, full_piv) == target:
                pick = orbit[wv]
                break
        if pick is None:
            raise AssertionError("no orbit mate with key-translation index %d" % target)
        mats.append(pick)
        if kind == "f443":
            w2 = _translation_row(pick, c_amb, frame_w)
            done = None
            for wa, wb in itertools.combinations(w_all, 2):
                if _index_in([w1, w2, wa, wb], full_hnf, full_piv) == 1:
                    done = (orbit[wa], orbit[wb])
                    break
            if done is None:
                raise AssertionError("no orbit pair completes a translation basis")
            mats.extend(done)

    w_rows = []
    for t in mats:
        w = _translation_row(t, c_amb, frame_w)
        if w is None:
            raise AssertionError("constructed generator failed the translation test")
        w_rows.append(w)
    w_rows = tuple(w_rows)
    w_hnf, w_piv = _row_hnf(w_rows, m + 1)
    if len(w_hnf) != m:
        raise AssertionError("translation vectors are not independent")
    if _index_in(w_rows, full_hnf, full_piv) != 1:
        raise AssertionError("generators do not span the full translation lattice")

    for a, b in itertools.combinations(mats, 2):
        if not np.array_equal(a @ b, b @ a):
            raise AssertionError("translation generators do not commute")
    inverses = [_unipotent_inverse(t) for t in mats]

    # conjugation action of each point reflection, in exponent coordinates:
    # the w rows are independent, so row reducing [W^T | w(x)^T] leaves the
    # coordinates of w(x) in the last column of the first m rows
    conj = {}
    for l in point_nodes:
        cols = []
        for t in mats:
            x = refl[l] @ t @ refl[l]
            wx = _translation_row(x, c_amb, frame_w)
            if wx is None:
                raise AssertionError("point conjugate left the translation subgroup")
            red, _ = rref([[w[c] for w in w_rows] + [wx[c]] for c in range(m + 1)])
            coeffs = []
            for row in red[:m]:
                if row[m].denominator != 1:
                    raise AssertionError("conjugation coordinates are not integral")
                coeffs.append(int(row[m]))
            if tuple(sum(coeffs[i] * w_rows[i][t2] for i in range(m)) for t2 in range(m + 1)) != wx:
                raise AssertionError("conjugation coordinates do not reproduce the vector")
            cols.append(coeffs)
        conj[l] = np.array(cols, dtype=np.int64).T
    sigma_lattices = {}
    for k, want in _sigma_indices(kind, m).items():
        sigma = (1,) * k + (0,) * (m - k)
        orb = _orbit(np.array(sigma, dtype=np.int64),
                     lambda v: [a @ v for a in conj.values()], "sigma")
        h, p = _row_hnf(sorted(tuple(int(x) for x in v) for v in orb), m)
        idx = _lattice_index(h, p, m)
        if idx != want:
            raise AssertionError("sigma lattice for k=%d has index %d, expected %d" % (k, idx, want))
        sigma_lattices[k] = (tuple(h), p, idx)

    tsub = TranslationSubgroup(
        diagram=diagram, window=win, flipped=flipped, system=system, m=m,
        frame_diagram=frame_d, frame_window=frame_w, c_window=tuple(c_win),
        c_ambient=c_amb, mats=mats, inverses=inverses, w_rows=w_rows,
        point_order=coxeter_order(_periods(frame_d, point_nodes)),
        sigma_lattices=sigma_lattices,
    )
    # the exponent-coordinate conjugation matrices must reproduce the matrices
    for l, amat in conj.items():
        for i, t in enumerate(mats):
            x = refl[l] @ t @ refl[l]
            if not np.array_equal(tsub.translation(amat[:, i]), x):
                raise AssertionError("conjugation matrix disagrees with the matrix action")
    return tsub


# ---------------------------------------------------------------------------
# kernel lattice and type vectors

def _kernel_data(tsub, s):
    """Kernel lattice of (a -> t_1^a1 ... t_m^am mod s), with generator powers.

    Returns (periods, pows, basis, pivots, index): pows[i][a] = t_i^a mod s.
    The kernel contains each periods[i] * e_i, so the coset box over the
    periods covers every class; its identity hits span the kernel.  Nothing
    is cached: a caller that needs the data twice keeps the tuple.
    """
    m = tsub.m
    n = tsub.frame_diagram.rank
    eye = np.eye(n, dtype=np.int64)
    periods = []
    pows = []
    for t in tsub.mats:
        tm = t % s
        p = element_period(tm, s, cap=2 * s + 1)
        if (2 * s) % p:
            raise AssertionError("generator period %d does not divide 2s" % p)
        arr = np.empty((p, n, n), dtype=np.int64)
        arr[0] = eye
        for a in range(1, p):
            arr[a] = arr[a - 1] @ tm % s
        periods.append(p)
        pows.append(arr)
    acc = pows[0]
    for i in range(1, m - 1):
        acc = np.einsum("aij,bjk->abik", acc, pows[i]).reshape(-1, n, n) % s
    found = []
    if m == 1:
        hits = np.nonzero((acc == eye).all(axis=(1, 2)))[0]
        found = [(int(h),) for h in hits]
    else:
        prefix = tuple(periods[:-1])
        for b in range(periods[-1]):
            cur = acc @ pows[-1][b] % s
            hits = np.nonzero((cur == eye).all(axis=(1, 2)))[0]
            for hidx in hits:
                a = np.unravel_index(int(hidx), prefix)
                found.append(tuple(int(x) for x in a) + (b,))
    box = math.prod(periods)
    rows = list(found)
    for i in range(m):
        rows.append(tuple(periods[i] if t == i else 0 for t in range(m)))
    basis, pivots = _row_hnf(rows, m)
    index = _lattice_index(basis, pivots, m)
    if index * len(found) != box:
        raise AssertionError("kernel box count does not match the lattice index")
    return tuple(periods), pows, tuple(basis), pivots, index


def _chain_power(pows, exponents, s):
    """t_1^a1 ... t_m^am mod s from the power tables."""
    out = pows[0][exponents[0] % pows[0].shape[0]]
    for arr, a in zip(pows[1:], exponents[1:]):
        out = out @ arr[a % arr.shape[0]] % s
    return out % s


def type_vector(tsub, modulus):
    """Measured type vector of T^s, or None when no legal shape matches.

    The kernel lattice is compared in Hermite normal form against q times
    each legal reference lattice, in ascending k; the scale q is forced by
    the index equation q^m . [Z^m : L_k] = [Z^m : K], so a wrong shape can
    never match.  The key-translation periods are returned alongside and
    cross-checked against the matrix orders.
    """
    s = _check_modulus(modulus)
    for t in tsub.mats:
        if not is_transvection(t % s, tsub.c_ambient, tsub.frame_window, s):
            raise AssertionError("generator fails the transvection test mod %d" % s)
    periods, pows, basis, pivots, index = _kernel_data(tsub, s)
    m = tsub.m
    key_periods = []
    for k in tsub.sigma_lattices:
        sigma = (1,) * k + (0,) * (m - k)
        per = next((jj for jj in range(1, 2 * s + 1)
                    if _lattice_coords([jj * x for x in sigma], basis, pivots) is not None), None)
        if per is None:
            raise AssertionError("key translation period not found within 2s")
        if element_period(_chain_power(pows, sigma, s), s, cap=2 * s + 1) != per:
            raise AssertionError("kernel-derived key period disagrees with the matrix order")
        key_periods.append((k, per))
    key_periods = tuple(key_periods)

    for k, (lam_basis, lam_piv, lam_index) in tsub.sigma_lattices.items():
        if lam_index == 0 or index % lam_index:
            continue
        q = _iroot(index // lam_index, m)
        if q is None:
            continue
        scaled = [tuple(q * x for x in row) for row in lam_basis]
        if list(scaled) == list(basis):
            return TypeVector(
                vector=(q,) * k + (0,) * (m - k), k=k, q=q, m=m, modulus=s,
                order=index, periods=periods, key_periods=key_periods,
            )
    return None


# ---------------------------------------------------------------------------
# spherical classification

def _spherical_predict(kind, k, frame_d, frame_w, s):
    """(family, order, row id, annotation) for a spherical window.

    Every system keeps its char-0 order for s >= 3; the mod-2 rules
    read the parity classes of the window's nodes in the frame.
    """
    j = frame_w[0]
    full = coxeter_order(_periods(frame_d, frame_w))
    name = {"A": "A_%d" % k, "I2": "I_2(%d)" % (full // 2), "Bsys1": "B_%d" % k,
            "Bsys2": "B_%d" % k, "F4": "F_4"}[kind]
    if kind == "A":
        if k == 1 and s == 2 and frame_d.node_parity(j) == "ee":
            return ("A_0", 1, "A1:s2-ee", "the generator reduces to the identity")
        return (name, full, "A:any", "")
    if s >= 3:
        return (name, full, kind + ":s3", "")
    if kind == "I2":
        # at most one node is e-e: the larger label has Cartan integer 1
        if "ee" in (frame_d.node_parity(j), frame_d.node_parity(j + 1)):
            return (name, 2, "I2:s2-one-ee", "one generator reduces to the identity")
        per = predict_branch_periods(frame_d, 2)[j]
        note = "branch period drops to %d" % per if per != full // 2 else ""
        return (name, 2 * per, "I2:s2", note)
    if kind == "Bsys1":
        if frame_d.node_parity(j) == "ee":
            return ("A_%d" % (k - 1), coxeter_order((3,) * (k - 2)), "Bsys1:s2-ee",
                    "the short-label generator reduces to the identity")
        return (name, full, "Bsys1:s2-oe", "")
    if kind == "Bsys2":
        cj = frame_d.node_parity(j)
        ce = frame_d.node_parity(j + k - 1)
        if "ee" in (cj, ce):
            raise AssertionError("unreachable parity pair %s" % ((cj, ce),))
        row = "Bsys2:s2-%s-%s" % (cj, ce)
        if ce == "oe" and (cj == "oe" or k % 2 == 0):
            return (name + "/{±e}", full // 2, row, "")
        return (name, full, row, "")
    return (name + "/{±e}", full // 2, "F4:s2", "")


# ---------------------------------------------------------------------------
# Euclidean classification

_OTHER_NOTE = ("no toroid row applies: the reduction either fails to have "
               "involutory generators or is locally projective rather than toroidal")


def predicted_type_vector(diagram, window, modulus):
    """(row id, predicted q) from the classification rules, or (None, None)."""
    win = _check_window(diagram, window)
    s = _check_modulus(modulus)
    match = _match(diagram, win, _euclidean_system)
    if match is None:
        raise ValueError("window does not match a Euclidean basic system")
    system, _, frame_d, frame_w = match
    return _predict_row(system, frame_d, frame_w, s)


def _predict_row(system, frame_d, frame_w, s):
    """predicted_type_vector for a window already resolved to its frame.

    The rules read s, m, the parity classes cj and ce of the window's end
    nodes in the frame (classes see the ambient diagram, so embedding
    constraints enter here) and ml, the Cartan integer from node j toward its
    left neighbour (0 at the diagram edge).
    """
    m = len(frame_w) - 1
    cj = frame_d.node_parity(frame_w[0])
    ce = frame_d.node_parity(frame_w[-1])
    ml = frame_d.side_integers(frame_w[0])[0]

    def row(suffix, q, k=1):
        """The row id and the type vector (q^k, 0^(m-k))."""
        return system + ":" + suffix, (q,) * k + (0,) * (m - k)

    if s == 2 and system in ("P5", "P6", "P7"):
        return None, None
    if system in ("P5", "P7"):
        return row("any", s)
    if system == "P6":
        if s % 3:
            return row("s-not-div-3", s)
        if ml % 3:
            return row("s-div3-m-pm1", s)
        return "P6:s-div3-m-0", (s // 3, s // 3)
    if s % 2:
        return row("odd", s)
    # s even: P3 and P9 read the last node's class, the rest both end classes
    if system == "P3":
        if ce == "oe":
            return row("even-end-oe", s, 2)
        if ce == "ee" and s >= 4:
            return row("even-end-ee", s)
    elif system == "P9":
        if ce == "oe":
            return "P9:even-a-oe", (2 * s,)
        if ce == "ee" and s >= 4:
            return row("even-a-ee", s)
    elif s == 2:
        if system == "P1" and m % 2 and (cj, ce) == ("oo", "oo"):
            return row("s2-both-oo", s)
        if system in ("P2", "P8") and (cj, ce) == ("oe", "oe"):
            return row("s2-both-oe", s)
    elif system == "P1":
        if m % 2 == 0:
            return row("even-meven", s // 2, m)
        if "oo" in (cj, ce):
            return row("even-modd-some-oo", s)
        if (cj, ce) == ("oe", "oe"):
            return row("even-modd-both-oe", s // 2, m)
    elif system in ("P2", "P8"):
        if "oe" in (cj, ce):
            return row("even-some-oe", s)
        if (cj, ce) == ("ee", "ee"):
            return row("even-both-ee", s // 2)
    elif system == "P4":
        if cj == "oo":
            return row("even-j-oo", s)
        if cj == "oe":
            return row("even-j-oe", s // 2, 2)
    return None, None


# ---------------------------------------------------------------------------
# window classification

def _section(diagram, win, got, s, collapse, rep):
    """SectionClass of a window at modulus s; got is its TranslationSubgroup
    or its spherical match.  collapse is predict_collapse(diagram, s); rep,
    ModularRep(diagram, s), gives a spherical window's printed generators
    (a flip conjugates the group, so only the prediction reads the frame)."""
    if isinstance(got, TranslationSubgroup):
        flipped = got.flipped
        row_id, predicted_q = _predict_row(got.system, got.frame_diagram, got.frame_window, s)
        tv = type_vector(got, s)
        fields = dict(kind="Other" if row_id is None else "Euclidean",
                      # named by the as-read branch periods, e.g. "[4,3,4]"
                      family="[%s]" % ",".join("oo" if p == INFINITY else str(p)
                                               for p in _periods(diagram, win)),
                      predicted_q=predicted_q,
                      measured_q=None if tv is None else tv.vector,
                      annotation=_OTHER_NOTE if row_id is None else "")
    else:
        (kind, k), flipped, frame_d, frame_w = got
        family, order, row_id, note = _spherical_predict(kind, k, frame_d, frame_w, s)
        measured = Verifier(rep.select(win), s).segment_order(0, len(win))
        fields = dict(kind="Spherical", family=family, predicted_order=order,
                      measured_order=measured, annotation=note)
    return SectionClass(window=(win[0], win[-1]), modulus=s, flipped=flipped,
                        collapsed=any(collapse[i] for i in win),
                        constraints_row_id=row_id, **fields)


def classify_spherical(diagram, window, modulus):
    """Classify a spherical window: predicted group and order vs measured order."""
    win = _check_window(diagram, window)
    s = _check_modulus(modulus)
    got = _match(diagram, win, _spherical_system)
    if got is None:
        raise ValueError("window does not match a spherical basic system")
    return _section(diagram, win, got, s, predict_collapse(diagram, s), ModularRep(diagram, s))


def classify_euclidean(diagram, window, modulus):
    """Classify a Euclidean window: predicted vs measured type vector."""
    win = _check_window(diagram, window)
    s = _check_modulus(modulus)
    return _section(diagram, win, translation_generators(diagram, win), s,
                    predict_collapse(diagram, s), None)


@functools.lru_cache(maxsize=1)
def _windows(diagram):
    """(window, got) for _section, for each maximal matched window by start
    node; callers share the result and only read it.  One diagram is kept:
    the CLI and the registry classify a diagram at all its moduli in a row."""
    n = diagram.rank
    kept = []
    for length in range(n, 0, -1):
        for start in range(0, n - length + 1):
            win = tuple(range(start, start + length))
            if any(w[0] <= win[0] and win[-1] <= w[-1] for w, _ in kept):
                continue
            if _match(diagram, win, _euclidean_system) is not None:
                kept.append((win, translation_generators(diagram, win)))
            elif (got := _match(diagram, win, _spherical_system)) is not None:
                kept.append((win, got))
    return tuple(sorted(kept, key=lambda item: item[0]))


def classify(diagram, modulus):
    """Classify every maximal spherical or Euclidean window of the diagram.

    Windows strictly contained in a longer matched window are dropped;
    overlapping maximal windows are all reported, sorted by start node.
    """
    s = _check_modulus(modulus)
    collapse = predict_collapse(diagram, s)
    rep = ModularRep(diagram, s)
    return [_section(diagram, win, got, s, collapse, rep) for win, got in _windows(diagram)]


# ---------------------------------------------------------------------------
# splitting, faithfulness, and the quotient criterion

def _translation_meet(tsub, s, lo, hi, kernel):
    """Intersection of T^s with the group of segment [lo, hi) of tsub's frame.

    kernel is _kernel_data(tsub, s).  Walks one exponent vector per
    nontrivial class of Z^m modulo the kernel lattice, in order, and stops at
    the first translation in the segment group.
    """
    group = Verifier(ModularRep(tsub.frame_diagram, s).mats, s).chain(lo, hi)
    _, pows, basis, pivots, _ = kernel
    checked, witness = 0, None
    for rep_a in itertools.product(*(range(r[p]) for r, p in zip(basis, pivots))):
        if not any(rep_a):
            continue
        checked += 1
        if group.member(_chain_power(pows, rep_a, s)):
            witness = list(rep_a)
            break
    return {
        "subgroup_order": group.order(),
        "translations_checked": checked,
        "trivial": witness is None,
        "witness_exponents": witness,
    }


def check_translation_splitting(diagram, window, modulus):
    """Check the translation splitting of a Euclidean window mod s.

    Returns a report with: (a) |E^s| = |T^s| . |H^s| and whether the point
    group survives with its full order; (b) whether the window subgroup is a
    string C-group mod s; (c) whether T^s acts faithfully on the window
    submodule, plus the measured intersection of T^s with the subgroup
    generated by everything to the right of node j (in the printed frame;
    for a flip-matched window this is the mirror-image statement).
    """
    win = _check_window(diagram, window)
    s = int(modulus)
    tsub = translation_generators(diagram, win)
    frame_d, frame_w = tsub.frame_diagram, tsub.frame_window
    n = frame_d.rank
    rep = ModularRep(frame_d, s)

    # the window's own verifier: E^s is its whole group, H^s drops node 0
    window_v = Verifier(rep.select(frame_w), s)
    order_e = window_v.segment_order(0, len(frame_w))
    order_h = window_v.segment_order(1, len(frame_w))
    kernel = _kernel_data(tsub, s)
    periods, _, basis, _, order_t = kernel
    splitting = {
        "order_E": order_e,
        "order_H": order_h,
        "order_T": order_t,
        "product_ok": order_e == order_t * order_h,
        "H_faithful": order_h == tsub.point_order,
    }

    window_rep = window_v.verify()
    scg = {"verdict": window_rep.verdict, "ok": window_rep.ok}

    # kernel of the action on the window submodule: a . W = 0 mod s
    m = tsub.m
    grid = np.indices(periods).reshape(m, -1).T
    wmat = np.array([list(r) for r in tsub.w_rows], dtype=np.int64)
    mask = ((grid @ wmat) % s == 0).all(axis=1)
    rows = [tuple(int(x) for x in v) for v in grid[mask]]
    for i in range(m):
        rows.append(tuple(periods[i] if t == i else 0 for t in range(m)))
    kv_basis, kv_piv = _row_hnf(rows, m)
    faithful = list(kv_basis) == list(basis)
    faithfulness = {
        "faithful": faithful,
        "kernel_index": order_t,
        "action_kernel_index": _lattice_index(kv_basis, kv_piv, m),
    }

    intersection = {
        "with_nodes": list(range(frame_w[0] + 1, n)),
        "frame_coordinates": tsub.flipped,
        **_translation_meet(tsub, s, frame_w[0] + 1, n, kernel),
    }
    return {
        "window": [win[0], win[-1]],
        "modulus": s,
        "flipped": tsub.flipped,
        "splitting": splitting,
        "string_c_group": scg,
        "faithful_action": faithfulness,
        "intersection": intersection,
    }


@dataclass(frozen=True)
class QuotientResult:
    """Outcome of the spherical-or-Euclidean facet quotient criterion."""

    verdict: str
    case: str                # "a", "b", or "direct"
    dual: bool
    base_modulus: int
    modulus: int
    checks: tuple

    @property
    def ok(self):
        return self.verdict in ("StringCGroup-by-criterion", "StringCGroup")

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "case": self.case,
            "dual": self.dual,
            "base_modulus": self.base_modulus,
            "modulus": self.modulus,
            "checks": [dict(c) for c in self.checks],
        }


def quotient_criterion(diagram, base, modulus):
    """Lift string-C-group status from a verified base modulus to a multiple.

    Case (a): the facet subgroup (all nodes but the last) is spherical and
    keeps its full order mod base.  Case (b): the facet subgroup is Euclidean
    in its printed frame, so node 0 is the special node j with t_1 = r_j h
    and the point group is <r_1 .. r_{n-2}>; that point group is spherical
    and keeps its full order mod base, and the translation subgroup meets
    <r_1 .. r_{n-1}> trivially at the target modulus.  A facet that is
    Euclidean only read backwards fails case (b).  Either case certifies the
    target without building its stabilizer chain; both are also attempted on
    the flipped diagram (the dual form).  When neither applies, the target
    is verified directly and reported as such.
    """
    s = int(base)
    d = int(modulus)
    if s < 2 or d % s:
        raise ValueError("need base >= 2 and base | modulus")
    base_v = Verifier(ModularRep(diagram, s).mats, s)
    base_rep = base_v.verify()
    checks = []

    def check(name, passed, **detail):
        checks.append({"name": name, "passed": passed, "detail": detail})
        return passed

    def full_order(name, match, lo, hi):
        """Record whether segment [lo, hi), matched as match, keeps its char-0 order mod s."""
        char0 = coxeter_order(_periods(diagram, range(lo, hi)))
        reduced = base_v.segment_order(lo, hi)
        return check(name + " is spherical with full order mod %d" % s, reduced == char0,
                     pattern=match[0][0], char0_order=char0, reduced_order=reduced)

    check("base modulus %d gives a string C-group" % s, base_rep.ok,
          verdict=base_rep.verdict, order=base_rep.order)
    # a rank-1 diagram has an empty facet window: neither case applies
    if base_rep.ok and diagram.rank > 1:
        n = diagram.rank
        for dual in (False, True):
            di = diagram.flip() if dual else diagram
            tag = "dual " if dual else ""
            # the flip reverses the nodes, so the dual facet is the segment
            # [1, n) of the original and both point groups are [1, n-1)
            lo = 1 if dual else 0
            facet = tuple(range(0, n - 1))
            sph = _match(di, facet, _spherical_system)
            if sph is not None:
                if full_order(tag + "facet subgroup", sph, lo, lo + n - 1):
                    return QuotientResult("StringCGroup-by-criterion", "a", dual, s, d,
                                          tuple(checks))
                continue
            euc = _match(di, facet, _euclidean_system)
            if euc is None:
                check(tag + "facet subgroup matches no spherical or Euclidean system", False)
                continue
            if euc[1]:    # matched only in the flipped frame
                check(tag + "facet subgroup is Euclidean only with its special node last",
                      False)
                continue
            # the point group of a printed Euclidean system is spherical
            psph = _match(di, tuple(range(1, n - 1)), _spherical_system)
            if not full_order(tag + "point group", psph, 1, n - 1):
                continue
            tsub = translation_generators(di, facet)
            kernel = _kernel_data(tsub, d)
            meet = _translation_meet(tsub, d, 1, n, kernel)
            if check(tag + "translation intersection trivial mod %d" % d, meet["trivial"],
                     t_order=kernel[4], **meet):
                return QuotientResult("StringCGroup-by-criterion", "b", dual, s, d,
                                      tuple(checks))
    direct = verify_diagram(diagram, d)
    check("direct verification mod %d" % d, direct.ok,
          verdict=direct.verdict, order=direct.order)
    return QuotientResult(direct.verdict, "direct", False, s, d, tuple(checks))
