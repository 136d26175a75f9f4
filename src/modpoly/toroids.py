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
scaled reference lattices q . span(orbit of t_(m-k+1) ... t_m) of the
legal shapes.  Lattices are compared in one coordinate system, that of the
translation vectors w with t - e = c (x) w on the window columns: the
orbit spans are formed there, and K is carried there by a -> sum a_i w_i.
The integer HNF `matrep._row_hnf` is the only lattice operation: it is
unique, so containment, indices and the scale q are all read from it.
For toroid background see McMullen & Schulte, "Abstract Regular
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
from .engine import BoundExceeded, prime_factors
from .matrep import (
    ModularRep,
    _row_hnf,
    embed_window_vector,
    predict_branch_periods,
    predict_collapse,
    radical_vector,
    reflection_matrices,
)
from .polytopality import Verifier, verify_diagram

_ORBIT_BOUND = 4000     # safety cap on conjugacy orbits of translations and sigma_k
_BOX_BOUND = 1 << 22    # safety cap on the exponent box of a kernel lattice


# ---------------------------------------------------------------------------
# integer lattice utilities (row lattices, Hermite normal form)

def _index_in(rows, ref, ref_pivots):
    """Index of span(rows) in the HNF lattice ref, 0 if rank-deficient.

    ValueError when a row lies outside ref, that is HNF(rows + ref) != ref.
    Equal-rank lattices in one space share their HNF pivot columns, so the
    index is a ratio of pivot products."""
    width = len(ref[0])
    if _row_hnf([*rows, *ref], width)[0] != ref:
        raise ValueError("vector lies outside the reference lattice")
    basis, pivots = _row_hnf(rows, width)
    if len(basis) < len(ref):
        return 0
    return (math.prod(r[c] for r, c in zip(basis, pivots))
            // math.prod(r[c] for r, c in zip(ref, ref_pivots)))


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
    diagram.subdiagram(win)
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


@dataclass
class TranslationSubgroup:
    """Standard integer generators of a Euclidean window's translation subgroup."""

    flipped: bool
    system: str
    m: int
    frame_diagram: Diagram
    frame_window: tuple
    mats: list
    w_rows: tuple
    sigma_lattices: dict     # {k: HNF basis of L_k in w coordinates}


# ---------------------------------------------------------------------------
# translation generator construction

def _orbit(start, images, name):
    """Breadth-first orbit of an integer array.

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
    return list(seen.values())


def _translation_row(mat, c_ambient, window):
    """Window-restricted translation vector w with mat - e = c (x) w, or None."""
    n = mat.shape[0]
    diff = mat - np.eye(n, dtype=np.int64)
    cols = diff[:, list(window)]
    w = cols[window[0]]                     # c_ambient[window[0]] == 1 by construction
    if np.array_equal(cols, np.outer(c_ambient, w)):
        return tuple(int(v) for v in w)
    return None


def _conj_orbit(mat, gens, c_ambient, window, name="translation"):
    """Orbit of a translation under conjugation by the point reflections.

    Returns {w row: matrix}; the char-0 window action is faithful, so the
    translation vector determines the matrix.  name names the orbit in the
    BoundExceeded of _orbit.
    """
    seen = _orbit(mat, lambda x: [g @ x @ g for g in gens], name)
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
    """t_1 = r_j s_theta, j = frame_w[0]; see translation_generators.

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
    return t1


def translation_generators(diagram, window):
    """Standard generators t_1..t_m of a Euclidean window's translation subgroup.

    j is the window's first node in its printed frame.  The affine Weyl
    group is the translations times the point group <r_i : i != j>, and
    b_j = c - theta for the radical vector c and the highest root theta of
    the point group, so t_1 = r_j s_theta is a translation (Humphreys,
    "Reflection Groups and Coxeter Groups" 4.2; McMullen & Schulte,
    "Abstract Regular Polytopes" ch. 6).  It is the only one of the form
    r_j h with h in the point group, since the char-0 window action is
    faithful.  In every system the rest follow by successive reflection
    conjugation, t_(i+1) = r_(j+i) t_i r_(j+i), and the w rows of t_1..t_m
    are checked to span the lattice of the conjugacy orbit of t_1.

    sigma_lattices holds, for each legal k, the reference lattice L_k: the
    HNF, over the m + 1 window columns, of the w rows of the conjugacy orbit
    of sigma_k, the product of the last k generators, whose index in the
    full translation lattice is checked against _sigma_indices.  The key
    translation sigma_2 is t_(m-1) t_m: t_3 t_4 for [3,3,4,3] and t_1 t_2
    for [3,6]; in the cubic systems any two generators give the same L_2.
    """
    win = _check_window(diagram, window)
    match = _match(diagram, win, _euclidean_system)
    if match is None:
        raise ValueError("window does not match a Euclidean basic system")
    system, flipped, frame_d, frame_w = match
    m = len(frame_w) - 1
    j = frame_w[0]

    refl = reflection_matrices(frame_d)
    c_win = radical_vector(frame_d, frame_w)
    if c_win[0] != 1:
        raise AssertionError("radical vector does not start at 1: %r" % (c_win,))
    c_amb = embed_window_vector(c_win, frame_w, frame_d.rank)

    point_gens = [refl[i] for i in frame_w[1:]]
    mats = [_first_translation(frame_d, frame_w, c_amb)]
    for i in range(1, m):
        r = refl[j + i]
        mats.append(r @ mats[-1] @ r)
    orbit = _conj_orbit(mats[0], point_gens, c_amb, frame_w)
    full_hnf, full_piv = _row_hnf(orbit, m + 1)
    if len(full_hnf) != m:
        raise AssertionError("translation orbit does not span rank %d" % m)

    # each generator lies in the orbit as a point-reflection conjugate; an
    # index of 1 also shows the w rows are independent
    w_of = {x.tobytes(): w for w, x in orbit.items()}
    w_rows = tuple(w_of[t.tobytes()] for t in mats)
    if _index_in(w_rows, full_hnf, full_piv) != 1:
        raise AssertionError("generators do not span the full translation lattice")

    for a, b in itertools.combinations(mats, 2):
        if not np.array_equal(a @ b, b @ a):
            raise AssertionError("translation generators do not commute")
    # N = t - e has N^3 = 0, so a generator's period mod s divides 2s (module docstring)
    eye = np.eye(frame_d.rank, dtype=np.int64)
    if any(np.linalg.matrix_power(t - eye, 3).any() for t in mats):
        raise AssertionError("generator is not unipotent of the expected depth")

    sigma_lattices = {}
    for k, want in _sigma_indices(_FAMILY_KIND[system], m).items():
        sig_orbit = _conj_orbit(functools.reduce(np.matmul, mats[m - k:]), point_gens, c_amb,
                                frame_w, "sigma")
        idx = _index_in(sig_orbit, full_hnf, full_piv)
        if idx != want:
            raise AssertionError("sigma lattice for k=%d has index %d, expected %d" % (k, idx, want))
        sigma_lattices[k] = _row_hnf(sig_orbit, m + 1)[0]

    return TranslationSubgroup(
        flipped=flipped, system=system, m=m, frame_diagram=frame_d, frame_window=frame_w,
        mats=mats, w_rows=w_rows, sigma_lattices=sigma_lattices,
    )


# ---------------------------------------------------------------------------
# kernel lattice and type vectors

def _translation_period(t, s):
    """Period of a translation generator t mod s, in closed form.

    N = t - e has N^3 = 0, so t^k = e + kN + C(k,2) N^2 and t^(2s) = e mod s;
    the period is 2s with each prime divided out while the power stays e.
    """
    n1 = (t - np.eye(len(t), dtype=np.int64)).astype(object)
    n2 = n1 @ n1
    p = 2 * s
    for q in set(prime_factors(2 * s)):
        while p % q == 0:
            k = p // q
            if ((k * n1 + k * (k - 1) // 2 * n2) % s).any():
                break
            p = k
    return p


def _period_floor(t, s):
    """A lower bound on the period k of a translation generator t mod s,
    found without factoring s.

    N = t - e has N^3 = 0, so t^k = e gives kN + C(k,2) N^2 = 0 mod s.  Times
    N that is k N^2 = 0, and times 2k it is 2k^2 N + k(k-1) k N^2 = 2k^2 N = 0.
    So s / gcd(s, 2g) divides k^2, g the gcd of N's entries, and k is at
    least its square root.
    """
    g = math.gcd(*(t - np.eye(len(t), dtype=np.int64)).ravel().tolist())
    return math.isqrt(s // math.gcd(s, 2 * g) - 1) + 1


def _kernel_data(tsub, s):
    """Kernel lattice of (a -> t_1^a1 ... t_m^am mod s), with generator powers.

    Returns (pows, basis, pivots, index): pows[i][a] = t_i^a mod s below the
    period p_i of t_i.  The kernel contains each p_i * e_i, so the coset box
    over the periods covers every class; its identity hits span the kernel.
    The periods are read in closed form (`_translation_period`), and
    BoundExceeded is raised before any power table is built when the box
    would hold more than _BOX_BOUND exponent vectors, and before 2s is
    factored when the periods' lower bounds (`_period_floor`) already say
    so.  Nothing is cached: a caller that needs the data twice keeps the tuple.
    """
    m = tsub.m
    n = tsub.frame_diagram.rank
    eye = np.eye(n, dtype=np.int64)
    floors = [_period_floor(t, s) for t in tsub.mats]
    if math.prod(floors) > _BOX_BOUND:
        raise BoundExceeded("exponent box of at least %s exceeds bound %d"
                            % (" x ".join(map(str, floors)), _BOX_BOUND))
    periods = [_translation_period(t, s) for t in tsub.mats]
    box = math.prod(periods)
    if box > _BOX_BOUND:
        raise BoundExceeded("exponent box %s exceeds bound %d"
                            % (" x ".join(map(str, periods)), _BOX_BOUND))
    pows = []
    for t, p in zip(tsub.mats, periods):
        tm = t % s
        arr = np.empty((p, n, n), dtype=np.int64)
        arr[0] = eye
        for a in range(1, p):
            arr[a] = arr[a - 1] @ tm % s
        pows.append(arr)
    acc = eye[None]
    for i in range(m - 1):
        acc = np.einsum("aij,bjk->abik", acc, pows[i]).reshape(-1, n, n) % s
    found = []
    prefix = tuple(periods[:-1])
    for b in range(periods[-1]):
        cur = acc @ pows[-1][b] % s
        hits = np.nonzero((cur == eye).all(axis=(1, 2)))[0]
        for hidx in hits:
            a = np.unravel_index(int(hidx), prefix)
            found.append(tuple(int(x) for x in a) + (b,))
    rows = list(found)
    for i in range(m):
        rows.append(tuple(periods[i] if t == i else 0 for t in range(m)))
    basis, pivots = _row_hnf(rows, m)
    index = math.prod(r[c] for r, c in zip(basis, pivots))
    if index * len(found) != box:
        raise AssertionError("kernel box count does not match the lattice index")
    return pows, tuple(basis), pivots, index


def _chain_power(pows, exponents, s):
    """t_1^a1 ... t_m^am mod s from the power tables."""
    out = pows[0][exponents[0] % pows[0].shape[0]]
    for arr, a in zip(pows[1:], exponents[1:]):
        out = out @ arr[a % arr.shape[0]] % s
    return out % s


def type_vector(tsub, modulus):
    """Type vector (q^k, 0^(m-k)) of T^s, or None when no legal shape matches.

    The kernel lattice K is carried into w coordinates, a -> sum a_i w_i,
    and compared in Hermite normal form against q times each legal
    reference lattice L_k, in ascending k.  The HNF is unique and
    HNF(q L) = q HNF(L), so q is forced as the ratio of the leading pivots
    of K and L_k (both span the w rows' space, so they share pivot
    columns), and a shape matches only when that ratio divides exactly
    and q HNF(L_k) is K's HNF.
    """
    s = _check_modulus(modulus)
    basis = _kernel_data(tsub, s)[1]
    m = tsub.m
    w_basis, w_piv = _row_hnf(np.array(basis) @ np.array(tsub.w_rows), m + 1)
    for k, lam in tsub.sigma_lattices.items():
        q, rem = divmod(w_basis[0][w_piv[0]], lam[0][w_piv[0]])
        if not rem and [tuple(q * x for x in row) for row in lam] == w_basis:
            return (q,) * k + (0,) * (m - k)
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
        fields = dict(kind="Other" if row_id is None else "Euclidean",
                      # named by the as-read branch periods, e.g. "[4,3,4]"
                      family="[%s]" % ",".join("oo" if p == INFINITY else str(p)
                                               for p in _periods(diagram, win)),
                      predicted_q=predicted_q,
                      measured_q=type_vector(got, s),
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
# the quotient criterion

def _translation_meet(tsub, s, lo, hi, kernel):
    """Intersection of T^s with the group of segment [lo, hi) of tsub's frame.

    kernel is _kernel_data(tsub, s).  Walks one exponent vector per
    nontrivial class of Z^m modulo the kernel lattice, in order, and stops at
    the first translation in the segment group.
    """
    group = Verifier(ModularRep(tsub.frame_diagram, s).mats, s).chain(lo, hi)
    pows, basis, pivots, _ = kernel
    checked, witness = 0, None
    for rep_a in itertools.product(*(range(r[p]) for r, p in zip(basis, pivots))):
        if not any(rep_a):
            continue
        checked += 1
        if group.member_mask(_chain_power(pows, rep_a, s)[None])[0]:
            witness = list(rep_a)
            break
    return {
        "subgroup_order": group.order(),
        "translations_checked": checked,
        "trivial": witness is None,
        "witness_exponents": witness,
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
                     t_order=kernel[3], **meet):
                return QuotientResult("StringCGroup-by-criterion", "b", dual, s, d,
                                      tuple(checks))
    direct = verify_diagram(diagram, d)
    check("direct verification mod %d" % d, direct.ok,
          verdict=direct.verdict, order=direct.order)
    return QuotientResult(direct.verdict, "direct", False, s, d, tuple(checks))
