"""Exact reflection representations of a diagram and their reductions mod d.

The representation acts on the based module Z^n by

    r_i(b_j) = b_j + m_ij b_i

where m is the Cartan matrix of the diagram (m_ii = -2, so r_i(b_i) = -b_i).
All matrices are integer numpy arrays acting on column vectors; reduction
mod d takes entries into [0, d).
"""

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .diagram import Branch, INFINITY


def reflection_matrices(diagram):
    """Integer reflection generators of the real (characteristic 0) group."""
    n = diagram.rank
    out = []
    for i in range(n):
        m = np.eye(n, dtype=np.int64)
        m[i, :] = diagram.cartan_row(i)
        m[i, i] = -1
        out.append(m)
    return out


def reduce_mod(mats, d):
    if d < 2:
        raise ValueError("modulus must be at least 2")
    return [np.asarray(m, dtype=np.int64) % d for m in mats]


class ModularRep:
    """Reflection generators of a diagram reduced mod d."""

    def __init__(self, diagram, modulus):
        self.diagram = diagram
        self.modulus = modulus
        self.mats = reduce_mod(reflection_matrices(diagram), modulus)

    @property
    def rank(self):
        return self.diagram.rank

    def select(self, indices):
        return [self.mats[i] for i in indices]


def gram_matrix(diagram):
    """Exact Gram form as rows of Fractions: b_i.b_i = a_i, b_i.b_j = -m_ij a_i / 2."""
    n = diagram.rank
    cart = diagram.cartan_matrix()
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = Fraction(diagram.labels[i])
        for j in range(n):
            if i != j:
                g[i][j] = Fraction(-cart[i][j] * diagram.labels[i], 2)
    return g


def rref(rows):
    """Exact reduced row echelon form: (nonzero rows as Fraction lists, pivot columns)."""
    pool = [[Fraction(x) for x in r] for r in rows]
    out, pivots = [], []
    for col in range(len(pool[0]) if pool else 0):
        hit = next((r for r in pool if r[col]), None)
        if hit is not None:
            pool.remove(hit)
            hit = [x / hit[col] for x in hit]
            for r in pool + out:
                f = r[col]
                r[:] = [a - f * b for a, b in zip(r, hit)]
            out.append(hit)
            pivots.append(col)
    return out, tuple(pivots)


def radical_vector(diagram, window=None):
    """Primitive integer spanning vector of the window Gram form's radical.

    Raises ValueError unless the radical is one-dimensional.  The result is
    sign-fixed so its first nonzero entry is positive and is returned in
    window coordinates.
    """
    if window is None:
        window = range(diagram.rank)
    sub = diagram.subdiagram(window)
    red, pivots = rref(gram_matrix(sub))
    free = [c for c in range(sub.rank) if c not in pivots]
    if len(free) != 1:
        raise ValueError("radical is %d-dimensional, expected 1" % len(free))
    v = [Fraction(0)] * sub.rank
    v[free[0]] = Fraction(1)
    for row, p in zip(red, pivots):
        v[p] = -row[free[0]]
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    content = gcd(*ints)
    if next(x for x in ints if x) < 0:
        content = -content
    return tuple(x // content for x in ints)


def embed_window_vector(vec, window, rank):
    """Place window-coordinate integers into an ambient length-rank vector."""
    out = np.zeros(rank, dtype=np.int64)
    for val, idx in zip(vec, window):
        out[idx] = val
    return out


def is_transvection(mat, c_ambient, window, modulus):
    """True iff (mat - I) maps every window basis vector into Z_d . c.

    c_ambient must have some entry coprime to the modulus (all radical
    vectors used here do); that entry pins down the scalar per column.
    """
    n = mat.shape[0]
    diff = (np.asarray(mat, dtype=np.int64) - np.eye(n, dtype=np.int64)) % modulus
    c = np.asarray(c_ambient, dtype=np.int64) % modulus
    pivot = None
    for p in range(n):
        if gcd(int(c[p]) % modulus, modulus) == 1:
            pivot = p
            break
    if pivot is None:
        raise ValueError("radical vector has no entry invertible mod %d" % modulus)
    inv = pow(int(c[pivot]), -1, modulus)
    for j in window:
        col = diff[:, j]
        lam = (int(col[pivot]) * inv) % modulus
        if np.any((col - lam * c) % modulus != 0):
            return False
    return True


def predict_collapse(diagram, modulus):
    """Per node: does its reflection reduce to the identity mod d."""
    return tuple(
        modulus == 2 and diagram.node_parity(i) == "ee"
        for i in range(diagram.rank)
    )


def predict_branch_periods(diagram, modulus):
    """Expected period of r_i r_{i+1} mod d, per adjacent pair.

    Finite branch periods survive every d > 2; mod 2 they can drop when a
    flanking reflection collapses or the pair starts to commute.  Infinite
    branches acquire period d, halved or doubled for even d according to
    the parity classes of the two nodes.
    """
    s = modulus
    out = []
    for i, p in enumerate(diagram.branch_periods()):
        left = diagram.node_parity(i)
        right = diagram.node_parity(i + 1)
        if p == INFINITY:
            if s % 2:
                q = s
            elif diagram.branches[i] is Branch.DOUBLE:
                q = s // 2 if left == right == "ee" else s
            else:
                # ratio-4 single bond; the smaller label drives the doubling
                small = left if diagram.labels[i] < diagram.labels[i + 1] else right
                q = 2 * s if small == "oe" else s
        elif s > 2:
            q = p
        elif p == 2:
            q = 1 if left == right == "ee" else 2
        elif p == 4:
            q = 2 if "ee" in (left, right) else 4
        else:
            q = 3
        out.append(q)
    return tuple(out)
