"""Exact reflection representations of a diagram and their reductions mod d.

The representation acts on the based module Z^n by

    r_i(b_j) = b_j + m_ij b_i

where m is the Cartan matrix of the diagram (m_ii = -2, so r_i(b_i) = -b_i).
All matrices are integer numpy arrays acting on column vectors; reduction
mod d takes entries into [0, d).

The package's one exact elimination over Z or Q is the integer Hermite
normal form `_row_hnf`: `radical_vector` reads the radical of a window's
Gram form from it, working on the integer form 2B = (-m_ij a_i), and
`modpoly.toroids` compares its lattices in it.  Only the public
`gram_matrix` writes B itself, in Fractions.
"""

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
    if d >= 2 ** 63:  # past int64, where the residues are kept
        raise ValueError("modulus must be below 2^63")
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
    from fractions import Fraction  # only here: no solver path needs it

    n = diagram.rank
    cart = diagram.cartan_matrix()
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = Fraction(diagram.labels[i])
        for j in range(n):
            if i != j:
                g[i][j] = Fraction(-cart[i][j] * diagram.labels[i], 2)
    return g


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


def radical_vector(diagram, window=None):
    """Primitive integer spanning vector of the window Gram form's radical.

    Raises ValueError unless the radical is one-dimensional.  The result is
    sign-fixed so its first nonzero entry is positive and is returned in
    window coordinates.

    The rows (2B_i | e_i) of the k-node window, B its Gram form, span
    {(2xB | x)}; 2B is the integer matrix (-m_ij a_i), with 2a_i on the
    diagonal since m_ii = -2.  In their Hermite normal form the rows whose
    pivot lies past column k are (0 | c) with c a basis of the integer
    kernel of B.  That kernel is saturated, so a single such row is
    primitive, and its pivot, its first nonzero entry, is positive.
    """
    if window is None:
        window = range(diagram.rank)
    sub = diagram.subdiagram(window)
    k = sub.rank
    rows = [[-m * a for m in row] + [int(i == r) for i in range(k)]
            for r, (row, a) in enumerate(zip(sub.cartan_matrix(), sub.labels))]
    basis, pivots = _row_hnf(rows, 2 * k)
    kernel = [row[k:] for row, p in zip(basis, pivots) if p >= k]
    if len(kernel) != 1:
        raise ValueError("radical is %d-dimensional, expected 1" % len(kernel))
    return kernel[0]


def embed_window_vector(vec, window, rank):
    """Place window-coordinate integers into an ambient length-rank vector."""
    out = np.zeros(rank, dtype=np.int64)
    for val, idx in zip(vec, window):
        out[idx] = val
    return out


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
