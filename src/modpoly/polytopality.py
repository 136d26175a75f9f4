"""String C-group verification for finite matrix groups.

A string group generated by involutions (sggi) is a group with an ordered
generator list in which every generator squares to the identity, none is
trivial, and generators two or more apart along the string commute.  An
sggi is a string C-group when the intersection condition holds: every
prefix subgroup meets every suffix subgroup exactly in the segment they
share.  String C-groups are the automorphism groups of abstract regular
polytopes (McMullen and Schulte, Abstract Regular Polytopes, 2002), with
the period of r_{i-1} r_i giving entry i of the Schlafli symbol.

Checking all segment pairs is not necessary.  When <r_0 .. r_{n-2}> is
already known to be a string C-group it suffices to check the top layer

    <r_0 .. r_{n-2}>  meet  <r_k .. r_{n-1}>  =  <r_k .. r_{n-2}>

for 1 <= k <= n-1 (op. cit., Section 2E).  The verifier below unrolls
that recursion from rank 2 upward, so each layer's checks run only after
the layer below is established.  The groups of contiguous generator
segments are cached and shared between checks.  A segment group of at most
_LIST_BOUND elements is kept as its element list (engine's "Listed
groups"); a larger one gets a deterministic stabilizer chain, and its
closure is not tried again for the segments that contain it.  A check
sifts the elements of a listed side through the other group, or else
counts the cosets of the shared segment <r_k .. r_{n-2}> in the smaller
side that lie in the other (engine's "Coset walk"), so segments at an end
of the string, or of a block between commuting cuts (below), give only
orders and memberships and may be lifted chains.

Commuting cuts.  A cut is a position c, 0 < c < rank, where the
coordinates that r_0 .. r_{c-1} move (rows or columns that differ from the
identity mod d) are disjoint from those that r_c .. r_{rank-1} move, as at
a "," in the diagram (a 2 in the Schlafli symbol).

    Both sides are block diagonal on complementary coordinates,
    so they commute elementwise and meet only in the identity:
    a segment across c is A_1 x A_2, and (A_1 x A_2) meet (B_1 x B_2)
    = (A_1 meet B_1) x (A_2 meet B_2).

So a segment's order is the product of its pieces' orders, and no group is
built across a cut.  A check (r, k) with a cut c, k <= c <= r-1, holds
outright: its sides meet in <r_k .. r_{c-1}> x <r_c .. r_{r-2}>.  Otherwise,
with c the last cut below k (0 without one), the check measures
<r_c .. r_{r-2}> in place of <r_0 .. r_{r-2}>: the factor dropped meets the
other side trivially.  A segment that touches a block end (lo or hi is 0, a
cut or rank) gives only orders and memberships; the shared segment
touches none.

Faithful segments.  Let m_i be the measured period of r_i r_{i+1}, the
entries of the Schlafli symbol.  For a segment [lo, hi) with no cut inside,
W = W_[lo,hi) is the Coxeter group with m_{i,i+1} = m_i and m_ij = 2
further apart.  Once the sggi checks pass, the segment group G satisfies
W's relations, so it is a quotient of W.  The segment is faithful when W is
finite (`diagram.coxeter_order`) and |G| = |W|; then G is W.

    Matrices read from a diagram at d >= 3 make every segment whose char-0
    group is finite faithful: the kernel of GL_n(Z) -> GL_n(Z_d) is
    torsion-free (Minkowski), so it meets that finite group trivially,
    and the measured periods are its own.  At d = 2, and for words, the
    measured order decides (B_m and F_4 mod 2 are not faithful).
    A sub-segment of a faithful segment is faithful: its W is a standard
    parabolic subgroup of the larger W, on which the isomorphism restricts.

Standard parabolic subgroups of a Coxeter group meet in the parabolic
subgroup of the shared generators (Humphreys, Reflection Groups and Coxeter
Groups, Section 5.5), and an isomorphism keeps the meets.  So at layer r,
with c the last cut below r:

- If [c, r) is faithful, every check with k > c holds.
- Otherwise, if the vertex figure [c+1, r) is faithful, only k = c+1 is
  computed.  The facet group <r_c .. r_{r-2}> is a string C-group by the
  layers below, the vertex-figure group is one as a Coxeter group, and
  k = c+1 asks that the two meet in <r_{c+1} .. r_{r-2}>.  By McMullen and
  Schulte, op. cit., Proposition 2E16(a), a pass makes <r_c .. r_{r-1}> a
  string C-group, so the remaining checks hold.
- A failing k = c+1 is the layer's first computed check with or without
  the shortcut (the checks k <= c are never computed), so verification
  stops there with the same witness, and the report does not change.

The verifier tests [lo, hi) through the longest spherical segment [lo, top)
that holds it, or else on its own.  The first test waits until the group of
[lo, top) is at hand, as it is from the start when top ends a block; the
second builds the group of [c+1, r), a side of the check k = c+1, or of
[c, r), the next layer's facet.  So the tests build no group that the
checks would not, except that of [c, r) when it is spherical but not
faithful and layer r fails.
A spherical segment's chain takes |W| as its order bound (engine's "Order
bound").
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import (
    BoundExceeded,
    Listed,
    OrderGuardExceeded,
    StabChain,
    element_period,
    enumerate_small,
    intersection_order,
)
from .diagram import coxeter_order
from .matrep import ModularRep

STRING_C_GROUP = "StringCGroup"
NOT_SGGI = "NotSGGI"
INTERSECTION_FAILS = "IntersectionFails"
DEGENERATE = "Degenerate"

_CLOSURE_BOUND = 200_000  # closure cap for generators that are not involutions
_LIST_BOUND = 256         # largest segment group kept as an element list


@dataclass
class CheckRecord:
    """One verification step: a name, a pass flag, a witness when failed."""

    name: str
    passed: bool
    witness: dict = None

    def to_dict(self):
        out = {"name": self.name, "pass": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationReport:
    modulus: int
    verdict: str
    order: int
    schlafli: tuple
    checks: list
    diagram: str = None
    words: tuple = None

    @property
    def ok(self):
        return self.verdict == STRING_C_GROUP

    def to_dict(self):
        out = {
            "diagram": self.diagram,
            "modulus": self.modulus,
            "verdict": self.verdict,
            "schlafli": None if self.schlafli is None else list(self.schlafli),
            "order": str(self.order),
            "checks": [c.to_dict() for c in self.checks],
        }
        if self.words is not None:
            out["words"] = [list(w) for w in self.words]
        return out


class Verifier:
    """Decides the string C-group property for a list of involution matrices.

    Generators are indexed 0 .. rank-1 in string order.  The listed groups
    and stabilizer chains of contiguous segments [lo, hi) are cached across
    checks; the verifier asks for none across a commuting cut (module
    docstring), and segment_order multiplies the orders of the pieces
    between cuts and applies the order guard to the product.  Faithful
    segments settle checks (module docstring).
    """

    def __init__(self, mats, modulus, order_guard=None, orbit_guard=1_000_000):
        self.mats = [np.asarray(m, dtype=np.int64) % modulus for m in mats]
        self.modulus = modulus
        self.rank = len(self.mats)
        self.dim = self.mats[0].shape[0] if self.mats else 0
        self.order_guard = order_guard
        self.orbit_guard = orbit_guard
        self.cuts = _cuts(self.mats, modulus)
        self._ends = {0, *self.cuts, self.rank}  # the ends of the blocks between cuts
        self._chains = {}
        self._tops = {}  # lo -> end of the longest spherical segment from lo

    def chain(self, lo, hi):
        key = (lo, hi)
        if key not in self._chains:
            self._chains[key] = self._group(lo, hi)
        return self._chains[key]

    @cached_property
    def periods(self):
        """The period of each r_i r_{i+1}; 0 when it passes element_period's cap."""
        out = []
        for a, b in zip(self.mats, self.mats[1:]):
            try:
                out.append(element_period(a @ b % self.modulus, self.modulus))
            except BoundExceeded:
                out.append(0)
        return tuple(out)

    def _coxeter_order(self, lo, hi):
        """|W| of the segment [lo, hi), None when infinite or not an sggi."""
        return coxeter_order(self.periods[lo:hi - 1]) if self._generator_checks[0] else None

    def _group(self, lo, hi):
        mats = self.mats[lo:hi]
        # a segment holds its two sub-segments, so one past the bound is too
        if all(self._chains[k].order() <= _LIST_BOUND
               for k in ((lo, hi - 1), (lo + 1, hi)) if k in self._chains):
            try:
                return Listed(mats, self.modulus, n=self.dim, bound=_LIST_BOUND)
            except BoundExceeded:
                pass
        # segments at a block end give orders and memberships only (module docstring)
        return StabChain(mats, self.modulus, n=self.dim, order_bound=self._coxeter_order(lo, hi),
                         order_only=lo in self._ends or hi in self._ends)

    def _faithful(self, lo, hi):
        """Whether [lo, hi), inside one block, is faithful (module docstring)."""
        if lo not in self._tops:
            end = min(e for e in self._ends if e > lo)
            top = lo + 1
            while top < end and self._coxeter_order(lo, top + 1) is not None:
                top += 1
            self._tops[lo] = top
        top = self._tops[lo]
        # the longest spherical segment from lo settles [lo, hi) once its
        # group is at hand; until then [lo, hi) is tried on its own
        tried = (top, hi) if (lo, top) in self._chains else (hi,)
        return hi <= top and any(self.chain(lo, h).order() == self._coxeter_order(lo, h)
                                 for h in tried)

    def segment_order(self, lo, hi):
        ends = [lo, *(c for c in self.cuts if lo < c < hi), hi]
        return self._guarded(math.prod(self.chain(a, b).order()
                                       for a, b in zip(ends, ends[1:]) if a < b))

    def _guarded(self, order):
        """The order, once it is checked against the order guard."""
        if self.order_guard is not None and order > self.order_guard:
            raise OrderGuardExceeded("order %d exceeds guard %d" % (order, self.order_guard))
        return order

    def schlafli(self):
        # a period past the cap divides the order of the whole group, whose
        # blocks verify() has already listed or put in chains
        return tuple(p or element_period(self.mats[i] @ self.mats[i + 1] % self.modulus,
                                         self.modulus, cap=self.segment_order(0, self.rank))
                     for i, p in enumerate(self.periods))

    @cached_property
    def _generator_checks(self):
        """(sggi, involutions, check records) for the generators."""
        ident = np.eye(self.dim, dtype=np.int64) % self.modulus
        stack = np.array(self.mats).reshape(self.rank, self.dim, self.dim)
        prods = stack[:, None] @ stack[None] % self.modulus  # prods[i, j] = r_i r_j
        gens = np.arange(self.rank)
        square_oks = (prods[gens, gens] == ident).all(axis=(1, 2)).tolist()
        trivials = (stack == ident).all(axis=(1, 2)).tolist()
        commutes = (prods == prods.swapaxes(0, 1)).all(axis=(2, 3)).tolist()
        checks = []
        sggi = True
        involutions = True
        for i, (square_ok, trivial) in enumerate(zip(square_oks, trivials)):
            ok = square_ok and not trivial
            wit = None
            if not square_ok:
                involutions = False
            if not ok:
                sggi = False
                wit = {"generator": i,
                       "reason": "identity" if trivial else "square is not the identity"}
            checks.append(CheckRecord("involution r%d" % i, ok, wit))
        for i in range(self.rank):
            for j in range(i + 2, self.rank):
                ok = commutes[i][j]
                if not ok:
                    sggi = False
                checks.append(CheckRecord("commute r%d r%d" % (i, j), ok,
                                          None if ok else {"pair": [i, j]}))
        return sggi, involutions, checks

    def verify(self):
        if self.rank == 0:
            return VerificationReport(self.modulus, DEGENERATE, 1, (), [])
        sggi, involutions, checks = self._generator_checks
        checks = list(checks)
        if not involutions:
            # no stabilizer chain without involutions; order by plain closure
            size = self._guarded(int(enumerate_small(self.mats, self.modulus,
                                                     bound=_CLOSURE_BOUND).shape[0]))
            return VerificationReport(self.modulus, NOT_SGGI, size, None, checks)
        order = self.segment_order(0, self.rank)
        schlafli = self.schlafli()
        if not sggi:
            return VerificationReport(self.modulus, NOT_SGGI, order, schlafli, checks)
        for r in range(2, self.rank + 1):
            # the last cut at or below r-1; checks with k <= held hold, and with
            # a faithful vertex figure a passed k = c+1 settles the layer
            # (module docstring)
            c = max((cut for cut in self.cuts if cut < r), default=0)
            held = r if c + 1 < r and self._faithful(c, r) else c
            vertex = held < r - 1 and self._faithful(c + 1, r)
            for k in range(1, r):
                if k <= held:
                    checks.append(CheckRecord("intersection r=%d k=%d" % (r, k), True))
                    continue
                expected = self.segment_order(k, r - 1)
                measured = intersection_order(
                    self.chain(c, r - 1), self.chain(k, r),
                    self.chain(k, r - 1) if k < r - 1 else None,
                    orbit_guard=self.orbit_guard)
                ok = measured == expected
                wit = None
                if not ok:
                    wit = {"rank": r, "k": k, "expected": expected,
                           "measured": measured, "index": measured // expected}
                checks.append(CheckRecord("intersection r=%d k=%d" % (r, k), ok, wit))
                if not ok:
                    return VerificationReport(self.modulus, INTERSECTION_FAILS,
                                              order, schlafli, checks)
                if vertex:
                    held = r
        return VerificationReport(self.modulus, STRING_C_GROUP, order, schlafli, checks)


def _cuts(mats, modulus):
    """The commuting cuts of a generator list (module docstring)."""
    if not mats:
        return ()
    diff = np.stack(mats) != np.eye(mats[0].shape[0], dtype=np.int64) % modulus
    moved = diff.any(axis=1) | diff.any(axis=2)  # per generator, the coordinates it moves
    below = np.logical_or.accumulate(moved)
    above = np.logical_or.accumulate(moved[::-1])[::-1]
    return tuple(c for c in range(1, len(mats)) if not (below[c - 1] & above[c]).any())


def verify_diagram(diagram, modulus, window=None, **guards):
    """Verification report for a diagram's modular reflection group.

    window, when given, is a contiguous index range; the report then covers
    the subgroup those reflections generate.  An empty window is Degenerate.
    """
    rep = ModularRep(diagram, modulus)
    window = range(diagram.rank) if window is None else list(window)
    v = Verifier(rep.select(window), modulus, **guards)
    report = v.verify()
    report.diagram = diagram.subdiagram(window).render() if len(window) else ""
    return report


def word_matrices(rep, words):
    """Products of generator words (index sequences into rep's generators)."""
    ident = np.eye(rep.rank, dtype=np.int64) % rep.modulus
    out = []
    for w in words:
        m = ident
        for idx in w:
            if not 0 <= idx < rep.rank:
                raise ValueError("word index %d out of range" % idx)
            m = m @ rep.mats[idx] % rep.modulus
        out.append(m)
    return out


def verify_words(diagram, modulus, words, **guards):
    """Verification report for the subgroup generated by generator words."""
    rep = ModularRep(diagram, modulus)
    v = Verifier(word_matrices(rep, words), modulus, **guards)
    report = v.verify()
    report.diagram = diagram.render()
    report.words = tuple(tuple(w) for w in words)
    return report
