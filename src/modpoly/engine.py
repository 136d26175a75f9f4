"""Deterministic stabilizer chains for groups of integer matrices mod d.

The group acts on the point space Z_d^n (encoded as integers in [0, d^n),
little-endian mixed radix).  Chain elements are the n-by-n matrices
themselves: with base points restricted to basis vectors, the image of a
base point under a matrix is just one of its columns, so sifting never
decodes points and never materializes permutations.  Transversal
representatives and their inverses are stored explicitly per orbit slot;
all inverses are propagated incrementally from the involutory input
generators, so no modular matrix inversion is ever performed.

The construction is the classical deterministic Schreier-Sims procedure
(see Seress, "Permutation Group Algorithms"): each level forms the Schreier
generators of its generators once, tracked by per-(level, generator)
cursors over the append-only orbits; a nontrivial sift residue becomes a
strong generator at the level where it sticks, or opens a new level.  The
resulting chain is verified by construction; `check()` re-derives the
Schreier condition from every strong generator at every level, from
scratch, for use in tests.

Level 0.  A level li > 0 takes as its generators the strong generators
installed at li or deeper.  Level 0 takes the seeds: the elements the chain
was asked to generate, its input involutions, or for a kernel chain (see
"Split order") the kernel elements passed to it, each with its inverse.  The
seeds generate the group, so by Schreier's lemma (Seress ch. 4) their
Schreier generators generate the stabilizer of the first base point, and
those of the other strong generators add nothing.  For an involution g the
Schreier generators at x and at g·x are inverses, s(g·x, g) = s(x, g)^-1,
so a seed equal to its own inverse forms only the one of each pair whose
image slot is at least its own slot.  Deeper levels keep every generator:
there the strong generators at a level or below generate its stabilizer
only once the chain is complete.

At every level an involution g stops where its pass began.  A point y
that g appends is y = g·x with t_y = g·t_x, so g·y = x is already in the
orbit and s(y, g) = t_x^-1·g·g·t_x = I.  A generator's cursor therefore
means: applied to every slot below it but the ones it found itself.  A
chain element is stored as (mat, mat) when it is its own inverse, decided
once when it becomes a seed or a strong generator, so a pass tells an
involution by `gmat is ginv`.

Orbit index.  Each level keeps a dict from encoded point to orbit slot, so
the index takes memory in proportion to the orbit, not to the point space
(the verifier keeps one chain per generator segment).  A stack of points is
looked up with one dict read per point; orbit growth then visits only the
images that the lookup did not find.

Arithmetic.  Every product of chain elements goes through
`StabChain._mul`.  Entries lie in [0, d), so an entry of a product is a
sum of n terms of at most (d-1)^2.  When n*(d-1)^2 < 2^24 the chain stores
its matrices as int32 and every partial sum is an integer that float32
holds exactly: large products run in float32 (BLAS) and are converted back
to integers before the reduction mod d, small ones in int32.  Otherwise
the chain stores and multiplies int64.  The choice depends on n and d
alone.  The terms are nonnegative, so a partial sum taken in any order of
addition is exact too: the products, and every output byte, are the same
under any BLAS thread count or blocking.

Coset walk.  `intersection_order` finds |A ∩ B| as |T| times the number of
cosets gT of a subgroup T of A ∩ B in the smaller group S whose canonical
representative lies in the larger group L (A ∩ B is a union of such
cosets).  A coset gT is named by descending T's chain and, at each level,
multiplying g by the transversal element u for which g·u sends the base
point to the least encoded point of g·(orbit).  A listed T (below) is
first put in a chain of its generators.  The walk goes from T one BFS
layer at a time under S's input generators: the products gen·rep of a
layer, rep-major then generator, are canonicalized as one stack and
deduplicated in that order by their byte keys (below), as one product at a
time would visit them, and the new layer is sifted through L at once.
Canonicalization works in blocks whose temporaries hold about _CHUNK*n
entries: _CHUNK/n candidate matrices, or _CHUNK images.

Listed groups.  A group of a few hundred elements is cheaper to list than
to put in a chain.  `Listed` takes the BFS closure of its generators, one
frontier at a time, and raises BoundExceeded as soon as it holds more than
its bound.  Its elements are int64 mod d.  The products of a frontier are
keyed by their bytes in one pass (a void view read by tolist()), the key
that also dedupes the coset walk, and a membership test is one set lookup
per matrix.  `intersection_order` sifts the elements of a listed side
through the other group.

Lifted order.  A chain built with order_only=True is asked for its order
and memberships, never for elements or coset representatives, so when
p^2 | d for a prime p it may answer from an action on the smaller space
Z_q^n, q = d/p.  The kernel of the reduction G^d -> G^q consists of
matrices I + qX, and since p | q, (I + qX)(I + qY) = I + q(X + Y) mod d:
the kernel is elementary abelian, named by X mod p, and
|G^d| = |G^q| * p^k with k its F_p-rank.  The Schreier-Sims loop is the one
above with matrices kept mod d and point codes taken mod q (a non-faithful
action, Seress ch. 4); a sift residue that is the identity mod q is a
kernel element, and its X joins an F_p echelon basis V instead of the
stash.  The kernel elements are strong generators at every level, and their
Schreier generators are their conjugates by transversal elements, so V is
kept closed under conjugation by the input generators (each new basis
vector queues its conjugates): then every such Schreier generator lies in
V and none is formed.  The order is the product of the basic orbit sizes
times p^dim V; a member sifts to some I + qX with X in V.  p is the largest
prime whose square divides d (a prime, so that F_p is a field and every
pivot is invertible).  The point space Z_d^n is still checked against
PointSpace's limit, so a lifted or split chain overflows exactly where a
direct one would.

Split order.  For a composite d with no square prime factor, an order_only
chain acts on Z_a^n, a the largest prime factor of d and b = d/a.  The
kernel of G^d -> G^a is I mod a, so by the Chinese remainder theorem it
embeds in G^b as a normal subgroup.  A sift residue that is I mod a but not
mod d is a kernel element: its residue mod b and inverse join the kernel
chain, an order_only chain mod b created at the first kernel element (and
split again when b is composite: 30 = 5 * (3 * 2)), kept closed like V
under conjugation by the input involutions.  The order is the product of
the orbit sizes times the kernel chain's; a member sifts mod a to an element
whose residue mod b is a member of the kernel chain, or I without one.
"""

from itertools import repeat

import numpy as np

_CHUNK = 16384
_FLOAT32_EXACT = 2 ** 24  # float32 holds every integer below this
_BLAS_WORK = 2048         # multiply-adds from which float32 BLAS beats int32 matmul


class PointSpaceOverflow(ValueError):
    """d^n exceeds the supported point-index range."""


class OrbitGuardExceeded(RuntimeError):
    """A coset-orbit enumeration outgrew the configured guard."""


class OrderGuardExceeded(RuntimeError):
    """A group order outgrew the configured guard."""


class BoundExceeded(RuntimeError):
    """An element enumeration outgrew the requested bound."""


class PointSpace:
    """Z_d^n, its points coded in [0, d^n) as little-endian mixed radix."""

    def __init__(self, d, n, limit=2 ** 31):
        if d < 2:
            raise ValueError("modulus must be at least 2")
        size = d ** n
        if size > limit:
            raise PointSpaceOverflow("point space %d^%d exceeds %d" % (d, n, limit))
        self.d = d
        self.n = n
        self.size = size
        self.weights = d ** np.arange(n, dtype=np.int64)


class _Store:
    """Append-only array with amortized growth; .view() is the live prefix."""

    def __init__(self, tail_shape, dtype=np.int64, capacity=64):
        self.buf = np.empty((capacity,) + tail_shape, dtype=dtype)
        self.length = 0

    def append(self, block):
        block = np.asarray(block)
        k = block.shape[0]
        need = self.length + k
        if need > self.buf.shape[0]:
            cap = max(need, 2 * self.buf.shape[0])
            grown = np.empty((cap,) + self.buf.shape[1:], dtype=self.buf.dtype)
            grown[: self.length] = self.buf[: self.length]
            self.buf = grown
        self.buf[self.length:need] = block
        self.length = need

    def view(self):
        return self.buf[: self.length]


class _Level:
    """One basic orbit: slots in discovery order, slot 0 the base point.

    Slot i holds the transversal element carrying the base point to the
    i-th orbit point, together with that element's inverse; slot 0 holds
    the identity.  The point is the element's column beta_col, and the
    orbit index maps each encoded point to its slot.
    """

    __slots__ = ("beta_col", "index", "trans", "trans_inv", "cursors")

    def __init__(self, beta_col, space, identity):
        n = identity.shape[0]
        self.beta_col = beta_col
        # the base point is the basis vector e_beta, whose code is d^beta
        self.index = {int(space.weights[beta_col]): 0}
        self.trans = _Store((n, n), identity.dtype)
        self.trans_inv = _Store((n, n), identity.dtype)
        self.trans.append(identity[None])
        self.trans_inv.append(identity[None])
        self.cursors = {}

    @property
    def orbit_size(self):
        return self.trans.length

    def lookup(self, pts):
        """Orbit slots of encoded points, -1 where a point is not in the orbit."""
        return np.fromiter(map(self.index.get, pts.tolist(), repeat(-1)), np.int64, pts.size)


def _pair(mat, inv):
    """A chain element with its inverse, (mat, mat) for an involution: the
    inverse is then the same object (see "Level 0" in the module docstring)."""
    return (mat, mat) if np.array_equal(mat, inv) else (mat, inv)


def _generators(gens, modulus, n):
    """Z_d^n, checked against PointSpace's limit before any int64 product, and
    the generators int64 mod d; n comes from them, or must be given for none."""
    if gens:
        n = len(gens[0])
    elif n is None:
        raise ValueError("empty generator list needs an explicit dimension")
    space = PointSpace(modulus, n)
    return space, [np.asarray(g, dtype=np.int64) % modulus for g in gens]


def _keys(mats):
    """The bytes of each matrix of a stack, in one list (see "Listed groups")."""
    flat = np.ascontiguousarray(mats).reshape(-1, mats.shape[-1] ** 2)
    return flat.view(np.dtype((np.void, flat.shape[1] * flat.itemsize))).ravel().tolist()


def prime_factors(d):
    """The prime factors of d >= 1 with multiplicity, in increasing order."""
    out, p = [], 2
    while p * p <= d:
        while d % p == 0:
            out.append(p)
            d //= p
        p += 1
    return out + [d] * (d > 1)


def square_prime(d):
    """The largest prime p with p^2 | d, or None."""
    primes = prime_factors(d)
    return max((p for p in primes if primes.count(p) > 1), default=None)


class StabChain:
    """Verified stabilizer chain for matrices mod d acting on Z_d^n.

    With order_only=True and a composite modulus the chain acts on a
    smaller space, lifted when p^2 | d for a prime p and split otherwise
    (see "Lifted order" and "Split order" in the module docstring).  It
    answers order and membership, all that the verifier asks of a segment
    at an end of the string, but lists no elements() and gives no coset
    representatives.
    """

    def __init__(self, gens, modulus, n=None, order_only=False):
        self.space, gens = _generators(gens, modulus, n)
        self.modulus = modulus
        self.n = n = self.space.n
        # lifted: the kernel's prime p, and an F_p basis of its X's as (pivot, row)
        self.lift = square_prime(modulus) if order_only else None
        self.kernel = []
        # split: the kernel chain's modulus b, and that chain once it exists
        self.split = self.kernel_chain = None
        if self.lift:
            self.space = PointSpace(modulus // self.lift, n)
        elif order_only and len(prime_factors(modulus)) > 1:
            self.space = PointSpace(prime_factors(modulus)[-1], n)
            self.split = modulus // self.space.d
        self.direct = not (self.lift or self.split)  # acts on all of Z_d^n
        self._narrow = n * (modulus - 1) ** 2 < _FLOAT32_EXACT
        self.dtype = np.int32 if self._narrow else np.int64
        self.identity = np.eye(n, dtype=self.dtype)
        self.gens = []  # (mat, inv, level)
        self.seeds = []  # (mat, inv) the chain was asked to generate: level 0 walks these
        self.levels = []
        self.input_gens = [g.astype(self.dtype) for g in gens]
        # the involutions a kernel is kept closed under conjugation by
        self.conjugators = self.input_gens
        seed = []
        for g in self.input_gens:
            if not np.array_equal(g, self.identity):
                # involutory input: the matrix is its own inverse mod d
                if not np.array_equal(self._mul(g, g), self.identity):
                    raise ValueError("chain input generators must be involutions")
                seed.append((g[None], g[None]))
        self._build(seed)

    def order(self):
        order = (self.lift or 1) ** len(self.kernel)
        for lev in self.levels:
            order *= lev.orbit_size
        return order * (self.kernel_chain.order() if self.kernel_chain else 1)

    def _mul(self, a, b):
        """a @ b mod d, exact (see "Arithmetic" in the module docstring)."""
        if self._narrow and max(a.size, b.size) * a.shape[-1] >= _BLAS_WORK:
            prod = np.matmul(a.astype(np.float32), b.astype(np.float32)).astype(np.int32)
            d = np.int32(self.modulus)
            quot = np.floor_divide(prod, d)
            quot *= d
            prod -= quot
            return prod
        return np.matmul(a, b) % self.modulus

    def _own(self, mats):
        """A fresh copy of matrices, reduced mod d, in the chain's dtype."""
        return (np.asarray(mats, dtype=np.int64) % self.modulus).astype(self.dtype)

    def _mod_space(self, a):
        """Entries reduced mod the modulus of the points acted on."""
        return a if self.direct else a % self.space.d

    def _kernel_x(self, mats):
        """X mod p of kernel elements I + qX, one flat row each."""
        x = (mats.astype(np.int64) - self.identity) // self.space.d % self.lift
        return x.reshape(-1, self.n * self.n)

    def _reduce(self, xs):
        """Rows of xs reduced by the kernel basis; zero exactly on its span."""
        for col, row in self.kernel:
            xs = (xs - xs[:, col, None] * row) % self.lift
        return xs

    def _conjugates(self, x):
        """g X g mod p for each conjugator g (an involution), flat rows."""
        gens = np.stack(self.conjugators).astype(np.int64) % self.lift
        xm = x.reshape(self.n, self.n)
        return (gens @ xm @ gens % self.lift).reshape(-1, self.n * self.n)

    def _absorb(self, mats):
        """Add kernel elements to the basis, closed under conjugation."""
        p, pending = self.lift, [self._kernel_x(mats)]
        while pending:
            xs = self._reduce(np.concatenate(pending))
            pending = []
            while True:
                rows = np.flatnonzero(xs.any(axis=1))
                if not rows.size:
                    break
                x = xs[rows[0]]
                col = int(np.flatnonzero(x)[0])
                x = x * pow(int(x[col]), -1, p) % p
                self.kernel.append((col, x))
                pending.append(self._conjugates(x))
                xs = xs[rows[0] + 1:]
                xs = (xs - xs[:, col, None] * x) % p

    def _split_absorb(self, mats, invs):
        """Add kernel elements and their inverses, mod b, to the kernel chain:
        one non-member at a time joins it and queues its conjugates g·k·g, so
        the group the joined elements generate ends closed under conjugation."""
        if self.kernel_chain is None:
            self.kernel_chain = StabChain([], self.split, n=self.n, order_only=True)
            self.kernel_chain.conjugators = self.kernel_chain._own(np.stack(self.conjugators))
        kc = self.kernel_chain
        mats, invs, conj = kc._own(mats), kc._own(invs), kc.conjugators
        while mats.shape[0]:
            new = ~kc.member_mask(mats)
            if not new.any():
                break
            mats, invs = mats[new], invs[new]
            kc._build([(mats[:1], invs[:1])])
            mats = np.concatenate((mats[1:], kc._mul(kc._mul(conj, mats[:1]), conj)))
            invs = np.concatenate((invs[1:], kc._mul(kc._mul(conj, invs[:1]), conj)))

    # -- construction ----------------------------------------------------

    def _build(self, stash):
        for mats, invs in stash:
            self.seeds += map(_pair, mats, invs)
        while True:
            residues = self._sift_stash(stash)
            stash = []  # blocks (mats, invs)
            if residues is not None:
                mats, invs, lvls = residues
                self._install(mats[0].copy(), invs[0].copy(), int(lvls[0]))
                if len(lvls) > 1:
                    stash.append((mats[1:], invs[1:]))
            self._process_schreier(stash)
            if residues is None and not stash:
                break

    def _sift_stash(self, stash):
        """Sift the stashed (mats, invs) blocks; None if all reach the identity.

        Otherwise (mats, invs, levels): the nontrivial residues in stash
        order, levels[i] being the level where residue i sticks.
        """
        if not stash:
            return None
        mats = np.concatenate([m for m, _ in stash])
        invs = np.concatenate([i for _, i in stash])
        stash.clear()  # free the blocks while their copy is sifted
        # rows sift independently; chunks bound the temporaries of a product
        lvls = np.concatenate([self._sift(mats[at:at + _CHUNK], invs[at:at + _CHUNK])
                               for at in range(0, mats.shape[0], _CHUNK)])
        # an element that sticks moves a base point, so it is nontrivial too
        keep = (self._mod_space(mats) != self.identity).any(axis=(1, 2))
        if not self.direct:
            kernel = ~keep & (mats != self.identity).any(axis=(1, 2))
            if kernel.any() and self.lift:
                self._absorb(mats[kernel])
            elif kernel.any():
                self._split_absorb(mats[kernel], invs[kernel])
        if not keep.any():
            return None
        return mats[keep], invs[keep], lvls[keep]

    def _sift(self, mats, invs=None):
        """Sift a stack of matrices (and their inverses) in place.

        Level by level, each row is divided by the transversal element of its
        base-point image until that image leaves the orbit.  Returns the level
        where each row stuck, len(self.levels) for rows that passed them all.
        """
        stuck = np.full(mats.shape[0], len(self.levels))
        live = np.arange(mats.shape[0])
        for li, lev in enumerate(self.levels):
            if not live.size:
                break
            slots = lev.lookup(self._mod_space(mats[live, :, lev.beta_col]) @ self.space.weights)
            stuck[live[slots < 0]] = li
            # slot 0 holds the identity: nothing to divide out
            move = slots > 0
            if move.any():
                rows, slots_moved = live[move], slots[move]
                mats[rows] = self._mul(lev.trans_inv.view()[slots_moved], mats[rows])
                if invs is not None:
                    invs[rows] = self._mul(invs[rows], lev.trans.view()[slots_moved])
            live = live[slots >= 0]
        return stuck

    def _install(self, mat, inv, level):
        if level == len(self.levels):
            moved = np.nonzero((self._mod_space(mat) != self.identity).any(axis=0))[0]
            if not moved.size:
                raise AssertionError("residue is identity; nothing to install")
            self.levels.append(_Level(int(moved[0]), self.space, self.identity))
        self.gens.append(_pair(mat, inv) + (level,))

    def _process_schreier(self, stash):
        """Expand every level with its generators up to the end of its orbit:
        level 0 with the seeds, level li > 0 with the strong generators
        installed at li or deeper (see "Level 0" in the module docstring).
        A pass takes in the points its generator finds, except that an
        involution stops where its pass began; either way the generator's
        cursor then moves to the end of the orbit."""
        for li, lev in enumerate(self.levels):
            gens = self.seeds if li == 0 else [(m, i) for m, i, lvl in self.gens if lvl >= li]
            moved = True
            while moved:
                moved = False
                for gi, (gmat, ginv) in enumerate(gens):
                    start, stop = lev.cursors.get(gi, 0), lev.orbit_size
                    if start >= stop:
                        continue
                    moved = True
                    involution = gmat is ginv  # see _pair
                    while start < stop:
                        end = min(start + _CHUNK, stop)
                        # an involution's Schreier generators come in inverse pairs
                        self._expand_block(lev, gmat, ginv, start, end, stash,
                                           li == 0 and involution)
                        start = end
                        if not involution:
                            stop = lev.orbit_size
                    lev.cursors[gi] = lev.orbit_size

    def _expand_block(self, lev, gmat, ginv, start, end, stash, pairs):
        """Apply one generator to orbit slots [start, end).

        Images not yet in the orbit join it in order of first appearance;
        each image gives a Schreier generator, stashed if nontrivial (those
        of the new points are the identity).  With pairs (the generator is
        an involution) only the one of each inverse pair whose image slot
        is at least its own slot is formed.
        """
        cand = self._mul(gmat, lev.trans.view()[start:end])
        pts = self._mod_space(cand[:, :, lev.beta_col]) @ self.space.weights
        slots = lev.lookup(pts)
        fresh = np.nonzero(slots < 0)[0]
        if fresh.size:
            # one slot per new point, numbered in order of first appearance
            index, new = lev.index, []
            fresh_pts = pts[fresh].tolist()
            for j, p in zip(fresh.tolist(), fresh_pts):
                if p not in index:
                    index[p] = len(index)
                    new.append(j)
            slots[fresh] = [index[p] for p in fresh_pts]
            new = np.array(new)
            lev.trans.append(cand[new])
            lev.trans_inv.append(self._mul(lev.trans_inv.view()[start + new], ginv))
        src = np.arange(start, end)  # the slot each image comes from
        if pairs:
            formed = slots >= src
            src, cand, slots = src[formed], cand[formed], slots[formed]
        sg = self._mul(lev.trans_inv.view()[slots], cand)
        rows = np.nonzero((sg != self.identity).any(axis=(1, 2)))[0]
        if rows.size:
            cand_inv = self._mul(lev.trans_inv.view()[src[rows]], ginv)
            stash.append((sg[rows], self._mul(cand_inv, lev.trans.view()[slots[rows]])))

    # -- queries ---------------------------------------------------------

    def member_mask(self, mats):
        """Vectorized membership for a stack of matrices (k, n, n)."""
        arr = self._own(mats).reshape(-1, self.n, self.n)
        self._sift(arr)
        # a matrix that sticks moves a base point, so only members sift into
        # the bottom group: the identity, the kernel span when lifted, the
        # kernel chain when split
        member = (self._mod_space(arr) == self.identity).all(axis=(1, 2))
        if self.lift:  # the survivors alone need the kernel
            member[member] = ~self._reduce(self._kernel_x(arr[member])).any(axis=1)
        elif self.kernel_chain is not None:
            member[member] = self.kernel_chain.member_mask(arr[member])
        elif self.split:
            member[member] = (arr[member] == self.identity).all(axis=(1, 2))
        return member

    def elements(self):
        """All group elements as one (order, n, n) array, deterministic order."""
        if not self.direct:
            raise ValueError("a lifted or split chain does not list its elements")
        arr = self.identity[None]
        for lev in self.levels:
            t = lev.trans.view()
            # membership decomposition is g = u_0 u_1 ... u_k, so deeper
            # transversals multiply on the right
            arr = self._mul(arr[:, None], t[None, :])
            arr = arr.reshape(-1, self.n, self.n)
        return arr

    def check(self):
        """Re-derive the Schreier condition from scratch (test support)."""
        if not self.member_mask(np.stack(self.input_gens or [self.identity])).all():
            raise AssertionError("input generator fails membership")
        for li, lev in enumerate(self.levels):
            trans, trans_inv = lev.trans.view(), lev.trans_inv.view()
            pts = self._mod_space(trans[:, :, lev.beta_col]) @ self.space.weights
            if not np.array_equal(lev.lookup(pts), np.arange(lev.orbit_size)):
                raise AssertionError("orbit index does not give each point its slot")
            if not (self._mul(trans, trans_inv) == self.identity).all():
                raise AssertionError("stored inverse is wrong")
            for gmat, _, glvl in self.gens:
                if glvl < li:
                    continue
                cand = self._mul(gmat, trans)
                slots = lev.lookup(self._mod_space(cand[:, :, lev.beta_col]) @ self.space.weights)
                if (slots < 0).any():
                    raise AssertionError("orbit not closed under visible generator")
                if not self.member_mask(self._mul(trans_inv[slots], cand)).all():
                    raise AssertionError("Schreier generator fails to sift")
        for _, x in self.kernel:
            if self._reduce(self._conjugates(x)).any():
                raise AssertionError("kernel basis is not closed under conjugation")
        kc = self.kernel_chain
        if kc is not None:
            kc.check()  # and, in turn, its own kernel chain
            for g, _, _ in kc.gens:
                if not kc.member_mask(kc._mul(kc._mul(kc.conjugators, g), kc.conjugators)).all():
                    raise AssertionError("kernel chain is not closed under conjugation")
        return True


class Listed:
    """A group of at most `bound` matrices mod d, kept as its element list.

    The elements come from a BFS closure of the generators, one frontier
    at a time; BoundExceeded is raised as soon as more than `bound` are
    found.  Elements are int64 mod d and membership reads a set of their
    bytes (see "Listed groups" in the module docstring).
    """

    def __init__(self, gens, modulus, n=None, bound=256):
        space, self.input_gens = _generators(gens, modulus, n)
        self.modulus = modulus
        self.n = n = space.n
        frontier = np.eye(n, dtype=np.int64)[None]
        blocks, self.keys = [frontier], set(_keys(frontier))
        stack = np.stack(self.input_gens) if self.input_gens else frontier[:0]
        while frontier.shape[0]:
            prods = (np.matmul(stack[:, None], frontier) % modulus).reshape(-1, n, n)
            # one row per distinct product, in order of first appearance
            batch = dict(zip(_keys(prods), range(prods.shape[0])))
            fresh = [i for key, i in batch.items() if key not in self.keys]
            self.keys.update(batch)
            if len(self.keys) > bound:
                raise BoundExceeded("closure exceeds bound %d" % bound)
            frontier = prods[fresh]
            blocks.append(frontier)
        self._elements = np.concatenate(blocks)

    def order(self):
        return self._elements.shape[0]

    def elements(self):
        """All group elements as one (order, n, n) int64 array, BFS order."""
        return self._elements

    def member_mask(self, mats):
        """Vectorized membership for a stack of matrices (k, n, n)."""
        keys = _keys(np.asarray(mats, dtype=np.int64) % self.modulus)
        return np.fromiter(map(self.keys.__contains__, keys), bool, len(keys))


def intersection_order(a, b, sub, orbit_guard=1_000_000, enum_bound=20_000):
    """|A ∩ B| for two groups mod d, chains or listed, given the chain or
    listed group `sub` of a subgroup T of A ∩ B (None for the trivial group).

    A listed side, the smaller first, has its elements sifted through the
    other group, and so has a direct chain of at most enum_bound elements;
    otherwise the cosets of T in the smaller group are walked (see "Coset
    walk" in the module docstring).  That needs only memberships from a and
    b, so they may be lifted or split chains; sub may not.  A walk puts a
    listed sub in a chain, so its generators must then be involutions, as
    those of every generator segment are (ValueError otherwise).
    """
    if isinstance(sub, StabChain) and not sub.direct:
        raise ValueError("a lifted or split chain has no coset representatives")
    small, large = (a, b) if a.order() <= b.order() else (b, a)
    for side, other in ((small, large), (large, small)):
        if isinstance(side, Listed) or (side.direct and side.order() <= enum_bound):
            return _count_members(other, side.elements())
    if sub is not None and sub.input_gens and not all(
            c.member_mask(np.stack(sub.input_gens)).all() for c in (a, b)):
        raise ValueError("sub is not a subgroup of both groups")
    if isinstance(sub, Listed):
        sub = StabChain(sub.input_gens, sub.modulus, n=sub.n)
    sub_order = 1 if sub is None else sub.order()
    n = small.n
    frontier = _canonical_coset_reps(sub, small.identity[None].copy())
    visited, members = set(_keys(frontier)), 1  # T itself lies in L
    gens = np.stack(small.input_gens or [small.identity])
    step = max(1, _CHUNK // (gens.shape[0] * n))  # see "Coset walk"
    while frontier.shape[0]:
        nxt = []
        for at in range(0, frontier.shape[0], step):
            # candidates rep-major, then generator: gens[j] @ rep
            cands = small._mul(gens, frontier[at:at + step, None]).reshape(-1, n, n)
            cands = _canonical_coset_reps(sub, cands)
            # one row per new coset, in order of first appearance
            batch = dict(zip(_keys(cands), range(cands.shape[0])))
            keep = [i for key, i in batch.items() if key not in visited]
            visited.update(batch)
            if len(visited) > orbit_guard:
                raise OrbitGuardExceeded("coset orbit exceeds guard %d" % orbit_guard)
            nxt.append(cands[keep])
        frontier = np.concatenate(nxt)
        members += int(np.count_nonzero(large.member_mask(frontier)))
    if len(visited) * sub_order != small.order():
        raise AssertionError("coset count times |T| is not the group order")
    return sub_order * members


def _count_members(group, mats):
    """How many of a stack of matrices lie in group, sifted in blocks of
    _CHUNK/n matrices, so the temporaries of a block hold about _CHUNK*n
    entries as in the coset walk."""
    rows = max(1, _CHUNK // group.n)
    return sum(int(np.count_nonzero(group.member_mask(mats[at:at + rows])))
               for at in range(0, mats.shape[0], rows))


def _canonical_coset_reps(group, gs):
    """Canonical representatives of the cosets g·T of a stack of matrices,
    written over gs, for T given by its chain (see "Coset walk"); None
    stands for a trivial T."""
    for lev in group.levels if group is not None else ():
        trans = lev.trans.view()
        vecs_t = np.ascontiguousarray(trans[:, :, lev.beta_col]).T
        rows = max(1, _CHUNK // lev.orbit_size)
        for at in range(0, gs.shape[0], rows):
            block = gs[at:at + rows]
            pts = group.space.weights @ group._mul(block, vecs_t)
            gs[at:at + rows] = group._mul(block, trans[pts.argmin(axis=1)])
    return gs


def element_period(mat, modulus, cap=1_000_000):
    """Multiplicative order of a matrix mod d (sequential, exact)."""
    mat = np.asarray(mat, dtype=np.int64) % modulus
    n = mat.shape[0]
    ident = np.eye(n, dtype=np.int64) % modulus
    h = mat
    k = 1
    while not np.array_equal(h, ident):
        h = h @ mat % modulus
        k += 1
        if k > cap:
            raise BoundExceeded("period exceeds cap %d" % cap)
    return k


def enumerate_small(mats, modulus, bound=1_000_000):
    """BFS closure of a matrix set mod d; raises BoundExceeded past bound.

    Returns the elements as one (size, n, n) array in discovery order.
    Nothing in the package calls it: it is the independent BFS oracle that
    the tests and the benchmark's order check compare `Listed` and the
    chains with, one product at a time.
    """
    mats = [np.asarray(m, dtype=np.int64) % modulus for m in mats]
    if not mats:
        raise ValueError("need at least one generator")
    n = mats[0].shape[0]
    ident = np.eye(n, dtype=np.int64) % modulus
    seen = {ident.tobytes(): 0}
    rows = [ident]
    frontier = ident[None]
    while frontier.shape[0]:
        produced = []
        for g in mats:
            produced.append(g @ frontier % modulus)
        produced = np.concatenate(produced)
        fresh = []
        for m in produced:
            key = m.tobytes()
            if key not in seen:
                seen[key] = len(rows)
                rows.append(m.copy())
                fresh.append(m)
                if len(rows) > bound:
                    raise BoundExceeded("enumeration exceeds bound %d" % bound)
        frontier = np.stack(fresh) if fresh else np.empty((0, n, n), dtype=np.int64)
    return np.stack(rows)
