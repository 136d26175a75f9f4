import hashlib
import itertools
import random
from math import gcd, lcm

import numpy as np
import pytest

import modpoly.engine as engine
from modpoly.diagram import Branch, Diagram, ParseError, coxeter_order, parse_diagram
from modpoly.engine import (
    BoundExceeded,
    Listed,
    OrbitGuardExceeded,
    PointSpace,
    PointSpaceOverflow,
    StabChain,
    _canonical_coset_reps,
    element_period,
    enumerate_small,
    intersection_order,
    prime_factors,
    square_prime,
)
from modpoly.matrep import ModularRep


def as_permutations(mats, modulus, limit=2 ** 22):
    """Materialize the permutation action on Z_d^n (small spaces only)."""
    mats = [np.asarray(m, dtype=np.int64) % modulus for m in mats]
    n = mats[0].shape[0]
    space = PointSpace(modulus, n, limit=limit)
    vecs = space.decode(np.arange(space.size))
    out = []
    for m in mats:
        out.append(np.asarray(space.encode(vecs @ m.T % modulus), dtype=np.int32))
    return out


def permutation_order(perm):
    """Order of a permutation via cycle lengths (oracle for element_period)."""
    perm = np.asarray(perm)
    seen = np.zeros(perm.shape[0], dtype=bool)
    total = 1
    for start in range(perm.shape[0]):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = int(perm[j])
            length += 1
        total = lcm(total, length)
    return total


def canonical_coset_rep(chain, g):
    """Canonical representative of the coset g·L, one matrix at a time
    (oracle for the batched _canonical_coset_reps)."""
    for lev in chain.levels:
        pts = chain._mul(lev.trans.view()[:, :, lev.beta_col], g.T) @ chain.space.weights
        g = chain._mul(g, lev.trans.view()[int(np.argmin(pts))])
    return g


def chain_for(text, modulus, indices=None, order_only=False):
    rep = ModularRep(parse_diagram(text), modulus)
    mats = rep.mats if indices is None else rep.select(indices)
    return StabChain(mats, modulus, order_only=order_only)


def brute_order(text, modulus, indices=None):
    rep = ModularRep(parse_diagram(text), modulus)
    mats = rep.mats if indices is None else rep.select(indices)
    return enumerate_small(mats, modulus).shape[0]


def test_pointspace_round_trip():
    space = PointSpace(5, 3)
    idx = np.arange(space.size)
    assert np.array_equal(space.encode(space.decode(idx)), idx)
    assert space.size == 125


def test_pointspace_overflow():
    with pytest.raises(PointSpaceOverflow):
        PointSpace(13, 9)


ORDER_CASES = [
    ("1 - 1", 2), ("1 - 1", 3), ("1 - 1", 5),
    ("1 - 2", 2), ("1 - 2", 3), ("1 - 2", 4), ("1 - 2", 5),
    ("1 - 3", 2), ("1 - 3", 5),
    ("1 = 1", 2), ("1 = 1", 3), ("1 = 1", 4), ("1 = 1", 7), ("1 = 1", 9),
    ("1 - 4", 3), ("1 - 4", 4), ("1 - 4", 6),
    ("1 , 1", 2), ("1 , 1", 3),
    ("1", 2), ("1", 3),
    ("1 - 1 - 1", 2), ("1 - 1 - 1", 3), ("1 - 1 - 1", 4), ("1 - 1 - 1", 5),
    ("2 - 1 - 2", 2), ("2 - 1 - 2", 3), ("2 - 1 - 2", 4), ("2 - 1 - 2", 6),
    ("1 - 2 - 1", 3), ("1 - 2 - 1", 4),
    ("1 - 1 - 3", 3), ("1 - 1 - 3", 4),
    ("1 - 1 - 2 - 2", 3),
]


def test_chain_order_matches_bfs():
    for text, modulus in ORDER_CASES:
        assert chain_for(text, modulus).order() == brute_order(text, modulus), (text, modulus)


def test_chain_structure_check():
    for text, modulus in [("2 - 1 - 2", 4), ("1 - 1 - 1", 5), ("1 = 1", 8)]:
        assert chain_for(text, modulus).check()


# n*(d-1)^2 = 2*2896^2 < 2^24 <= 2*2897^2: the last modulus with float32
# products and the first with int64 ones, for 2-by-2 matrices
NARROW_EDGE, WIDE_EDGE = 2897, 2898


@pytest.mark.parametrize("text,modulus,expected", [
    ("1 = 1", 4099, 8198),
    ("1 - 1", 5003, 6),
    ("1 - 2", 6007, 8),
    ("1", 100000007, 2),
])
def test_chain_order_exact_past_the_float32_bound(text, modulus, expected):
    chain = chain_for(text, modulus)
    assert chain.n * (modulus - 1) ** 2 >= 2 ** 24
    assert chain.order() == brute_order(text, modulus) == expected


@pytest.mark.parametrize("modulus,dtype", [(NARROW_EDGE, np.int32), (WIDE_EDGE, np.int64)])
def test_chain_check_at_the_float32_bound(modulus, dtype):
    chain = chain_for("1 = 1", modulus)
    assert chain.dtype is dtype
    assert chain.check()
    assert chain.order() == brute_order("1 = 1", modulus)
    # every entry of top @ low is (d-1)^2 + (d-1)(d-2), odd and, past the
    # bound, above 2^24, where float32 would round it; 1024 products are
    # enough work for the float32 path
    top = np.full((512, 2, 2), modulus - 1)
    low = np.broadcast_to([[modulus - 1] * 2, [modulus - 2] * 2], (512, 2, 2))
    rng = np.random.default_rng(0)
    a = np.concatenate([top, rng.integers(0, modulus, (512, 2, 2))])
    b = np.concatenate([low, rng.integers(0, modulus, (512, 2, 2))])
    assert np.array_equal(chain._mul(a.astype(dtype), b.astype(dtype)), a @ b % modulus)


def test_chain_index_is_sized_by_the_orbit():
    for text, modulus in [("1 - 1 - 1", 5), ("2 - 1 - 2", 6), ("1 = 1", 1031)]:
        chain = chain_for(text, modulus)
        assert chain.check()
        size = chain.space.size
        for lev in chain.levels:
            # each orbit point once, mapped to its slot
            pts = chain.space.encode(lev.trans.view()[:, :, lev.beta_col])
            assert lev.index == dict(zip(pts.tolist(), range(lev.orbit_size)))
            for name in lev.__slots__:
                value = getattr(lev, name, None)
                value = getattr(value, "buf", value)
                if isinstance(value, np.ndarray):
                    assert value.size != size, (text, modulus, name)


CHAIN_DIGEST_CASES = [
    ("1 - 1 - 1", 5, False), ("1 = 1", 1031, False), ("1 - 2", 6007, False),
    ("1 - 1 - 2 - 2", 3, False), ("2 - 1 - 2", 6, True), ("1 - 2 - 1 - 1", 4, True),
]
CHAIN_DIGEST = "5bcd28cf8786c0e30d3ec433e8a4d64eae0b17d1f5d29c47dabb28b9cd6151ba"


@pytest.mark.parametrize("chunk", [None, 3])
def test_chain_structure_is_pinned(chunk, monkeypatch):
    """Base points, orbits in slot order, strong generator levels and orders
    of direct, split and lifted chains; a small chunk splits every orbit
    expansion into several blocks."""
    if chunk is not None:
        monkeypatch.setattr(engine, "_CHUNK", chunk)
    digest = hashlib.sha256()
    for text, modulus, order_only in CHAIN_DIGEST_CASES:
        chain = chain_for(text, modulus, order_only=order_only)
        for lev in chain.levels:
            digest.update(np.int64(lev.beta_col).tobytes())
            pts = chain.space.encode(lev.trans.view()[:, :, lev.beta_col])
            digest.update(pts.astype(np.int64).tobytes())
        digest.update(np.array([lvl for _, _, lvl in chain.gens], dtype=np.int64).tobytes())
        digest.update(str(chain.order()).encode())
    assert digest.hexdigest() == CHAIN_DIGEST


def test_known_dihedral_orders():
    # mod d the 1-2 diagram generates the dihedral group of the square
    assert chain_for("1 - 2", 3).order() == 8
    # the double bond rotation has period d for odd d; for even d both end
    # nodes of the standalone diagram are class ee, so the period halves
    assert chain_for("1 = 1", 3).order() == 6
    assert chain_for("1 = 1", 5).order() == 10
    assert chain_for("1 = 1", 4).order() == 4
    assert chain_for("1 = 1", 8).order() == 8


def test_membership_agreement():
    for text, modulus in [("2 - 1 - 2", 4), ("1 - 1 - 1", 3), ("1 - 3", 5)]:
        chain = chain_for(text, modulus)
        elems = enumerate_small(ModularRep(parse_diagram(text), modulus).mats, modulus)
        assert elems.shape[0] == chain.order()
        assert bool(chain.member_mask(elems).all())
        for m in elems[:16]:
            assert chain.member(m)
        # a matrix outside the group: identity scaled, when nontrivial
        fake = (2 * np.eye(chain.n, dtype=np.int64)) % modulus
        if not any(np.array_equal(fake, e) for e in elems):
            assert not chain.member(fake)


def test_elements_enumeration_matches_order():
    chain = chain_for("2 - 1 - 2", 4)
    elems = chain.elements()
    assert elems.shape[0] == chain.order()
    keys = {e.tobytes() for e in elems}
    assert len(keys) == chain.order()
    assert bool(chain.member_mask(elems).all())


def test_trivial_and_empty_chains():
    chain = StabChain([], 3, n=2)
    assert chain.order() == 1
    assert chain.member(np.eye(2, dtype=np.int64))
    ident_only = StabChain([np.eye(2, dtype=np.int64)], 3)
    assert ident_only.order() == 1


def brute_intersection(text, modulus, left, right):
    rep = ModularRep(parse_diagram(text), modulus)
    a = enumerate_small(rep.select(left), modulus)
    b = enumerate_small(rep.select(right), modulus)
    bk = {m.tobytes() for m in b}
    return sum(1 for m in a if m.tobytes() in bk)


INTERSECTION_CASES = [
    ("1 - 1 - 1", 3, [0, 1], [1, 2]),
    ("1 - 1 - 1", 4, [0, 1], [1, 2]),
    ("2 - 1 - 2", 4, [0, 1], [1, 2]),
    ("2 - 1 - 2", 6, [0, 1], [1, 2]),
    ("1 - 1 - 3", 4, [0, 1], [1, 2]),
    ("1 - 1 - 1", 3, [0], [0, 1, 2]),
    # coset orbits of 12 and 20 points, BFS layers of several reps
    ("1 - 1 - 1 - 1 - 1", 3, [0, 1, 2], [2, 3, 4]),
    ("1 = 1 - 1 = 1", 5, [0, 1, 2], [1, 2, 3]),
    # int64 chains: n*(d-1)^2 is past the float32 bound
    ("1 = 1", 4099, [0], [1]),
    ("1 - 2", 6007, [1], [0, 1]),
]


def shared_chain(text, modulus, left, right, **kwargs):
    """Chain of the generators both index lists hold, None when they share none."""
    shared = [i for i in left if i in right]
    return chain_for(text, modulus, shared, **kwargs) if shared else None


@pytest.mark.parametrize("text,modulus,left,right", INTERSECTION_CASES)
def test_intersection_order_both_paths(text, modulus, left, right, monkeypatch):
    expected = brute_intersection(text, modulus, left, right)
    a = chain_for(text, modulus, left)
    b = chain_for(text, modulus, right)
    sub = shared_chain(text, modulus, left, right)
    # with a small chunk a BFS layer and a canonicalization span several blocks
    for chunk in (engine._CHUNK, 3):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        assert intersection_order(a, b, sub, enum_bound=20_000) == expected
        # force the canonical-coset path, over the shared segment and over
        # the trivial group
        for t in (sub, None):
            assert intersection_order(a, b, t, enum_bound=1) == expected
            assert intersection_order(b, a, t, enum_bound=1) == expected


LIFTED_INTERSECTION_CASES = [
    ("1 - 2 - 1", 4, [0, 1], [1, 2]),
    ("1 - 1 - 1", 8, [0, 1], [1, 2]),
    ("1 - 1 - 1", 9, [0, 1], [1, 2]),
    ("2 - 1 - 2", 12, [0, 1], [1, 2]),
    ("1 - 2 - 1 - 1", 4, [0, 1, 2], [1, 2, 3]),
    ("1 - 2 - 1 - 1", 4, [0, 1, 2], [2, 3]),
    ("1 - 1 - 1", 9, [0], [0, 1, 2]),
]


@pytest.mark.parametrize("text,modulus,left,right", LIFTED_INTERSECTION_CASES)
def test_intersection_order_of_lifted_chains(text, modulus, left, right):
    expected = brute_intersection(text, modulus, left, right)
    sub = shared_chain(text, modulus, left, right)
    for a_lifted, b_lifted in ((True, True), (True, False), (False, True)):
        a = chain_for(text, modulus, left, order_only=a_lifted)
        b = chain_for(text, modulus, right, order_only=b_lifted)
        assert bool(a.lift) == a_lifted and bool(b.lift) == b_lifted
        for bound in (20_000, 1):
            assert intersection_order(a, b, sub, enum_bound=bound) == expected
            assert intersection_order(b, a, sub, enum_bound=bound) == expected


def test_intersection_needs_a_direct_sub_inside_both_groups():
    a = chain_for("2 - 1 - 2", 6, [0, 1])
    b = chain_for("2 - 1 - 2", 6, [1, 2])
    with pytest.raises(ValueError):
        intersection_order(a, b, chain_for("2 - 1 - 2", 6, [0]), enum_bound=1)
    lifted = chain_for("1 - 2 - 1", 4, [1], order_only=True)
    with pytest.raises(ValueError):
        intersection_order(lifted, lifted, lifted)


def test_intersection_orbit_guard(monkeypatch):
    a = chain_for("2 - 1 - 2", 6, [0, 1])
    b = chain_for("2 - 1 - 2", 6, [1, 2])
    for chunk in (engine._CHUNK, 3):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        with pytest.raises(OrbitGuardExceeded):
            intersection_order(a, b, chain_for("2 - 1 - 2", 6, [1]),
                               enum_bound=1, orbit_guard=2)


def random_words(chain, mats, count, rng, length=12):
    """count random products of `length` matrices from mats, in the chain's dtype."""
    mats = [chain._own(m) for m in mats]
    out = np.empty((count,) + chain.identity.shape, dtype=chain.dtype)
    for row in range(count):
        g = chain.identity
        for i in rng.integers(len(mats), size=length):
            g = chain._mul(g, mats[i])
        out[row] = g
    return out


def coset_chain(text, modulus, large):
    rep = ModularRep(parse_diagram(text), modulus)
    if large == "conjugate":
        # <r0, r1 r0 r1>: a proper subgroup with a base orbit of many points
        r0, r1 = rep.mats[0], rep.mats[1]
        mats = [r0, r1 @ r0 @ r1 % modulus]
    elif large[0] == "listed":
        # the chain a coset walk puts a listed T in, bounded by its order
        listed = Listed(rep.select(large[1]), modulus)
        return rep.mats, StabChain(listed.input_gens, modulus, n=listed.n,
                                   order_bound=listed.order())
    else:
        mats = rep.select(large)
    return rep.mats, StabChain(mats, modulus)


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("text,modulus,large,dtype", [
    ("2 - 1 - 2", 6, [1, 2], np.int32),
    ("1 - 1 - 1", 4, [0], np.int32),
    ("1 = 1", 4100, "conjugate", np.int64),
    ("1 - 2", 6007, [1], np.int64),
    ("2 - 1 - 2", 6, ("listed", [1, 2]), np.int32),
    ("1 - 1 - 1", 9, ("listed", [0, 1]), np.int32),
    # the most entries: 8 by 8 mod 2, and 5 by 5 mod 9; short ids keep the
    # chunk in the first 100 characters of the test's name
    pytest.param("1 - 1 - 1 - 1 - 1 - 1 - 1 - 1", 2, ("listed", [0, 1, 2, 4]),
                 np.int32, id="8x8-mod2-listed"),
    pytest.param("1 - 1 - 1 - 1 - 1", 9, ("listed", [1, 2, 3]), np.int32,
                 id="5x5-mod9-listed"),
    ("1 = 1", 4100, ("listed", [0]), np.int64),
    ("1 - 2", 6007, ("listed", [1]), np.int64),
])
def test_canonical_coset_reps_match_the_scalar_oracle(text, modulus, large, dtype,
                                                      chunk, monkeypatch):
    gens, chain = coset_chain(text, modulus, large)
    assert chain.dtype == dtype
    rng = np.random.default_rng(11)
    gs = random_words(chain, gens, 40, rng)
    hs = random_words(chain, chain.input_gens, 40, rng)
    if chunk:
        # fewer rows per block than the stack has, one row where an orbit
        # is longer than the chunk
        monkeypatch.setattr(engine, "_CHUNK", chunk)
    reps = _canonical_coset_reps(chain, gs.copy())
    for g, rep in zip(gs, reps):
        assert np.array_equal(rep, canonical_coset_rep(chain, g))
    # a coset invariant: g and g·h (h in L) have the same representative
    assert np.array_equal(_canonical_coset_reps(chain, chain._mul(gs, hs)), reps)


def test_element_period_against_permutation_oracle():
    for text, modulus in [("1 - 2", 5), ("1 = 1", 6), ("2 - 1 - 2", 4), ("1 - 3", 7)]:
        rep = ModularRep(parse_diagram(text), modulus)
        perms = as_permutations(rep.mats, modulus)
        for mat, perm in zip(rep.mats, perms):
            assert element_period(mat, modulus) == permutation_order(perm)
        prod = rep.mats[0] @ rep.mats[1] % modulus
        perm_prod = perms[0][perms[1]]  # (M N)(x) = M(N(x))
        assert element_period(prod, modulus) == permutation_order(perm_prod)


def test_element_period_cap():
    mat = np.array([[1, 1], [0, 1]], dtype=np.int64)
    with pytest.raises(BoundExceeded):
        element_period(mat, 997, cap=10)


def test_enumerate_small_bound():
    rep = ModularRep(parse_diagram("2 - 1 - 2"), 6)
    with pytest.raises(BoundExceeded):
        enumerate_small(rep.mats, 6, bound=5)


def test_as_permutations_are_permutations():
    rep = ModularRep(parse_diagram("1 - 2"), 3)
    for perm in as_permutations(rep.mats, 3):
        assert sorted(perm.tolist()) == list(range(9))


# -- lifted order: the direct chain over (Z_d)^n is the oracle -------------

LIFT_MODULI = (4, 8, 9, 12, 16, 18, 25, 36)


def lift_cases(seed, count, moduli=LIFT_MODULI):
    """Distinct (diagram text, modulus) pairs: rank 1-4, labels 1-4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        rank = rng.randint(1, 4)
        parts = [str(rng.randint(1, 4))]
        for _ in range(rank - 1):
            parts += [rng.choice("-=,"), str(rng.randint(1, 4))]
        try:
            case = (parse_diagram(" ".join(parts)).render(), rng.choice(moduli))
        except ParseError:
            continue
        if case not in out:
            out.append(case)
    return out


def lifted_and_direct(text, modulus):
    mats = ModularRep(parse_diagram(text), modulus).mats
    return StabChain(mats, modulus, order_only=True), StabChain(mats, modulus)


@pytest.mark.parametrize("d,p", [(4, 2), (8, 2), (9, 3), (12, 2), (16, 2),
                                 (18, 3), (25, 5), (36, 3), (72, 3), (2, None),
                                 (6, None), (30, None), (9999, 3)])
def test_square_prime_is_the_largest_prime_with_square_dividing(d, p):
    assert square_prime(d) == p


def test_lifted_order_matches_the_direct_chain():
    for text, modulus in lift_cases(5, 300):
        lifted, direct = lifted_and_direct(text, modulus)
        assert lifted.lift == square_prime(modulus)
        assert lifted.space.d == modulus // lifted.lift
        assert lifted.order() == direct.order(), (text, modulus)
        assert lifted.check()


@pytest.mark.parametrize("text,modulus,p,rank", [
    ("1 - 2 - 1", 4, 2, 4),
    ("1 - 2 - 1", 16, 2, 2),   # a true prime: 4^2 | 16 too, but 4 is no prime
    ("1 - 2 - 1", 36, 3, 2),   # the largest: 2^2 | 36 and 3^2 | 36
])
def test_named_lifts(text, modulus, p, rank):
    lifted, direct = lifted_and_direct(text, modulus)
    assert (lifted.lift, lifted.space.d, len(lifted.kernel)) == (p, modulus // p, rank)
    assert lifted.order() == direct.order()


def test_lifted_chain_membership_and_no_elements():
    lifted, direct = lifted_and_direct("1 - 2 - 1", 4)
    rng = np.random.default_rng(3)
    # members, and matrices congruent to them mod 2 that need the kernel span
    elems = direct.elements()
    near = (elems + 2 * rng.integers(0, 2, size=elems.shape)) % 4
    cands = np.concatenate([elems, near])
    mask = direct.member_mask(cands)
    assert mask.all() != mask.any()
    assert np.array_equal(lifted.member_mask(cands), mask)
    with pytest.raises(ValueError):
        lifted.elements()
    with pytest.raises(ValueError):
        intersection_order(direct, direct, lifted)


def test_order_only_at_a_prime_is_the_direct_chain():
    mats = ModularRep(parse_diagram("2 - 1 - 2"), 5).mats
    chain = StabChain(mats, 5, order_only=True)
    assert chain.direct and chain.space.d == 5 and chain.kernel_chain is None
    assert chain.elements().shape[0] == chain.order() == StabChain(mats, 5).order()
    # a composite square-free modulus splits: d = 6 acts on Z_3^n
    split = StabChain(ModularRep(parse_diagram("2 - 1 - 2"), 6).mats, 6, order_only=True)
    assert (split.lift, split.split, split.space.d) == (None, 2, 3)


def test_lifted_chain_still_checks_the_full_point_space():
    # 4^16 = 2^32 points overflow although the lifted action has 2^16
    mats = ModularRep(parse_diagram(" - ".join(["1"] * 16)), 4).mats
    with pytest.raises(PointSpaceOverflow):
        StabChain(mats, 4, order_only=True)


@pytest.mark.long
@pytest.mark.parametrize("text,modulus,rank", [
    ("1 - 1 - 2 - 2 - 2 - 2 - 2 - 2", 4, 27),
    ("1 - 1 - 2 - 2 - 2 - 2", 9, 15),
    ("1 - 2 - 2 - 4 - 4", 12, 9),
])
def test_lifted_order_of_large_groups(text, modulus, rank):
    lifted, direct = lifted_and_direct(text, modulus)
    assert len(lifted.kernel) == rank
    assert lifted.order() == direct.order()
    assert lifted.check()


# -- split order: the direct chain over (Z_d)^n is the oracle --------------

SPLIT_MODULI = (6, 10, 14, 15, 30)


@pytest.mark.parametrize("d,primes", [(1, []), (2, [2]), (6, [2, 3]), (12, [2, 2, 3]),
                                      (30, [2, 3, 5]), (49, [7, 7]), (9999, [3, 3, 11, 101])])
def test_prime_factors(d, primes):
    assert prime_factors(d) == primes


def largest_prime(d):
    return prime_factors(d)[-1]


def test_split_order_matches_the_direct_chain():
    kernels = 0
    for text, modulus in lift_cases(6, 200, SPLIT_MODULI):
        split, direct = lifted_and_direct(text, modulus)
        assert split.split == modulus // largest_prime(modulus)
        assert split.space.d == largest_prime(modulus)
        assert split.order() == direct.order(), (text, modulus)
        assert split.check()
        kernels += split.kernel_chain is not None
    assert kernels > 50  # the kernel chains are exercised, not only the orbits


def test_split_kernel_chains_split_again():
    # 30 = 5 * (3 * 2): the kernel chain mod 6 has a kernel chain mod 2
    split, direct = lifted_and_direct("2 - 1 - 2 - 1", 30)
    kernel = split.kernel_chain
    assert (kernel.modulus, kernel.split, kernel.kernel_chain.modulus) == (6, 2, 2)
    assert split.order() == direct.order() == 20_736_000
    assert split.check()


def test_split_kernel_chain_is_closed_under_conjugation():
    # without the closure this chain has order 600
    split = chain_for("4 - 2 - 1 - 2", 15, [1, 2, 3], order_only=True)
    assert split.order() == chain_for("4 - 2 - 1 - 2", 15, [1, 2, 3]).order() == 1800
    assert split.check()
    # check() finds a kernel chain that is not normal: one of its generators alone
    kernel = split.kernel_chain
    part = StabChain([], kernel.modulus, n=kernel.n, order_only=True)
    part.conjugators = kernel.conjugators
    mat, inv, _ = kernel.gens[0]
    part._build([(mat[None].copy(), inv[None].copy())])
    split.kernel_chain = part
    with pytest.raises(AssertionError):
        split.check()


def test_lifted_kernel_chain_closes_under_its_conjugators():
    # a kernel chain as _split_absorb makes one: no input generators, only
    # conjugators; here mod 4, so it is lifted and its kernel basis is closed
    # under the 1 - 2 - 1 involutions
    gens = ModularRep(parse_diagram("1 - 2 - 1"), 4).mats
    kernel = StabChain([], 4, n=3, order_only=True)
    assert kernel.lift == 2
    kernel.conjugators = kernel._own(np.stack(gens))
    k = np.eye(3, dtype=np.int64)
    k[0, 1] = 2
    kernel._build([(kernel._own(k[None]), kernel._own(k[None]))])
    group = enumerate_small(gens, 4)
    conjugates = [h @ k @ np.linalg.matrix_power(h, element_period(h, 4) - 1) % 4
                  for h in group]
    assert kernel.order() == len(enumerate_small(conjugates, 4)) == 4
    assert kernel.check()


@pytest.mark.parametrize("text,modulus,kernel", [
    ("1 - 4 - 1", 6, True), ("2 - 1 - 2", 15, True), ("1 - 2 - 1", 10, False)])
def test_split_chain_membership_and_no_elements(text, modulus, kernel):
    split, direct = lifted_and_direct(text, modulus)
    assert (split.kernel_chain is not None) == kernel
    a = largest_prime(modulus)
    rng = np.random.default_rng(4)
    # members, and matrices congruent to them mod a that need the kernel chain
    elems = direct.elements()
    near = (elems + a * rng.integers(0, modulus // a, size=elems.shape)) % modulus
    cands = np.concatenate([elems, near])
    mask = direct.member_mask(cands)
    assert mask.all() != mask.any()
    assert np.array_equal(split.member_mask(cands), mask)
    with pytest.raises(ValueError):
        split.elements()
    with pytest.raises(ValueError):
        intersection_order(direct, direct, split)


def test_split_chain_still_checks_the_full_point_space():
    # 6^12 > 2^31 overflows although the split action has 3^12 points
    mats = ModularRep(parse_diagram(" - ".join(["1"] * 12)), 6).mats
    with pytest.raises(PointSpaceOverflow):
        StabChain(mats, 6, order_only=True)


@pytest.mark.parametrize("text,modulus,left,right", [
    ("1 - 2 - 1 - 1", 4, [0, 1], [1, 2, 3]),   # lifted smaller side
    ("1 - 4 - 1", 6, [0, 1], [1, 2]),          # split smaller side
])
def test_intersection_enumerates_a_small_direct_larger_side(text, modulus, left, right,
                                                            monkeypatch):
    expected = brute_intersection(text, modulus, left, right)
    small = chain_for(text, modulus, left, order_only=True)
    large = chain_for(text, modulus, right)
    assert not small.direct and small.order() <= large.order() <= 20_000
    sub = shared_chain(text, modulus, left, right)

    def no_walk(chain, gs):
        raise AssertionError("coset walk")

    monkeypatch.setattr(engine, "_canonical_coset_reps", no_walk)
    assert intersection_order(small, large, sub) == expected
    assert intersection_order(large, small, sub) == expected


@pytest.mark.long
@pytest.mark.parametrize("ident", ["rank6-kb-mod6", "rank6-kd-mod6"])
def test_split_order_of_the_rank6_mod6_groups(ident):
    from modpoly.registry import registry

    case = next(c for c in registry() if c.ident == ident)
    split, direct = lifted_and_direct(case.diagram, 6)
    assert split.order() == direct.order() == 111_795_240_960
    assert split.kernel_chain.order() == 4608
    assert split.check()


# -- listed groups: the direct chain and the BFS closure are the oracles ----

LIST_MODULI = (2, 3, 4, 6, 8, 9)


def near_misses(mats, modulus, rng):
    """Each matrix with one entry, drawn by rng, raised by 1 mod d."""
    out = np.array(mats, dtype=np.int64) % modulus
    k, n = out.shape[:2]
    at = (np.arange(k), rng.integers(n, size=k), rng.integers(n, size=k))
    out[at] = (out[at] + 1) % modulus
    return out


def test_listed_groups_match_the_chain_and_the_closure():
    rng = np.random.default_rng(13)
    listed = past_bound = outside = 0
    for text, modulus in lift_cases(13, 120, moduli=LIST_MODULI):
        mats = ModularRep(parse_diagram(text), modulus).mats
        chain = StabChain(mats, modulus)
        try:
            group = Listed(mats, modulus)
        except BoundExceeded:
            assert chain.order() > 256, (text, modulus)
            past_bound += 1
            continue
        listed += 1
        closure = enumerate_small(mats, modulus)
        assert group.order() == chain.order() == closure.shape[0], (text, modulus)
        known = {m.tobytes() for m in closure}
        assert {m.tobytes() for m in group.elements()} == known
        assert all(group.member(m) for m in mats)
        cands = np.concatenate([np.stack(mats), near_misses(group.elements(), modulus, rng)])
        oracle = np.array([m.tobytes() in known for m in cands])
        assert np.array_equal(group.member_mask(cands), oracle), (text, modulus)
        assert np.array_equal(chain.member_mask(cands), oracle), (text, modulus)
        outside += int(np.count_nonzero(~oracle))
    assert (listed, past_bound) == (113, 7) and outside > 1000


def test_listed_group_bound():
    mats = ModularRep(parse_diagram("1 - 2 - 1"), 4).mats
    assert Listed(mats, 4, bound=32).order() == 32
    with pytest.raises(BoundExceeded):
        Listed(mats, 4, bound=31)
    trivial = Listed([], 4, n=3)
    assert trivial.order() == 1 and trivial.member(np.eye(3, dtype=np.int64) + 4)
    # a group of 4 elements over 50000^2 points, past the chains' limit
    commuting = ModularRep(parse_diagram("1 , 1"), 50_000).mats
    for build in (Listed, StabChain):
        with pytest.raises(PointSpaceOverflow):
            build(commuting, 50_000)


def plain_words(mats, modulus, count, rng, length=12):
    """count random products of `length` matrices from mats, int64 mod d."""
    out = np.empty((count,) + mats[0].shape, dtype=np.int64)
    for row in range(count):
        g = np.eye(mats[0].shape[0], dtype=np.int64)
        for i in rng.integers(len(mats), size=length):
            g = g @ mats[i] % modulus
        out[row] = g
    return out


def listed_or_chain(text, modulus, indices, order_only):
    """The listed group of the generators at indices, or their chain when
    they generate more than 256 elements."""
    mats = ModularRep(parse_diagram(text), modulus).select(indices)
    try:
        return Listed(mats, modulus)
    except BoundExceeded:
        return StabChain(mats, modulus, order_only=order_only)


@pytest.mark.parametrize("text,modulus,left,right",
                         INTERSECTION_CASES + LIFTED_INTERSECTION_CASES)
def test_intersection_order_with_listed_groups(text, modulus, left, right, monkeypatch):
    # lifted and split sides where the modulus allows, direct ones otherwise
    order_only = (text, modulus, left, right) in LIFTED_INTERSECTION_CASES
    a = chain_for(text, modulus, left, order_only=order_only)
    b = chain_for(text, modulus, right, order_only=order_only)
    sub = shared_chain(text, modulus, left, right)
    # the answer when every group is a chain, with the coset walk forced
    expected = intersection_order(a, b, sub, enum_bound=1)
    assert expected == brute_intersection(text, modulus, left, right)
    shared = [i for i in left if i in right]
    walks, bounds = [], []
    canonical_coset_reps, init = engine._canonical_coset_reps, StabChain.__init__

    def counting(group, gs):
        walks.append(gs.shape[0])
        return canonical_coset_reps(group, gs)

    def recording(self, *args, **kwargs):
        bounds.append(kwargs.get("order_bound"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(engine, "_canonical_coset_reps", counting)
    listed_a = listed_or_chain(text, modulus, left, order_only)
    listed_b = listed_or_chain(text, modulus, right, order_only)
    assert isinstance(listed_a, Listed) or isinstance(listed_b, Listed)
    monkeypatch.setattr(StabChain, "__init__", recording)
    for chunk in (engine._CHUNK, 3):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        if shared:
            # a listed shared segment between two chain sides: each walk
            # names its cosets through one chain, bounded by the listed order
            listed_sub = Listed(ModularRep(parse_diagram(text), modulus).select(shared),
                                modulus)
            for x, y in ((a, b), (b, a)):
                walks.clear()
                bounds.clear()
                assert intersection_order(x, y, listed_sub, enum_bound=1) == expected
                assert walks and bounds == [listed_sub.order()]
        # listed sides, which are sifted whatever the bound
        for x, y in ((listed_a, b), (a, listed_b), (listed_a, listed_b)):
            for t in (sub, None):
                assert intersection_order(x, y, t, enum_bound=1) == expected
                assert intersection_order(y, x, t, enum_bound=1) == expected


def test_a_walk_over_a_listed_sub_needs_involutions():
    # a walk names cosets through a chain, whose generators are involutions;
    # every segment's are, so no verifier check hands it such a sub
    mats = ModularRep(parse_diagram("1 - 1 - 1"), 3).mats
    a, b = StabChain(mats, 3), StabChain(mats[:2], 3)
    rotations = Listed([mats[0] @ mats[1] % 3], 3)
    assert intersection_order(a, b, rotations) == b.order()  # b is enumerated
    with pytest.raises(ValueError, match="involutions"):
        intersection_order(a, b, rotations, enum_bound=1)


def test_enumeration_sifts_in_blocks(monkeypatch):
    # a direct side of at most enum_bound elements is sifted _CHUNK/n at a time
    a = chain_for("1 - 1 - 1 - 1", 3, [0, 1, 2])
    b = chain_for("1 - 1 - 1 - 1", 3, [1, 2, 3])
    expected = brute_intersection("1 - 1 - 1 - 1", 3, [0, 1, 2], [1, 2, 3])
    sizes = []
    member_mask = StabChain.member_mask

    def recording(self, mats):
        sizes.append(mats.shape[0])
        return member_mask(self, mats)

    monkeypatch.setattr(StabChain, "member_mask", recording)
    monkeypatch.setattr(engine, "_CHUNK", 20)
    assert intersection_order(a, b, None) == expected
    assert sum(sizes) == a.order() and max(sizes) == 20 // a.n


# -- order bounds: the unbounded chain and closure are the oracles ----------

BOUND_MODULI = (2, 3, 4, 5, 6, 8, 9)  # direct, lifted (4, 8, 9) and split (6) chains


def spherical_strings(max_rank=5, labels=(1, 2, 3, 4)):
    """Every connected string with these labels, gcd 1, whose W is finite."""
    out = []
    for rank in range(1, max_rank + 1):
        for ls in itertools.product(labels, repeat=rank):
            try:
                d = Diagram(ls, (Branch.SINGLE,) * (rank - 1))
            except ValueError:
                continue
            if gcd(*ls) == 1 and coxeter_order(d.branch_periods()) is not None:
                out.append(d)
    return out


def test_bounded_chains_match_unbounded_ones(monkeypatch):
    rng = np.random.default_rng(17)
    sifts = {True: 0, False: 0}
    sift_stash = StabChain._sift_stash

    def counting(self, stash):
        sifts[self.order_bound is not None] += 1
        return sift_stash(self, stash)

    monkeypatch.setattr(StabChain, "_sift_stash", counting)
    strings = spherical_strings()
    assert len(strings) == 23  # A_1..5, B_3..5 four ways, F_4 two ways, five rank-2 strings
    kinds, outside = set(), 0
    for d, modulus in itertools.product(strings, BOUND_MODULI):
        w = coxeter_order(d.branch_periods())
        mats = ModularRep(d, modulus).mats
        members = plain_words(mats, modulus, 8, rng)
        # one entry raised by 1, or random entries by a proper divisor d/p,
        # which leaves a matrix unchanged mod d/p
        shifts = [modulus // p for p in set(prime_factors(modulus)) if p < modulus]
        cands = np.concatenate([np.stack(mats), members, near_misses(members, modulus, rng)] + [
            (members + s * rng.integers(2, size=members.shape)) % modulus for s in shifts])
        for order_only in (False, True):
            free = StabChain(mats, modulus, order_only=order_only)
            bounded = StabChain(mats, modulus, order_only=order_only, order_bound=w)
            case = (d.render(), modulus, order_only)
            kinds.add("lifted" if bounded.lift else "split" if bounded.split else "direct")
            assert bounded.order() == free.order() <= w, case
            assert bounded.check(), case
            mask = free.member_mask(cands)
            assert np.array_equal(bounded.member_mask(cands), mask), case
            outside += int(np.count_nonzero(~mask))
    assert kinds == {"direct", "lifted", "split"} and outside > 1000
    # the bound stops the construction of faithful chains early
    assert sifts[True] < sifts[False]
