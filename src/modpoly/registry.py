"""Golden-case registry: published group orders the artifact reproduces.

Each case pins the expected outcome of one fully-specified run: a diagram,
a modulus, optionally a derived-generator word list, and the values a
correct implementation must measure.  Orders are stored as decimal strings
(they are compared exactly, never approximately).  Cases flagged long are
the rank-6 systems mod 4 and mod 6, of orders above 10^8; the reproduce
command skips them unless asked not to.
"""

import collections

# subgroup generator words: s_i as words in the parent generators r_j
H_WORDS = ((1,), (0,), (2, 1, 2), (3,), (4,), (5,))
K_WORDS = ((2,), (1,), (0,), (3, 2, 1, 2, 3), (4,), (5,))

RANK5 = {
    "a": "1 - 2 - 2 - 4 - 4",
    "b": "1 - 2 - 2 - 1 - 1",
    "c": "2 - 1 - 1 - 2 - 2",
    "d": "4 - 2 - 2 - 1 - 1",
}
RANK6 = {
    "a": "1 - 1 - 2 - 2 - 2 - 2",
    "b": "2 - 2 - 1 - 1 - 1 - 1",
}
RANK6_DERIVED = {
    "b": "1 - 2 - 2 - 2 - 1 - 1",
    "c": "4 - 2 - 2 - 2 - 1 - 1",
    "d": "1 - 2 - 2 - 2 - 4 - 4",
}

G5 = 2 ** 16 * 3 ** 2          # 589824
G6 = 2 ** 26 * 3 ** 2 * 5      # 3019898880
G6C = 2 ** 29 * 3 ** 2         # 4831838208


class GoldenCase(collections.namedtuple(
        "GoldenCase", "ident diagram modulus expect_verdict expect_order words expect_index "
                      "expect_witness_index expect_sections long note",
        defaults=(None, None, None, None, None, (), False, ""))):
    """One golden case: inputs plus every expected value to compare;
    expect_sections holds ((start, end), q-vector) pairs."""

    __slots__ = ()


CASES = (
    GoldenCase("square-1-2-1-mod4", "1 - 2 - 1", 4, "StringCGroup", "32",
              note="smallest {4,4} system, self-dual"),
    GoldenCase("square-1-2-4-mod4", "1 - 2 - 4", 4, "StringCGroup", "128",
              note="{4,4} system with a scaled end node"),
    GoldenCase("square-2-1-2-mod4", "2 - 1 - 2", 4, "StringCGroup", "64",
              note="{4,4} system scaled at the middle node"),
    GoldenCase("rank4-464-mod2", "2 - 1 - 3 - 6", 2, "StringCGroup", "96",
              note="{4,6,4} system at its base modulus"),
    GoldenCase("rank4-464-mod3", "2 - 1 - 3 - 6", 3, "StringCGroup", "5184",
              note="{4,6,4} system at the odd prime"),
    GoldenCase("rank4-464-mod6", "2 - 1 - 3 - 6", 6, "IntersectionFails",
              "248832", expect_witness_index=3,
              note="product modulus: order (96*5184)/2, dihedral segment has "
                   "index 3 in the facet/vertex-figure intersection"),
    GoldenCase("rank4-363-mod4", "3 - 3 - 1 - 1", 4, "StringCGroup", "7680",
              expect_sections=(((0, 2), (4, 0)), ((1, 3), (4, 0))),
              note="{3,6,3} system; both toroidal sections of type (4,0)"),
    GoldenCase("rank5-a-mod4", RANK5["a"], 4, "StringCGroup", str(G5),
              note="rank-5 {4,3,4,3} system (a), order 2^16*3^2"),
    GoldenCase("rank5-b-mod4", RANK5["b"], 4, "StringCGroup", str(G5),
              note="rank-5 system (b), same order as (a)"),
    GoldenCase("rank5-c-mod4", RANK5["c"], 4, "StringCGroup", str(4 * G5),
              note="rank-5 system (c), four times the base order"),
    GoldenCase("rank5-d-mod4", RANK5["d"], 4, "StringCGroup", str(16 * G5),
              expect_sections=(((0, 3), (4, 4, 0)),),
              note="rank-5 system (d), sixteen times the base order; cubic "
                   "facet of type (4,4,0)"),
    GoldenCase("rank5-a-mod2", RANK5["a"], 2, "NotSGGI", "576",
              note="mod 2 the first generator collapses to the identity"),
    GoldenCase("rank5-b-mod2", RANK5["b"], 2, "NotSGGI", "576",
              note="mod 2 the first generator collapses to the identity"),
    GoldenCase("rank5-c-mod2", RANK5["c"], 2, "StringCGroup", "2304",
              note="rank-5 system (c) survives mod 2"),
    GoldenCase("rank5-d-mod2", RANK5["d"], 2, "StringCGroup", "9216",
              note="rank-5 system (d) survives mod 2"),
    GoldenCase("rank5-a-mod3", RANK5["a"], 3, "StringCGroup", "103680",
              note="odd modulus: full orthogonal group O(5,3), order "
                   "2*3^4*(3^4-1)*(3^2-1)"),
    GoldenCase("rank5-a-mod5", RANK5["a"], 5, "StringCGroup", "18720000",
              note="odd modulus: O(5,5), twice the kernel subgroup order "
                   "5^4*(5^4-1)*(5^2-1)"),
    GoldenCase("rank6-a-mod3", RANK6["a"], 3, "StringCGroup", "24261120",
              note="rank-6 mod 3: O(6,3,+), order "
                   "2*3^6*(3^4-1)*(3^3-1)*(3^2-1)"),
    GoldenCase("rank6-b-mod3", RANK6["b"], 3, "StringCGroup", "24261120",
              note="rank-6 system (b), same mod-3 image"),
    GoldenCase("rank6-h-words-mod3", RANK6["b"], 3, "StringCGroup", "24261120",
              words=H_WORDS, expect_index=1,
              note="halved subgroup words collapse to the whole group mod 3"),
    GoldenCase("rank6-k-words-mod3", RANK6["a"], 3, "StringCGroup", "24261120",
              words=K_WORDS, expect_index=1,
              note="derived subgroup words collapse to the whole group mod 3"),
    GoldenCase("rank6-a-mod4", RANK6["a"], 4, "StringCGroup", str(G6),
              long=True, note="rank-6 mod 4, order 2^26*3^2*5"),
    GoldenCase("rank6-b-mod4", RANK6["b"], 4, "StringCGroup", str(G6),
              long=True, note="rank-6 system (b), same mod-4 order"),
    GoldenCase("rank6-h-words-mod4", RANK6["b"], 4, "StringCGroup",
              str(G6 // 5), words=H_WORDS, expect_index=5, long=True,
              note="halved subgroup: index 5 mod 4"),
    GoldenCase("rank6-k-words-mod4", RANK6["a"], 4, "StringCGroup",
              str(G6 // 10), words=K_WORDS, expect_index=10, long=True,
              note="derived subgroup: index 10 mod 4"),
    GoldenCase("rank6-kc-mod4", RANK6_DERIVED["c"], 4, "StringCGroup",
              str(G6C), long=True,
              note="derived rank-6 system (c): order 2^29*3^2"),
    GoldenCase("rank6-kb-mod4", RANK6_DERIVED["b"], 4, "IntersectionFails",
              "301989888", expect_witness_index=2, long=True,
              note="derived rank-6 system (b) fails the intersection "
                   "condition mod 4 (order is a measured regression pin)"),
    GoldenCase("rank6-kd-mod4", RANK6_DERIVED["d"], 4, "IntersectionFails",
              "301989888", expect_witness_index=2, long=True,
              note="derived rank-6 system (d) fails the intersection "
                   "condition mod 4 (order is a measured regression pin)"),
    GoldenCase("rank6-kb-mod6", RANK6_DERIVED["b"], 6, "IntersectionFails",
              "111795240960", expect_witness_index=2, long=True,
              note="derived rank-6 system (b) fails the intersection "
                   "condition mod 6 too (order is a measured regression pin)"),
    GoldenCase("rank6-kd-mod6", RANK6_DERIVED["d"], 6, "IntersectionFails",
              "111795240960", expect_witness_index=2, long=True,
              note="derived rank-6 system (d) fails the intersection "
                   "condition mod 6 too (order is a measured regression pin)"),
)
