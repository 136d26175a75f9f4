"""Command-line surface: verify, classify, subgroup, reproduce, parse.

Exit codes: 0 success (verify/subgroup: the group is a string C-group;
reproduce: no case failed), 1 negative verdict or failed case, 2 input or
parse error, 3 a computation guard tripped.

With a cache directory (--cache or the MODPOLY_CACHE environment variable,
the latter winning when both are set), verify/classify/subgroup runs store
their exact output bytes and exit code; a later identical run replays them
byte-for-byte.
"""

import argparse
import os
import sys
import time

from . import __version__, cache, report
from .diagram import ParseError, parse_diagram, parse_file
from .engine import (BoundExceeded, OrbitGuardExceeded, OrderGuardExceeded,
                     PointSpaceOverflow)
from .matrep import ModularRep
from .polytopality import Verifier, verify_diagram, verify_words
from .registry import registry
from .toroids import classify

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_GUARD = 3

_GUARD_ERRORS = (BoundExceeded, OrbitGuardExceeded, OrderGuardExceeded,
                 PointSpaceOverflow)


class InputError(ValueError):
    """Bad command input that argparse cannot catch (exit 2)."""


def build_parser():
    top = argparse.ArgumentParser(
        prog="modpoly",
        description="Modular reduction of crystallographic Coxeter groups: "
                    "string C-group verification, section classification, "
                    "and golden-case reproduction.")
    top.add_argument("--version", action="version",
                     version="%(prog)s " + __version__)
    sub = top.add_subparsers(dest="command", required=True)

    fmt_opts = argparse.ArgumentParser(add_help=False)
    fmt_opts.add_argument("--format", choices=("text", "json"),
                          default="text", help="output format")
    cache_opts = argparse.ArgumentParser(add_help=False)
    cache_opts.add_argument("--cache", metavar="DIR",
                            help="result cache directory (reproduce always "
                                 "recomputes)")
    guard_opts = argparse.ArgumentParser(add_help=False)
    guard_opts.add_argument("--guard-order", type=int, metavar="N",
                            help="abort when a group order exceeds N")
    guard_opts.add_argument("--guard-orbit", type=int, metavar="N",
                            help="abort when an intersection orbit exceeds N")

    src_opts = argparse.ArgumentParser(add_help=False)
    grp = src_opts.add_mutually_exclusive_group(required=True)
    grp.add_argument("-d", "--diagram", metavar="TEXT",
                     help="diagram text, e.g. \"2 - 1 - 3 - 6\"")
    grp.add_argument("-f", "--file", metavar="PATH",
                     help="file with one diagram per line")

    mod_opts = argparse.ArgumentParser(add_help=False)
    mgrp = mod_opts.add_mutually_exclusive_group(required=True)
    mgrp.add_argument("-m", "--modulus", type=int, metavar="MOD")
    mgrp.add_argument("--mod-range", metavar="A..B",
                      help="inclusive modulus range, e.g. 2..12")

    p = sub.add_parser("verify", parents=[src_opts, mod_opts, fmt_opts,
                                            cache_opts, guard_opts],
                       help="decide the string C-group property")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", parents=[src_opts, mod_opts, fmt_opts,
                                              cache_opts],
                       help="classify maximal spherical/Euclidean sections")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("subgroup", parents=[src_opts, fmt_opts, cache_opts,
                                              guard_opts],
                       help="verify a subgroup given by generator words")
    p.add_argument("-m", "--modulus", type=int, metavar="MOD", required=True)
    p.add_argument("--word", action="append", metavar="INDICES", required=True,
                   help="one generator word as indices, e.g. \"2 1 2\"; repeat "
                        "per generator")
    p.set_defaults(func=cmd_subgroup)

    p = sub.add_parser("reproduce", parents=[fmt_opts, cache_opts],
                       help="recompute the golden-case registry")
    p.add_argument("--long", action="store_true",
                   help="run the degree-4096 cases too")
    p.add_argument("--case", action="append", metavar="ID",
                   help="run only this case id (repeatable)")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("parse", parents=[src_opts, fmt_opts],
                       help="parse and normalize a diagram")
    p.add_argument("-m", "--modulus", type=int, metavar="MOD")
    p.add_argument("--dump-rep", action="store_true",
                   help="include the reflection matrices mod -m")
    p.set_defaults(func=cmd_parse)
    return top


def _load_diagrams(args):
    if args.diagram is not None:
        return [parse_diagram(args.diagram)]
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (args.file, exc.strerror))
    diagrams = parse_file(text)
    if not diagrams:
        raise InputError("no diagrams in %s" % args.file)
    return diagrams


def _moduli(args):
    if getattr(args, "mod_range", None):
        lo, sep, hi = args.mod_range.partition("..")
        if not sep or not lo.isdigit() or not hi.isdigit():
            raise InputError("--mod-range wants A..B, got %r" % args.mod_range)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise InputError("empty modulus range %d..%d" % (lo, hi))
        moduli = list(range(lo, hi + 1))
    else:
        moduli = [args.modulus]
    for m in moduli:
        if m < 2:
            raise InputError("modulus must be at least 2, got %d" % m)
    return moduli


def _guards(args):
    out = {}
    for name, key in (("guard_order", "order_guard"),
                      ("guard_orbit", "orbit_guard")):
        val = getattr(args, name, None)
        if val is not None:
            if val <= 0:
                raise InputError("%s must be positive" % name.replace("_", "-"))
            out[key] = val
    return out


def _run(args, compute, cache_parts=None):
    """Write a run's output bytes and return its exit code.

    With cache_parts and a cache directory a stored run is replayed;
    otherwise compute() gives (payloads, exit code), which are rendered,
    stored when cache_parts is given, and written.
    """
    cache_dir = os.environ.get("MODPOLY_CACHE") or getattr(args, "cache", None)
    key = None
    if cache_dir and cache_parts is not None:
        key = cache.cache_key(cache_parts + [args.format, __version__])
    hit = cache.load(cache_dir, key) if key else None
    if hit is None:
        payloads, code = compute()
        payload = payloads[0] if len(payloads) == 1 else {"results": payloads}
        data = report.render(args.command, payload, args.format)
        if key:
            cache.store(cache_dir, key, data, code)
    else:
        data, code = hit
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()
    return code


def _verify_parts(args, diagrams, moduli, words=None):
    return [args.command, [d.render() for d in diagrams], moduli,
            sorted(_guards(args).items()), words]


def cmd_verify(args):
    diagrams = _load_diagrams(args)
    moduli = _moduli(args)
    guards = _guards(args)

    def compute():
        payloads, code = [], EXIT_OK
        for diagram in diagrams:
            for m in moduli:
                rep = verify_diagram(diagram, m, **guards)
                payloads.append(rep.to_dict())
                if not rep.ok:
                    code = EXIT_NEGATIVE
        return payloads, code
    return _run(args, compute, _verify_parts(args, diagrams, moduli))


def cmd_classify(args):
    diagrams = _load_diagrams(args)
    moduli = _moduli(args)

    def compute():
        return [report.classify_payload(diagram.render(), m, classify(diagram, m))
                for diagram in diagrams for m in moduli], EXIT_OK
    return _run(args, compute, _verify_parts(args, diagrams, moduli))


def _parse_words(raw_words):
    words = []
    for raw in raw_words:
        toks = raw.split()
        if not toks:
            raise InputError("empty generator word")
        try:
            words.append(tuple(int(t) for t in toks))
        except ValueError:
            raise InputError("bad generator word %r" % raw)
    return tuple(words)


def _verify_subgroup(diagram, modulus, words, **guards):
    """(verify_words report, parent group order, index); the index is None
    when the subgroup order does not divide the parent order.
    """
    parent = Verifier(ModularRep(diagram, modulus).mats, modulus,
                      order_guard=guards.get("order_guard")).segment_order(0, diagram.rank)
    sub = verify_words(diagram, modulus, words, **guards)
    index, rem = divmod(parent, sub.order)
    return sub, parent, None if rem else index


def cmd_subgroup(args):
    diagrams = _load_diagrams(args)
    moduli = _moduli(args)
    words = _parse_words(args.word)
    guards = _guards(args)

    def compute():
        payloads, code = [], EXIT_OK
        for diagram in diagrams:
            for w in words:
                for idx in w:
                    if not 0 <= idx < diagram.rank:
                        raise InputError("word index %d out of range for rank %d"
                                         % (idx, diagram.rank))
            sub, parent, index = _verify_subgroup(diagram, args.modulus, words, **guards)
            if index is None:
                raise RuntimeError("subgroup order does not divide the parent order")
            payloads.append(report.subgroup_payload(parent, sub, index))
            if not sub.ok:
                code = EXIT_NEGATIVE
        return payloads, code
    return _run(args, compute, _verify_parts(args, diagrams, moduli,
                                             [list(w) for w in words]))


def cmd_parse(args):
    diagrams = _load_diagrams(args)
    if args.dump_rep and args.modulus is None:
        raise InputError("--dump-rep needs -m")
    if args.modulus is not None and args.modulus < 2:
        raise InputError("modulus must be at least 2, got %d" % args.modulus)
    payloads = []
    for diagram in diagrams:
        payload = report.parse_payload(diagram)
        if args.dump_rep:
            rep = ModularRep(diagram, args.modulus)
            payload["modulus"] = args.modulus
            payload["matrices"] = [m.tolist() for m in rep.mats]
        payloads.append(payload)
    return _run(args, lambda: (payloads, EXIT_OK))


def _run_case(case):
    diagram = parse_diagram(case.diagram)
    expected, computed, diffs = {}, {}, []

    def check(name, want, got):
        if want is None:
            return
        expected[name] = want
        computed[name] = got
        if want != got:
            diffs.append("%s: expected %r, computed %r" % (name, want, got))

    if case.words:
        rep, _, index = _verify_subgroup(diagram, case.modulus, case.words)
        check("index", case.expect_index, index)
    else:
        rep = verify_diagram(diagram, case.modulus)
    check("verdict", case.expect_verdict, rep.verdict)
    check("order", case.expect_order, str(rep.order))
    if case.expect_witness_index is not None:
        got = None
        for c in rep.checks:
            if not c.passed and c.witness and "index" in c.witness:
                got = c.witness["index"]
                break
        check("witness_index", case.expect_witness_index, got)
    if case.expect_sections:
        sections = classify(diagram, case.modulus)
        by_window = {tuple(sc.window): sc.measured_q for sc in sections}
        for window, q in case.expect_sections:
            check("section %d..%d q" % window, tuple(q),
                  by_window.get(tuple(window)))
    return {
        "id": case.ident,
        "status": "FAIL" if diffs else "PASS",
        "expected": expected,
        "computed": computed,
        "diffs": diffs,
        "note": case.note,
    }


def cmd_reproduce(args):
    cases = list(registry())
    if args.case:
        known = {c.ident for c in cases}
        for ident in args.case:
            if ident not in known:
                raise InputError("unknown case id %r" % ident)
        cases = [c for c in cases if c.ident in set(args.case)]
    rows = []
    for case in cases:
        if case.long and not args.long:
            rows.append({"id": case.ident, "status": "SKIPPED(long)",
                         "note": case.note})
            continue
        start = time.perf_counter()
        rows.append(_run_case(case))
        # timings go to stderr only, so stdout stays byte-deterministic
        print("%s  %.3f" % (case.ident, time.perf_counter() - start), file=sys.stderr)
    rows.sort(key=lambda r: r["id"])
    payload = report.reproduce_payload(rows)
    code = EXIT_OK if payload["counts"]["fail"] == 0 else EXIT_NEGATIVE
    return _run(args, lambda: ([payload], code))


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_PARSE
    try:
        return args.func(args)
    except (ParseError, InputError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except _GUARD_ERRORS as exc:
        print("guard: %s" % exc, file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
