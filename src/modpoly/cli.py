"""Command-line computation: verify, classify, subgroup, reproduce, parse.

`modpoly.entry` parses the arguments, checks the inputs and replays cached
runs (exit codes and the cache are described there); it hands every other
run to `execute`, which computes, renders, stores and writes it.  `main` is
`modpoly.entry.main`, the whole command line.  Importing this module loads
the solver: numpy, the engine, polytopality, toroids and the registry.
"""

import sys
import time

from . import report
from .diagram import parse_diagram
from .engine import (BoundExceeded, OrbitGuardExceeded, OrderGuardExceeded,
                     PointSpaceOverflow)
from .entry import EXIT_GUARD, EXIT_NEGATIVE, EXIT_OK, InputError, main  # noqa: F401
from .matrep import ModularRep
from .polytopality import Verifier, verify_diagram, verify_words
from .registry import registry
from .toroids import classify

_GUARD_ERRORS = (BoundExceeded, OrbitGuardExceeded, OrderGuardExceeded,
                 PointSpaceOverflow)


def cmd_verify(run):
    payloads, code = [], EXIT_OK
    for diagram in run.diagrams:
        for m in run.moduli:
            rep = verify_diagram(diagram, m, **run.guards)
            payloads.append(rep.to_dict())
            if not rep.ok:
                code = EXIT_NEGATIVE
    return payloads, code


def cmd_classify(run):
    return [report.classify_payload(diagram.render(), m, classify(diagram, m))
            for diagram in run.diagrams for m in run.moduli], EXIT_OK


def _verify_subgroup(diagram, modulus, words, **guards):
    """(verify_words report, parent group order, index); the index is None
    when the subgroup order does not divide the parent order.
    """
    parent = Verifier(ModularRep(diagram, modulus).mats, modulus,
                      order_guard=guards.get("order_guard")).segment_order(0, diagram.rank)
    sub = verify_words(diagram, modulus, words, **guards)
    index, rem = divmod(parent, sub.order)
    return sub, parent, None if rem else index


def cmd_subgroup(run):
    [modulus] = run.moduli
    payloads, code = [], EXIT_OK
    for diagram in run.diagrams:
        for w in run.words:
            for idx in w:
                if not 0 <= idx < diagram.rank:
                    raise InputError("word index %d out of range for rank %d"
                                     % (idx, diagram.rank))
        sub, parent, index = _verify_subgroup(diagram, modulus, run.words, **run.guards)
        if index is None:
            raise RuntimeError("subgroup order does not divide the parent order")
        payloads.append(report.subgroup_payload(parent, sub, index))
        if not sub.ok:
            code = EXIT_NEGATIVE
    return payloads, code


def cmd_parse(run):
    args = run.args
    if args.dump_rep and args.modulus is None:
        raise InputError("--dump-rep needs -m")
    if args.modulus is not None and args.modulus < 2:
        raise InputError("modulus must be at least 2, got %d" % args.modulus)
    payloads = []
    for diagram in run.diagrams:
        payload = report.parse_payload(diagram)
        if args.dump_rep:
            rep = ModularRep(diagram, args.modulus)
            payload["modulus"] = args.modulus
            payload["matrices"] = [m.tolist() for m in rep.mats]
        payloads.append(payload)
    return payloads, EXIT_OK


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


def cmd_reproduce(run):
    args = run.args
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
    return [payload], EXIT_OK if payload["counts"]["fail"] == 0 else EXIT_NEGATIVE


COMMANDS = {"verify": cmd_verify, "classify": cmd_classify, "subgroup": cmd_subgroup,
            "reproduce": cmd_reproduce, "parse": cmd_parse}


def execute(run):
    """Compute a `modpoly.entry.Run`, then render, store and write it; return
    its exit code."""
    try:
        payloads, code = COMMANDS[run.args.command](run)
    except _GUARD_ERRORS as exc:
        print("guard: %s" % exc, file=sys.stderr)
        return EXIT_GUARD
    payload = payloads[0] if len(payloads) == 1 else {"results": payloads}
    return run.finish(report.render(run.args.command, payload, run.args.format), code)

