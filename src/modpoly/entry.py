"""Command-line entry: arguments, input checks and the result cache.

Exit codes: 0 success (verify/subgroup: the group is a string C-group;
reproduce: no case failed), 1 negative verdict or failed case, 2 input or
parse error (a modulus of 2^63 or more, whose residues int64 cannot hold,
among them), 3 a computation guard tripped.

With a cache directory (--cache DIR), verify/classify/subgroup runs store
their exact output bytes and exit code, one file per run; a later identical
run replays them byte-for-byte.  A replay needs neither numpy nor the
solver: this module parses the arguments and the diagrams, checks every
input, looks the run up in the cache, and imports `modpoly.cli`, which
computes, only when it has to.  A cache that cannot be written costs a run
one `cache:` line on stderr, not its result.

A process that loads numpy here, the first time, loads it with one OpenBLAS
thread unless OPENBLAS_NUM_THREADS is already set.  OpenBLAS otherwise
starts a worker per further CPU, and the workers spin: on a 2-CPU host the
one worker cost a rank-8 `verify` child 0.13 s of CPU on top of its 0.22 s
wall.  It buys nothing: the solver's only BLAS calls multiply n x n
matrices with n at most ~20, which OpenBLAS never splits across threads,
and their bytes do not depend on the thread count (`modpoly.engine`,
"Arithmetic").  A caller that has loaded numpy already, such as a test or a
library user, keeps its own pool, and its environment is left as it is.
"""

import argparse
import os
import sys

from . import __version__, cache
from .diagram import ParseError, parse_diagram, parse_file

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_GUARD = 3

_CACHED = ("verify", "classify", "subgroup")  # the commands a cache holds


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
    guard_opts.add_argument("--guard-order", metavar="N",
                            help="abort when a group order exceeds N")
    guard_opts.add_argument("--guard-orbit", metavar="N",
                            help="abort when an intersection orbit exceeds N")

    src_opts = argparse.ArgumentParser(add_help=False)
    grp = src_opts.add_mutually_exclusive_group(required=True)
    grp.add_argument("-d", "--diagram", metavar="TEXT",
                     help="diagram text, e.g. \"2 - 1 - 3 - 6\"")
    grp.add_argument("-f", "--file", metavar="PATH",
                     help="file with one diagram per line")

    mod_opts = argparse.ArgumentParser(add_help=False)
    mgrp = mod_opts.add_mutually_exclusive_group(required=True)
    mgrp.add_argument("-m", "--modulus", metavar="MOD")
    mgrp.add_argument("--mod-range", metavar="A..B",
                      help="inclusive modulus range, e.g. 2..12")

    sub.add_parser("verify", parents=[src_opts, mod_opts, fmt_opts,
                                      cache_opts, guard_opts],
                   help="decide the string C-group property")

    sub.add_parser("classify", parents=[src_opts, mod_opts, fmt_opts,
                                        cache_opts],
                   help="classify maximal spherical/Euclidean sections")

    p = sub.add_parser("subgroup", parents=[src_opts, fmt_opts, cache_opts,
                                              guard_opts],
                       help="verify a subgroup given by generator words")
    p.add_argument("-m", "--modulus", metavar="MOD", required=True)
    p.add_argument("--word", action="append", metavar="INDICES", required=True,
                   help="one generator word as indices, e.g. \"2 1 2\"; repeat "
                        "per generator")

    p = sub.add_parser("reproduce", parents=[fmt_opts, cache_opts],
                       help="recompute the golden-case registry")
    p.add_argument("--long", action="store_true",
                   help="run the long cases too (rank 6 mod 4 and mod 6)")
    p.add_argument("--case", action="append", metavar="ID",
                   help="run only this case id (repeatable)")

    p = sub.add_parser("parse", parents=[src_opts, fmt_opts],
                       help="parse and normalize a diagram")
    p.add_argument("-m", "--modulus", metavar="MOD")
    p.add_argument("--dump-rep", action="store_true",
                   help="include the reflection matrices mod -m")
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


def _decimal(text, error):
    """The integer that text writes in decimal digits alone, as diagrams
    write their labels; InputError(error) for anything else, such as a sign,
    a space or an underscore, which int() would read."""
    if not text.isdecimal():
        raise InputError(error)
    return int(text)


def _modulus(text, error):
    """A modulus read by _decimal, refused from 2^63 on: its residues would
    not fit the int64 entries of the engine's matrices."""
    d = _decimal(text, error)
    if d >= 2 ** 63:
        raise InputError("modulus must be below 2^63, got %d" % d)
    return d


def _read_integers(args):
    """Replace the text of each integer option given with its value."""
    for name, flag, read in (("modulus", "-m", _modulus),
                             ("guard_order", "--guard-order", _decimal),
                             ("guard_orbit", "--guard-orbit", _decimal)):
        text = getattr(args, name, None)
        if text is not None:
            setattr(args, name, read(text, "%s wants a decimal integer, got %r"
                                           % (flag, text)))


def _moduli(args):
    """The moduli to run, as a range; it is never listed, so a huge range
    costs nothing until the solver reaches its moduli."""
    if getattr(args, "mod_range", None):
        lo, sep, hi = args.mod_range.partition("..")
        error = "--mod-range wants A..B, got %r" % args.mod_range
        if not sep:
            raise InputError(error)
        lo, hi = _modulus(lo, error), _modulus(hi, error)
        if hi < lo:
            raise InputError("empty modulus range %d..%d" % (lo, hi))
    else:
        lo = hi = args.modulus
    if lo < 2:  # the smallest modulus is the first bad one
        raise InputError("modulus must be at least 2, got %d" % lo)
    return range(lo, hi + 1)


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


def _parse_words(raw_words):
    words = []
    for raw in raw_words:
        toks = raw.split()
        if not toks:
            raise InputError("empty generator word")
        words.append(tuple(_decimal(t, "bad generator word %r" % raw) for t in toks))
    return tuple(words)


def _check_word_indices(words, diagrams):
    for diagram in diagrams:
        for w in words:
            for idx in w:
                if not 0 <= idx < diagram.rank:
                    raise InputError("word index %d out of range for rank %d"
                                     % (idx, diagram.rank))


def _check_parse(args):
    if args.dump_rep and args.modulus is None:
        raise InputError("--dump-rep needs -m")
    if args.modulus is not None and args.modulus < 2:
        raise InputError("modulus must be at least 2, got %d" % args.modulus)


def _check_cases(idents):
    from .registry import CASES  # plain data; no solver
    known = {c.ident for c in CASES}
    for ident in idents:
        if ident not in known:
            raise InputError("unknown case id %r" % ident)


def _write(data, code):
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.flush()
    return code


class Run:
    """The checked inputs of one command and its cache entry.

    Every input check of every command runs here, before the solver loads.
    Every command that reads diagrams gets them here, each file read once.
    A cached command also gets its moduli, guards and generator words and,
    with a cache directory, the key of its entry, which hashes every input
    that affects the output (`modpoly.cache`).
    """

    def __init__(self, args):
        self.args = args
        _read_integers(args)
        self.diagrams = _load_diagrams(args) if hasattr(args, "diagram") else None
        self.moduli = self.words = self.cache_dir = self.key = None
        self.guards = {}
        if args.command == "parse":
            _check_parse(args)
        elif args.command == "reproduce" and args.case:
            _check_cases(args.case)
        if args.command in _CACHED:
            self.moduli = _moduli(args)
            if args.command == "subgroup":
                self.words = _parse_words(args.word)
            self.guards = _guards(args)
            if args.command == "subgroup":
                _check_word_indices(self.words, self.diagrams)
            self.cache_dir = args.cache
            if self.cache_dir:
                words = None if self.words is None else [list(w) for w in self.words]
                self.key = cache.cache_key([
                    args.command, [d.render() for d in self.diagrams],
                    [self.moduli[0], self.moduli[-1]],
                    sorted(self.guards.items()), words, args.format, __version__])

    def replay(self):
        """Write the stored bytes of this run and return its exit code; None
        when nothing intact is stored."""
        hit = cache.load(self.cache_dir, self.key) if self.key else None
        return None if hit is None else _write(*hit)

    def finish(self, data, code):
        """Store a computed run's bytes when it has a key, write them and
        return its exit code; a failed store only costs the entry."""
        if self.key:
            try:
                cache.store(self.cache_dir, self.key, data, code)
            except OSError as exc:
                print("cache: %s" % exc, file=sys.stderr)
        return _write(data, code)


def main(argv=None):
    """Run one modpoly command and return its exit code.

    The `modpoly` console script and `python -m modpoly` enter here, and
    `modpoly.cli.main` is this function.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_PARSE
    try:
        run = Run(args)
        code = run.replay()
        if code is None:
            if "numpy" not in sys.modules:
                os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
            from . import cli  # the solver, numpy with it, loads here
            code = cli.execute(run)
        return code
    except (ParseError, InputError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
