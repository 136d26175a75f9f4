"""Outside-in span tracer for one in-process run of the modpoly CLI.

    PYTHONPATH=src python3 bench/spans.py SUMMARY.json verify -d "1 - 2 - 1" -m 4

imports `modpoly.cli`, wraps the public functions listed in LAYERS, calls
`modpoly.cli.main(argv)` and writes per-layer totals to SUMMARY.json.  The
exit code and stdout bytes are those of `main`.  Nothing under `src/` is
edited: each wrapper is installed from here under every name a caller looks
the function up by, since a module that did `from .engine import
intersection_order` holds a reference of its own.  Classes are timed through
their `__init__`.

Span stacks are kept per thread, so work that `reproduce` hands to its
thread pool opens root spans of its own thread; the parent recorded for such
a root is the `cli.main` span that caused it.  Per layer:

- `calls`: spans not nested in a span of the same layer;
- `busy_s`: their summed duration (thread-seconds);
- `wall_s`: the length of the union of their intervals;
- `self_s`: span time not covered by child spans.
"""

import functools
import inspect
import json
import resource
import sys
import threading
import time

# (layer, module, attribute); a dotted attribute names a method of a class
LAYERS = (
    ("cli.main", "modpoly.cli", "main"),
    ("diagram.parse", "modpoly.diagram", "parse_diagram"),
    ("matrep.rep", "modpoly.matrep", "ModularRep.__init__"),
    ("matrep.nullspace", "modpoly.matrep", "gram_matrix"),
    ("matrep.nullspace", "modpoly.matrep", "radical_vector"),
    ("engine.chain", "modpoly.engine", "StabChain.__init__"),
    ("engine.intersection", "modpoly.engine", "intersection_order"),
    ("engine.period", "modpoly.engine", "element_period"),
    ("engine.enumerate", "modpoly.engine", "enumerate_small"),
    ("polytopality.verify", "modpoly.polytopality", "verify_diagram"),
    ("polytopality.verify", "modpoly.polytopality", "verify_words"),
    ("toroids.classify", "modpoly.toroids", "classify"),
    ("toroids.translation", "modpoly.toroids", "translation_generators"),
    ("toroids.type_vector", "modpoly.toroids", "type_vector"),
    ("report.render", "modpoly.report", "render"),
    ("cache.load", "modpoly.cache", "load"),
    ("cache.store", "modpoly.cache", "store"),
)

# counters kept as maxima, in a process and over the processes of a pass;
# the others are sums
MAX_COUNTS = ("schreier_max", "max_orbit")


def chain_counts(chain):
    """(Schreier generators, levels, strong generators, largest orbit).

    Deterministic Schreier-Sims forms one Schreier generator per orbit point
    and strong generator at that level or deeper (Seress, Permutation Group
    Algorithms, ch. 4), so the count follows from the finished chain alone.
    """
    schreier, max_orbit = 0, 0
    for li, lev in enumerate(chain.levels):
        deeper = sum(1 for _, _, glvl in chain.gens if glvl >= li)
        schreier += lev.orbit_size * deeper
        max_orbit = max(max_orbit, lev.orbit_size)
    return schreier, len(chain.levels), len(chain.gens), max_orbit


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent span index or None]
        self.counts = {key: 0 for key in (
            "schreier", "schreier_max", "levels", "strong_gens", "max_orbit",
            "rss_growth_mb", "coset_walks", "coset_orbit_sum", "sections",
            "bytes", "cache_loads", "cache_hits")}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None
        self._rss_seen = 0.0

    # -- installation ------------------------------------------------------

    def install(self):
        import modpoly.cli  # noqa: F401  (loads every module LAYERS names)

        hooks = {
            "engine.chain": self._after_chain,
            "engine.intersection": self._after_intersection,
            "toroids.classify": self._after_classify,
            "report.render": self._after_render,
            "cache.load": self._after_cache_load,
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "modpoly" or name.startswith("modpoly.")]
        for layer, modname, attr in LAYERS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                setattr(owner, attr, self._wrap(layer, getattr(owner, attr),
                                                hooks.get(layer)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, hooks.get(layer))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, layer, fn, hook):
        track_rss = layer == "engine.chain"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, rss0 = self._open(layer, track_rss)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, rss0)
            if hook is not None:
                hook(fn, args, kwargs, result)
            return result
        return wrapper

    # -- spans -------------------------------------------------------------

    def _open(self, layer, track_rss):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._root
        rss0 = _maxrss_mb() if track_rss else None
        with self._lock:
            sid = len(self.spans)
            self.spans.append([layer, time.perf_counter(), None, parent])
            if self._root is None:
                self._root = sid
        stack.append(sid)
        return sid, rss0

    def _close(self, sid, rss0):
        end = time.perf_counter()
        self._local.stack.pop()
        with self._lock:
            self.spans[sid][2] = end
            if rss0 is not None:
                # growth of the process's peak RSS while a chain was built,
                # each megabyte attributed once even when builds overlap
                now = _maxrss_mb()
                self.counts["rss_growth_mb"] += max(
                    0.0, now - max(rss0, self._rss_seen))
                self._rss_seen = max(self._rss_seen, now)

    # -- counters ----------------------------------------------------------

    def _add(self, **deltas):
        with self._lock:
            for key, val in deltas.items():
                if key in MAX_COUNTS:
                    self.counts[key] = max(self.counts[key], val)
                else:
                    self.counts[key] += val

    def _after_chain(self, fn, args, kwargs, result):
        schreier, levels, gens, max_orbit = chain_counts(args[0])
        self._add(schreier=schreier, schreier_max=schreier, levels=levels,
                  strong_gens=gens, max_orbit=max_orbit)

    def _after_intersection(self, fn, args, kwargs, result):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        a, b = bound.arguments["a"], bound.arguments["b"]
        small = min(a.order(), b.order())
        if small > bound.arguments["enum_bound"]:
            self._add(coset_walks=1, coset_orbit_sum=small // result)

    def _after_classify(self, fn, args, kwargs, result):
        self._add(sections=len(result))

    def _after_render(self, fn, args, kwargs, result):
        self._add(bytes=len(result))

    def _after_cache_load(self, fn, args, kwargs, result):
        self._add(cache_loads=1, cache_hits=int(result is not None))

    # -- summary -----------------------------------------------------------

    def summary(self):
        children = {}
        for sid, (_, start, end, parent) in enumerate(self.spans):
            if end is not None and parent is not None:
                children.setdefault(parent, []).append((start, end))
        layers = {}
        for sid, (layer, start, end, parent) in enumerate(self.spans):
            if end is None:
                continue
            row = layers.setdefault(layer, {"calls": 0, "busy_s": 0.0,
                                            "self_s": 0.0, "outer": []})
            covered = _union_length(children.get(sid, ()), start, end)
            row["self_s"] += end - start - covered
            if not self._nested_in_own_layer(parent, layer):
                row["calls"] += 1
                row["busy_s"] += end - start
                row["outer"].append((start, end))
        for row in layers.values():
            row["wall_s"] = _union_length(row.pop("outer"))
        return {"layers": layers, "counts": dict(self.counts)}

    def _nested_in_own_layer(self, parent, layer):
        while parent is not None:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][3]
        return False


def _union_length(intervals, lo=None, hi=None):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if lo is not None:
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import modpoly.cli

    code = modpoly.cli.main(cli_argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
