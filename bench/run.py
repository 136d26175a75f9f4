"""Benchmark of the modpoly CLI: three workloads, checked outputs, layer spans.

    python3 bench/run.py --workload big-chain --seed 7 --seconds 38 --trace 0

Run it from the repository root; it builds nothing and runs the program from
`src/`.  A run starts passes of its workload while one more pass, as long as
the longest so far, would end within `--seconds`; the first pass always
runs.  A pass runs the workload's CLI invocations cold, each as its own
`python -m modpoly` process with a fresh `--cache` directory, then replays
them once against the warm cache.  Each child's wall time runs from spawn
to exit; its CPU time and peak RSS come from `os.wait4` on that child
alone.  Children get PYTHONPATH=src and no MODPOLY_CACHE.

Each child is followed by a run of `reference.py`, fixed work of the
benchmark alone.  The host's speed drifts as other guests load it, so the
reported times are scaled by REF_S over the mean reference time just before
and after their child (class Speed), wall time by the reference's wall time
and CPU time by its CPU time: seconds on a host where the reference takes
REF_S.  The unscaled medians are printed beside them.

Workloads (the seed only changes `sweep`):

- `big-chain`: `verify` of one rank-8 diagram mod 4.  One huge stabilizer
  chain (416,966 Schreier generators) dominates the time and the ~900 MB
  peak RSS.
- `registry`: `reproduce --long`, the 30 golden cases, on the CLI's own
  thread pool.  Mid-size chains plus coset-orbit intersection walks.
- `sweep`: a seeded file of 60 small diagrams (`sweep.py`) through
  `verify --mod-range 2..6` and `classify --mod-range 2..8`.  Thousands of
  tiny chains, where per-call overhead dominates; the only workload that
  reaches `toroids`, `matrep`'s sympy code and cache hits.

With `--trace 0` the last line of stdout holds the end-to-end metrics, times
scaled as above:

- `wall_s`, `cpu_s`: the cold invocations of a pass, summed; median over
  passes;
- `peak_rss_mb`: the largest peak RSS of any child;
- `replay_s`: the replay round of a pass, summed; median over passes
  (`reproduce` ignores `--cache`, so on `registry` a replay recomputes);
- `setup_s`: median of SETUP_REPEATS fresh `python -c "import modpoly.cli"`.

With `--trace 1` each pass is followed by a traced pass whose children run
the CLI in-process under `spans.py`; the last line holds the per-layer
metrics of `layer_metrics`, medians over traced passes, and
`trace.overhead_s`, traced minus untraced cold wall time.

Operations are CLI invocations and, for `registry`, golden cases; `failed`
counts those with a wrong exit code, a crash, a timeout or wrong bytes.
Byte checks: the sha256 digests in `expected.json`, recorded when this
benchmark was added, for `big-chain` and for `sweep` with seed 7; replays
repeat their cold run, every pass repeats the first and traced runs repeat
untraced ones.  Once per run, outside the timed part, every `verify` order
up to 20,000 is compared with the BFS closure `modpoly.engine.enumerate_small`.
"""

import argparse
import collections
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import sweep
from spans import MAX_COUNTS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(BENCH_DIR, "expected.json")
WORK_DIR = ".bench-work"   # under the repository root; removed after each run
HARD_LIMIT_S = 170         # a run ends within 180 s whatever --seconds says
SETUP_REPEATS = 3
DIGEST_SEED = 7            # the sweep seed whose output digests are recorded
CLOSURE_BOUND = 20_000
BIG_CHAIN = "1 - 1 - 2 - 2 - 2 - 2 - 2 - 2"
REF_S = 0.3                # reference.py's time on a quiet 2-vCPU VM


def big_chain_steps(work, seed):
    return [("verify", ["verify", "-d", BIG_CHAIN, "-m", "4",
                        "--format", "json"])]


def registry_steps(work, seed):
    return [("reproduce", ["reproduce", "--long", "--format", "json"])]


def sweep_steps(work, seed):
    path = os.path.join(work, "sweep-%d.txt" % seed)
    sweep.write_file(path, seed)
    return [("verify", ["verify", "-f", path, "--mod-range", "2..6",
                        "--format", "json"]),
            ("classify", ["classify", "-f", path, "--mod-range", "2..8",
                          "--format", "json"])]


# steps: (label, CLI arguments) pairs of one pass; layers: spans that must
# record calls in a traced pass
Workload = collections.namedtuple("Workload", "steps layers")
_ENGINE = ("cli.main", "diagram.parse", "matrep.rep", "engine.chain",
           "engine.intersection", "engine.period", "polytopality.verify",
           "report.render")
_TOROIDS = ("matrep.nullspace", "toroids.classify", "toroids.translation",
            "toroids.type_vector")
_CACHE = ("cache.load", "cache.store")
WORKLOADS = {
    "big-chain": Workload(big_chain_steps, _ENGINE + _CACHE),
    "registry": Workload(registry_steps, _ENGINE + _TOROIDS),
    "sweep": Workload(sweep_steps, _ENGINE + _TOROIDS + _CACHE),
}


# -- child processes -------------------------------------------------------

class Child:
    """One finished child process: exit code, stdout bytes, resources;
    `scale` holds its Speed factors for "wall" and "cpu"."""

    def __init__(self, code, out, err, wall, cpu, rss_mb, timed_out):
        self.code, self.out, self.err = code, out, err
        self.wall, self.cpu, self.rss_mb = wall, cpu, rss_mb
        self.timed_out = timed_out
        self.scale = {"wall": 1.0, "cpu": 1.0}


def run_child(argv, env, stem, deadline):
    """Run argv to completion; kill it at `deadline` (a perf_counter time)."""
    with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [],
                                    max(0.0, deadline - time.perf_counter()))
        wall = time.perf_counter() - start
        if not ready:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        os.close(pidfd)
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    with open(stem + ".out", "rb") as fh:
        data = fh.read()
    with open(stem + ".err", "rb") as fh:
        err_tail = fh.read()[-400:].decode("utf-8", "replace")
    return Child(proc.returncode, data, err_tail, wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 not ready)


def child_env(root):
    env = dict(os.environ)
    # MODPOLY_CACHE overrides --cache and would turn cold runs into replays
    env.pop("MODPOLY_CACHE", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


# -- host speed ------------------------------------------------------------

class Speed:
    """Times of `reference.py`, run after every child.

    On a shared host the speed drifts by up to 30% over minutes as other
    guests load it, which no number of samples in one run removes.  A
    child's times are scaled by REF_S over the mean of the reference times
    just before and after it: they read as seconds on a host where the
    reference takes REF_S.  Wall and CPU time are scaled separately: time
    the hypervisor gives to other guests stretches wall time but is not
    CPU time.  The reference runs in a process of its own because a
    child's peak RSS counts the parent's pages at spawn: this process
    stays small.
    """

    def __init__(self, env, work, deadline):
        self._argv = [sys.executable, os.path.join(BENCH_DIR, "reference.py")]
        # one BLAS thread: its CPU time is then that of the work alone
        self._env = dict(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self._deadline = deadline
        self._stem = os.path.join(work, "reference")
        self.samples = []            # reference Child objects
        self._reference()            # warm-up: bytecode and file caches
        self.samples.clear()
        self._last = self._reference()

    def _reference(self):
        child = run_child(self._argv, self._env, self._stem, self._deadline)
        if child.timed_out:
            return self._last        # past the hard limit: the run is ending
        if child.code != 0:
            raise SystemExit("reference.py failed: %s" % child.err)
        self.samples.append(child)
        return child

    def factor(self):
        """Scales for the child run since the previous call (or creation)."""
        before, self._last = self._last, self._reference()
        return {attr: REF_S * 2 / (getattr(before, attr)
                                   + getattr(self._last, attr))
                for attr in ("wall", "cpu")}


# -- correctness -----------------------------------------------------------

class Checker:
    """Counts operations and failures; collects what went wrong."""

    def __init__(self, workload, seed):
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)
        key = workload if workload != "sweep" else "sweep-seed-%d" % seed
        self.digests = expected.get(key, {})
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}   # step label -> cold stdout of the first pass
        self.runs = collections.Counter()   # step label -> invocations

    def _fail(self, what, ops=1):
        self.failed += ops
        self.problems.append(what)

    def invocation(self, label, child, reference=None, phase="cold"):
        """Check one invocation; `reference` is the stdout it must repeat."""
        what = "%s %s" % (phase, label)
        self.runs[label] += 1
        if child.timed_out:
            self.attempted += 1
            self._fail("%s: timed out" % what)
            return
        try:
            payload = json.loads(child.out)
        except ValueError:
            self.attempted += 1
            self._fail("%s: exit %d, stdout is not JSON; stderr: %s"
                       % (what, child.code, child.err))
            return
        ops, bad, why = self._judge(label, child, payload)
        if reference is not None and child.out != reference:
            bad, why = ops, why + ["bytes differ from the reference run"]
        self.attempted += ops
        if bad:
            self._fail("%s: %s" % (what, "; ".join(why)), bad)

    def _judge(self, label, child, payload):
        """(operations, failed operations, reasons) for one invocation."""
        why = []
        if label == "reproduce":
            rows = payload.get("cases", [])
            bad = [r["id"] for r in rows if r.get("status") != "PASS"]
            if bad:
                why.append("cases not passed: %s" % ", ".join(bad))
            if child.code != (1 if bad else 0) or not rows:
                why.append("exit %d with %d cases" % (child.code, len(rows)))
                return max(len(rows), 1), max(len(rows), 1), why
            return len(rows), len(bad), why
        if label == "verify":
            results = payload.get("results", [payload])
            want = 0 if all(r["verdict"] == "StringCGroup"
                            for r in results) else 1
        else:
            want = 0
        if child.code != want:
            why.append("exit %d, expected %d" % (child.code, want))
        digest = self.digests.get(label)
        if digest and hashlib.sha256(child.out).hexdigest() != digest:
            why.append("stdout sha256 differs from the recorded digest")
        return 1, int(bool(why)), why

    def check_pass(self, result, reference=None, prefix=""):
        """Cold runs must repeat the first pass (or `reference`'s cold
        runs), and each replay the cold run of its own pass."""
        cold = dict(result["cold"])
        refs = self.first
        if reference is not None:
            refs = {label: c.out for label, c in reference["cold"]}
        for label, child in result["cold"]:
            self.invocation(label, child, refs.get(label), phase=prefix + "cold")
            self.first.setdefault(label, child.out)
        for label, child in result["replay"]:
            self.invocation(label, child, cold[label].out,
                            phase=prefix + "replay")

    def closure(self, root):
        """Each `verify` order <= CLOSURE_BOUND against the BFS closure."""
        sys.path.insert(0, os.path.join(root, "src"))
        from modpoly.diagram import parse_diagram
        from modpoly.engine import enumerate_small
        from modpoly.matrep import ModularRep

        try:
            payload = json.loads(self.first["verify"])
        except (KeyError, ValueError):
            return 0   # no verify step, or its failure is already counted
        checked, wrong = 0, []
        for row in payload.get("results", [payload]):
            order, m = int(row["order"]), row["modulus"]
            if order > CLOSURE_BOUND:
                continue
            mats = ModularRep(parse_diagram(row["diagram"]), m).mats
            size = enumerate_small(mats, m, bound=CLOSURE_BOUND).shape[0]
            checked += 1
            if size != order:
                wrong.append("%s mod %d: order %d, closure %d"
                             % (row["diagram"], m, order, size))
        if wrong:
            # every verify run of this run printed these same bytes
            self._fail("verify orders differ from the BFS closure: "
                       + "; ".join(wrong), ops=self.runs["verify"])
        return checked


# -- passes ----------------------------------------------------------------

def run_pass(steps, env, work, tag, deadline, speed, traced=False):
    """Cold invocations of steps against one fresh cache, then the same
    invocations against the warm cache.  Each child is followed by a Speed
    reference.  A replay costs about one interpreter start; one per pass
    leaves room for more passes, which steady `wall_s` more than a second
    replay steadies `replay_s`."""
    cache = os.path.join(work, tag + "-cache")
    result = {"cold": [], "replay": [], "summaries": []}
    for phase in ("cold", "replay"):
        done = []
        for label, args in steps:
            stem = os.path.join(work, "%s-%s-%s" % (tag, phase, label))
            argv = [sys.executable, "-m", "modpoly"]
            if traced:
                argv = [sys.executable, os.path.join(BENCH_DIR, "spans.py"),
                        stem + ".spans"]
            child = run_child(argv + args + ["--cache", cache], env, stem,
                              deadline)
            done.append((label, child))
            if child.timed_out:
                break
            child.scale = speed.factor()
            if traced:
                with open(stem + ".spans", encoding="utf-8") as fh:
                    result["summaries"].append(json.load(fh))
        result[phase] = done
        if done[-1][1].timed_out:
            break
    return result


def invocations(result):
    return result["cold"] + result["replay"]


def cold_wall(result):
    return sum(c.wall * c.scale["wall"] for _, c in result["cold"])


def setup_times(env, work, deadline, repeats, speed):
    """`repeats` fresh imports of the CLI after a warm-up, each followed by a
    Speed reference."""
    argv = [sys.executable, "-c", "import modpoly.cli"]
    stem = os.path.join(work, "setup")
    # the first import writes the bytecode cache; users do not pay that twice
    warm = run_child(argv, env, stem, deadline)
    if warm.code != 0:
        raise SystemExit("cannot import modpoly.cli: %s" % warm.err)
    speed.factor()
    runs = []
    for _ in range(repeats):
        child = run_child(argv, env, stem, deadline)
        child.scale = speed.factor()
        runs.append(child)
    return runs


# -- metrics ---------------------------------------------------------------

def upper(values):
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    share = 1 - 10 / n
    return "p%d" % int(share * 100), sorted(values)[int(share * n) - 1]


def end_to_end(passes, setup, speed):
    """Metrics from Speed-scaled times; the unscaled medians are printed
    beside them."""
    def times(groups, attr):
        return [(sum(getattr(c, attr) * c.scale[attr] for c in group),
                 sum(getattr(c, attr) for c in group)) for group in groups]

    colds = [[c for _, c in p["cold"]] for p in passes]
    replays = [[c for _, c in p["replay"]] for p in passes if p["replay"]]
    samples = {
        "wall_s": ("s", times(colds, "wall")),
        "cpu_s": ("s", times(colds, "cpu")),
        "peak_rss_mb": ("MB", [(c.rss_mb, c.rss_mb) for p in passes
                               for _, c in invocations(p)]),
        "setup_s": ("s", times([[c] for c in setup], "wall")),
        "replay_s": ("s", times(replays, "wall")),
    }
    metrics = {}
    for name, (unit, pairs) in samples.items():
        values = [scaled for scaled, _ in pairs]
        if not values:
            continue                 # a timed-out child ended the only pass
        pick = max if name == "peak_rss_mb" else statistics.median
        value = pick(values)
        metrics[name] = {"value": value, "unit": unit}
        up = upper(values)
        print("%-12s %10.4f %-3s n=%-3d %s unscaled=%.4f" % (
            name, value, unit, len(values),
            "%s=%.4f" % up if up else "max=%.4f (too few samples for a "
            "percentile above the median)" % max(values),
            pick(raw for _, raw in pairs)))
    print("speed reference: median wall %.4f s, cpu %.4f s of %d; "
          "REF_S %.4f s" % (statistics.median(c.wall for c in speed.samples),
             statistics.median(c.cpu for c in speed.samples),
             len(speed.samples), REF_S))
    return metrics


def merge(summaries):
    layers, counts = {}, {}
    for summary in summaries:
        for layer, row in summary["layers"].items():
            acc = layers.setdefault(layer, dict.fromkeys(row, 0))
            for key, val in row.items():
                acc[key] += val
        for key, val in summary["counts"].items():
            if key in MAX_COUNTS:
                counts[key] = max(counts.get(key, 0), val)
            else:
                counts[key] = counts.get(key, 0) + val
    return layers, counts


EXACT = ("engine.chain.calls", "engine.chain.schreier", "engine.chain.levels",
         "engine.chain.max_orbit", "engine.chain.strong_gens",
         "engine.chain.schreier_max", "engine.intersection.calls",
         "engine.intersection.coset_walks",
         "engine.intersection.coset_orbit_sum", "polytopality.verify.calls",
         "toroids.sections", "diagram.parse.calls", "report.bytes")


def layer_metrics(traced):
    """Per-layer values of one traced pass."""
    layers, counts = merge(traced["summaries"])

    def layer(name, key):
        return layers.get(name, {}).get(key, 0)

    chain_busy = layer("engine.chain", "busy_s")
    loads = counts["cache_loads"]
    return {
        "engine.chain.calls": ("count", layer("engine.chain", "calls")),
        "engine.chain.busy_s": ("s", chain_busy),
        "engine.chain.wall_s": ("s", layer("engine.chain", "wall_s")),
        "engine.chain.schreier": ("count", counts["schreier"]),
        "engine.chain.schreier_max": ("count", counts["schreier_max"]),
        "engine.chain.schreier_per_s": (
            "1/s", counts["schreier"] / chain_busy if chain_busy else 0.0),
        "engine.chain.levels": ("count", counts["levels"]),
        "engine.chain.max_orbit": ("count", counts["max_orbit"]),
        "engine.chain.strong_gens": ("count", counts["strong_gens"]),
        "engine.chain.rss_growth_mb": ("MB", counts["rss_growth_mb"]),
        "engine.intersection.calls": (
            "count", layer("engine.intersection", "calls")),
        "engine.intersection.busy_s": (
            "s", layer("engine.intersection", "busy_s")),
        "engine.intersection.wall_s": (
            "s", layer("engine.intersection", "wall_s")),
        "engine.intersection.coset_walks": ("count", counts["coset_walks"]),
        "engine.intersection.coset_orbit_sum": (
            "count", counts["coset_orbit_sum"]),
        "engine.period.busy_s": ("s", layer("engine.period", "busy_s")),
        "engine.enumerate.busy_s": ("s", layer("engine.enumerate", "busy_s")),
        "polytopality.verify.calls": (
            "count", layer("polytopality.verify", "calls")),
        "polytopality.verify.self_s": (
            "s", layer("polytopality.verify", "self_s")),
        "toroids.classify.self_s": ("s", layer("toroids.classify", "self_s")),
        "toroids.translation.busy_s": (
            "s", layer("toroids.translation", "busy_s")),
        "toroids.type_vector.busy_s": (
            "s", layer("toroids.type_vector", "busy_s")),
        "toroids.sections": ("count", counts["sections"]),
        "matrep.rep.busy_s": ("s", layer("matrep.rep", "busy_s")),
        "matrep.nullspace.busy_s": ("s", layer("matrep.nullspace", "busy_s")),
        "diagram.parse.calls": ("count", layer("diagram.parse", "calls")),
        "diagram.parse.busy_s": ("s", layer("diagram.parse", "busy_s")),
        "report.render.busy_s": ("s", layer("report.render", "busy_s")),
        "report.bytes": ("B", counts["bytes"]),
        "cache.load.busy_s": ("s", layer("cache.load", "busy_s")),
        "cache.store.busy_s": ("s", layer("cache.store", "busy_s")),
        "cache.hit_ratio": (
            "ratio", counts["cache_hits"] / loads if loads else 0.0),
        "cli.main.self_s": ("s", layer("cli.main", "self_s")),
    }, layers


def per_layer(pairs, expect_layers, checker):
    rows = [layer_metrics(traced) for traced, _ in pairs
            if traced["summaries"]]
    if not rows:
        return {}
    for name in expect_layers:
        if not any(layers.get(name, {}).get("calls") for _, layers in rows):
            checker._fail("traced span %s recorded no calls" % name, ops=0)
    for name in EXACT:
        seen = {values[name][1] for values, _ in rows}
        if len(seen) > 1:
            checker._fail("count %s differs between passes: %s"
                          % (name, sorted(seen)), ops=0)
    metrics = {}
    for name, (unit, _) in rows[0][0].items():
        value = statistics.median(values[name][1] for values, _ in rows)
        metrics[name] = {"value": value, "unit": unit}
    overhead = [cold_wall(t) - cold_wall(p) for t, p in pairs]
    metrics["trace.overhead_s"] = {"value": statistics.median(overhead),
                                   "unit": "s"}
    for name, metric in metrics.items():
        print("%-38s %16.6f %s" % (name, metric["value"], metric["unit"]))
    return metrics


# -- main ------------------------------------------------------------------

def environment():
    versions = {}
    for pkg in ("numpy", "sympy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], **versions,
            "loadavg": os.getloadavg()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that run_child kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "modpoly", "cli.py")):
        print("no modpoly sources under %s/src; run from the repository root"
              % root, file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = started + HARD_LIMIT_S
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(root, WORK_DIR))
    try:
        return measure(args, root, work, started, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass   # another run still uses it


def measure(args, root, work, started, deadline):
    env = child_env(root)
    workload = WORKLOADS[args.workload]
    steps = workload.steps(work, args.seed)
    checker = Checker(args.workload, args.seed)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **environment()}
    print("env " + json.dumps(info, sort_keys=True))

    speed = Speed(env, work, deadline)
    setup = setup_times(env, work, deadline,
                        0 if args.trace else SETUP_REPEATS, speed)
    passes, pairs = [], []
    end = time.perf_counter() + args.seconds
    longest = 0.0
    while True:
        begun = time.perf_counter()
        tag = "pass%d" % len(passes)
        plain = run_pass(steps, env, work, tag, deadline, speed)
        passes.append(plain)
        checker.check_pass(plain)
        if args.trace:
            traced = run_pass(steps, env, work, tag + "t", deadline, speed,
                              traced=True)
            pairs.append((traced, plain))
            checker.check_pass(traced, reference=plain, prefix="traced ")
        longest = max(longest, time.perf_counter() - begun)
        if checker.failed or time.perf_counter() + longest > end:
            break
    closures = checker.closure(root)

    print("passes=%d closures_checked=%d loadavg_after=%s"
          % (len(passes), closures, list(os.getloadavg())))
    if args.trace:
        metrics = per_layer(pairs, workload.layers, checker)
    else:
        metrics = end_to_end(passes, setup, speed)
    for problem in checker.problems:
        print("FAIL " + problem)
    print("elapsed_s=%.1f fail_ratio=%d/%d" % (
        time.perf_counter() - started, checker.failed, checker.attempted))
    print(json.dumps({"correct": not checker.problems,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
