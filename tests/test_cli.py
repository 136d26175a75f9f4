import collections
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import modpoly
import modpoly.cache as cache
import modpoly.cli as cli
import modpoly.diagram as diagram
import modpoly.engine as engine
import modpoly.entry as entry
import modpoly.polytopality as polytopality
import modpoly.toroids as toroids
from modpoly.cli import main
from modpoly.registry import GoldenCase, get_case, registry

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("diagram,modulus,expected", [
    ("1 - 2 - 1", 4, 0),
    ("1 - 2 - 4", 4, 0),
    ("2 - 1 - 3 - 6", 3, 0),
    ("2 - 1 - 3 - 6", 6, 1),
    ("1", 2, 1),
    ("1 - 2 - 2 - 4 - 4", 2, 1),
])
def test_verify_exit_codes(capsys, diagram, modulus, expected):
    code, _, _ = run_cli(["verify", "-d", diagram, "-m", str(modulus)], capsys)
    assert code == expected


def test_verify_text_output(capsys):
    code, out, _ = run_cli(["verify", "-d", "1 - 2 - 1", "-m", "4"], capsys)
    assert code == 0
    assert "verdict: StringCGroup" in out
    assert "order: 32" in out
    assert "schlafli: {4, 4}" in out


def test_verify_json_fields(capsys):
    code, out, _ = run_cli(
        ["verify", "-d", "2 - 1 - 3 - 6", "-m", "6", "--format", "json"],
        capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "IntersectionFails"
    assert payload["order"] == "248832"
    assert payload["schlafli"] == [4, 6, 4]
    failing = [c for c in payload["checks"] if not c["pass"]]
    assert failing[0]["witness"]["index"] == 3


def test_verify_json_byte_deterministic(capsys):
    argv = ["verify", "-d", "3 - 3 - 1 - 1", "-m", "4", "--format", "json"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second
    assert json.dumps(json.loads(first), sort_keys=True) == \
        json.dumps(json.loads(first))


@pytest.mark.parametrize("argv", [
    ["verify", "-d", "2 - - 3", "-m", "4"],
    ["verify", "-d", "1 - 2 - 1", "-m", "1"],
    ["verify", "-d", "1 - 2 - 1", "--mod-range", "4..x"],
    ["verify", "-d", "1 - 2 - 1", "--mod-range", "6..4"],
    ["verify", "-f", "/nonexistent/diagrams.txt", "-m", "4"],
    ["verify", "-d", "1 = 2", "-m", "4"],
    ["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--word", "0 x"],
    ["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--word", "7"],
    ["reproduce", "--case", "no-such-case"],
    ["parse", "-d", "1 - 2 - 1", "--dump-rep"],
    ["reproduce", "--guard-order", "0"],
    ["reproduce", "--guard-orbit", "5"],
    ["reproduce", "--guard-order", "1000000"],
    # options a command does not honor: classify takes no guards, parse
    # neither guards nor a cache
    ["classify", "-d", "1 - 2 - 1", "-m", "4", "--guard-order", "1"],
    ["classify", "-d", "1 - 2 - 1", "-m", "4", "--guard-orbit", "1"],
    ["parse", "-d", "1 - 2 - 1", "--guard-order", "1"],
    ["parse", "-d", "1 - 2 - 1", "--guard-orbit", "1"],
    ["parse", "-d", "1 - 2 - 1", "--cache", "cache-dir"],
])
def test_input_errors_exit_2(capsys, argv):
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (2, "")


def test_bad_arguments_exit_2(capsys):
    assert main(["verify", "-d", "1 - 2 - 1"]) == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_guard_exit_3(capsys):
    code, _, err = run_cli(
        ["verify", "-d", "3 - 3 - 1 - 1", "-m", "4", "--guard-order", "100"],
        capsys)
    assert code == 3
    assert "guard" in err
    code, _, _ = run_cli(
        ["verify", "-d", "3 - 3 - 1 - 1", "-m", "4", "--guard-order", "7680"],
        capsys)
    assert code == 0


def test_order_guard_trips_on_a_listed_group(capsys, monkeypatch):
    # the whole group of 32 elements is listed, never put in a chain
    def no_chain(*args, **kwargs):
        raise AssertionError("chain built")

    monkeypatch.setattr(polytopality, "StabChain", no_chain)
    code, out, err = run_cli(
        ["verify", "-d", "1 - 2 - 1", "-m", "4", "--guard-order", "10"], capsys)
    assert (code, out) == (3, "")
    assert err == "guard: order 32 exceeds guard 10\n"


def test_guard_orbit_exit_3(capsys):
    # the second diagram's walks lie right of its commuting cut
    for text in ("1 - 2 - 2 - 2 - 4 - 4", "1 , 1 - 2 - 2 - 2 - 4 - 4"):
        code, _, err = run_cli(
            ["verify", "-d", text, "-m", "6", "--guard-orbit", "100"], capsys)
        assert code == 3, text
        assert "guard: coset orbit exceeds guard 100" in err, text


@pytest.mark.parametrize("guard,code,err", [
    ("10", 3, "guard: order 1024 exceeds guard 10\n"),
    ("100", 3, "guard: order 1024 exceeds guard 100\n"),
    ("1024", 0, ""),
])
def test_order_guard_reads_the_order_across_a_cut(guard, code, err, capsys):
    # two blocks of 32 elements each: the guard reads their product
    got, _, got_err = run_cli(
        ["verify", "-d", "1 - 2 - 1 , 1 - 2 - 1", "-m", "4", "--guard-order", guard], capsys)
    assert (got, got_err) == (code, err)


def test_order_guard_trips_before_a_large_chain(capsys, monkeypatch):
    # the whole-group order comes first, from a chain over (Z_2)^8, so the
    # guard trips before any chain over the 4^8 points of (Z_4)^8
    spaces = []
    init = engine.StabChain.__init__

    def counting(self, *args, **kwargs):
        try:
            init(self, *args, **kwargs)
        finally:
            spaces.append(self.space.size)
    monkeypatch.setattr(engine.StabChain, "__init__", counting)
    code, out, err = run_cli(
        ["verify", "-d", "1 - 1 - 2 - 2 - 2 - 2 - 2 - 2", "-m", "4",
         "--guard-order", "1000"], capsys)
    assert (code, out) == (3, "")
    assert err == "guard: order 16624615811973120 exceeds guard 1000\n"
    assert spaces and max(spaces) < 4 ** 8


BIG_CHAIN = "1 - 1 - 2 - 2 - 2 - 2 - 2 - 2"


def test_big_chain_verify_matches_the_benchmark_digest(capsys, monkeypatch):
    monkeypatch.delenv("MODPOLY_CACHE", raising=False)
    expected = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
    code, out, _ = run_cli(["verify", "-d", BIG_CHAIN, "-m", "4", "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected["big-chain"]["verify"]


def sweep_file(tmp_path, seed):
    """The benchmark's sweep file for seed, written by its own generator."""
    spec = importlib.util.spec_from_file_location("sweep", ROOT / "bench" / "sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    path = str(tmp_path / ("sweep-%d.txt" % seed))
    sweep.write_file(path, seed)
    return path


SWEEP_STEPS = (("verify", "2..6", 1), ("classify", "2..8", 0))


@pytest.mark.long
def test_sweep_seed_7_matches_the_benchmark_digests(tmp_path, capsysbinary, monkeypatch):
    # the sweep workload's two steps, in-process
    monkeypatch.delenv("MODPOLY_CACHE", raising=False)
    path = sweep_file(tmp_path, 7)
    expected = json.loads((ROOT / "bench" / "expected.json").read_text(encoding="utf-8"))
    for command, mod_range, want_code in SWEEP_STEPS:
        code = main([command, "-f", path, "--mod-range", mod_range, "--format", "json"])
        out = capsysbinary.readouterr().out
        assert code == want_code, command
        assert hashlib.sha256(out).hexdigest() == expected["sweep-seed-7"][command], command


# sha256 of the JSON stdout of the sweep steps at two more seeds
SWEEP_DIGESTS = {
    3: {"verify": "b05d97177c9bb33d5b488db04e175729076271788a111a3cc95e3ba240b86439",
        "classify": "cf811535eb9735e0486cbfaa3f0b1ad8e77f654853f8db51c0457c58c76a185f"},
    11: {"verify": "88ea08dcdd037f8cbe491cd5e45eae826cca5998ae62f1036730094d0761e955",
         "classify": "4008f7095a319b2d8693eced78cb9b045993a27e94ddcb03c4de490875a9b4ab"},
}


@pytest.mark.long
@pytest.mark.parametrize("seed", sorted(SWEEP_DIGESTS))
def test_sweep_seeds_keep_their_digests(seed, tmp_path, capsysbinary, monkeypatch):
    monkeypatch.delenv("MODPOLY_CACHE", raising=False)
    path = sweep_file(tmp_path, seed)
    for command, mod_range, want_code in SWEEP_STEPS:
        code = main([command, "-f", path, "--mod-range", mod_range, "--format", "json"])
        out = capsysbinary.readouterr().out
        assert code == want_code, command
        assert hashlib.sha256(out).hexdigest() == SWEEP_DIGESTS[seed][command], command


def test_flipped_big_chain_passes_under_the_default_orbit_guard(capsys):
    # the walks run in the smaller of the two groups of each check; a walk
    # in the suffix group would outgrow the guard of 10^6 cosets here
    flipped = " - ".join(reversed(BIG_CHAIN.split(" - ")))
    code, out, _ = run_cli(["verify", "-d", flipped, "-m", "4", "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert (payload["verdict"], payload["order"]) == ("StringCGroup", "16624615811973120")


def test_mod_range(capsys):
    code, out, _ = run_cli(
        ["verify", "-d", "2 - 1 - 3 - 6", "--mod-range", "2..3",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [p["order"] for p in payload["results"]] == ["96", "5184"]
    code, _, _ = run_cli(
        ["verify", "-d", "2 - 1 - 3 - 6", "--mod-range", "2..6"], capsys)
    assert code == 1


def test_classify_json(capsys):
    code, out, _ = run_cli(
        ["classify", "-d", "3 - 3 - 1 - 1", "-m", "4", "--format", "json"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    sections = payload["sections"]
    assert [s["window"] for s in sections] == [[0, 2], [1, 3]]
    assert [s["measured_q"] for s in sections] == [[4, 0], [4, 0]]
    assert [s["kind"] for s in sections] == ["Euclidean", "Euclidean"]


def test_classify_cubic_window_with_point_group_b5(capsys):
    code, out, _ = run_cli(["classify", "-d", "1 - 2 - 2 - 2 - 2 - 1", "-m", "3"], capsys)
    assert code == 0
    assert "nodes 0..5 Euclidean [4,3,3,3,4] q=(3,0,0,0,0) row=P2:odd" in out


def test_oversized_classify_window_exits_3(capsys):
    # the orbit of sigma_12 = (1^12) under B_12 has 2^12 = 4096 > 4000 elements
    text = " - ".join(["1"] + ["2"] * 11 + ["1"])
    code, out, err = run_cli(["classify", "-d", text, "-m", "3"], capsys)
    assert (code, out) == (3, "")
    assert err == "guard: sigma orbit exceeded bound 4000\n"


def test_classify_text(capsys):
    code, out, _ = run_cli(["classify", "-d", "4 - 2 - 2 - 1 - 1", "-m", "4"],
                           capsys)
    assert code == 0
    assert "q=(4,4,0)" in out
    assert "order=1152" in out


def test_subgroup_identity_words(capsys):
    code, out, _ = run_cli(
        ["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--word", "0",
         "--word", "1", "--word", "2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == 1
    assert payload["order"] == "32"
    assert payload["parent_order"] == "32"
    assert payload["verdict"] == "StringCGroup"


def test_subgroup_proper(capsys):
    code, out, _ = run_cli(
        ["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--word", "0",
         "--word", "2", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["index"] == 8
    assert payload["order"] == "4"
    assert payload["schlafli"] == [2]


def test_subgroup_non_involutory(capsys):
    code, out, _ = run_cli(
        ["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--word", "0 1",
         "--format", "json"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "NotSGGI"
    failing = [c for c in payload["checks"] if not c["pass"]]
    assert failing[0]["witness"]["reason"] == "square is not the identity"


def test_subgroup_order_not_dividing_parent_raises(monkeypatch):
    real = cli.verify_words

    def bad_order(*args, **kwargs):
        sub = real(*args, **kwargs)
        sub.order = 5  # the parent order is 32
        return sub

    monkeypatch.setattr(cli, "verify_words", bad_order)
    with pytest.raises(RuntimeError, match="does not divide the parent order"):
        main(["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--word", "0",
              "--word", "2"])


def test_parse_output(capsys):
    code, out, _ = run_cli(["parse", "-d", "2-1-3-6", "--format", "json"],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["diagram"] == "2 - 1 - 3 - 6"
    assert payload["rank"] == 4
    assert payload["schlafli"] == [4, 6, 4]
    assert payload["labels"] == [2, 1, 3, 6]


def test_parse_normalizes(capsys):
    _, out, _ = run_cli(["parse", "-d", "2 - 4 - 2", "--format", "json"],
                        capsys)
    assert json.loads(out)["diagram"] == "1 - 2 - 1"


def test_parse_infinite_period(capsys):
    _, out, _ = run_cli(["parse", "-d", "4 - 1", "--format", "json"], capsys)
    assert json.loads(out)["schlafli"] == ["oo"]


def test_parse_dump_rep(capsys):
    code, out, _ = run_cli(
        ["parse", "-d", "1 - 2 - 1", "-m", "4", "--dump-rep",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    mats = payload["matrices"]
    assert len(mats) == 3
    assert all(len(m) == 3 and len(m[0]) == 3 for m in mats)


def test_file_input(tmp_path, capsys):
    path = tmp_path / "diagrams.txt"
    path.write_text("# two square systems\n1 - 2 - 1\n2 - 1 - 2\n")
    code, out, _ = run_cli(
        ["verify", "-f", str(path), "-m", "4", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert [p["order"] for p in payload["results"]] == ["32", "64"]


def test_file_parse_error_prints_one_line(tmp_path, capsys):
    path = tmp_path / "diagrams.txt"
    path.write_text("1 - 2\n1 = 3\n")
    code, out, err = run_cli(["verify", "-f", str(path), "-m", "4"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: line 2: double branch requires equal labels (1 = 3) (at position 2)\n"


def test_cache_roundtrip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["verify", "-d", "1 - 2 - 4", "-m", "4", "--format", "json",
            "--cache", cache_dir]
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0
    outs = list((tmp_path / "cache").glob("*.out"))
    assert len(outs) == 1
    code, warm, _ = run_cli(argv, capsys)
    assert code == 0
    assert warm == cold
    outs[0].write_bytes(b"TAMPERED")
    code, replay, _ = run_cli(argv, capsys)
    assert code == 0
    assert replay == cold
    code, fresh, _ = run_cli(
        ["verify", "-d", "1 - 2 - 4", "-m", "2", "--format", "json",
         "--cache", cache_dir], capsys)
    assert json.loads(fresh)["modulus"] == 2


def test_cache_truncated_entry_is_recomputed(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = ["verify", "-d", "2 - 1 - 3 - 6", "-m", "3", "--format", "json",
            "--cache", str(cache_dir)]
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0
    [out_file] = cache_dir.glob("*.out")
    stored = out_file.read_bytes()
    out_file.write_bytes(stored[: len(stored) // 2])
    code, rerun, _ = run_cli(argv, capsys)
    assert code == 0
    assert rerun == cold
    assert out_file.read_bytes() == stored


def test_cache_preserves_exit_code(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["verify", "-d", "2 - 1 - 3 - 6", "-m", "6", "--cache", cache_dir]
    assert run_cli(argv, capsys)[0] == 1
    assert run_cli(argv, capsys)[0] == 1


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache_dir = tmp_path / "envcache"
    monkeypatch.setenv("MODPOLY_CACHE", str(cache_dir))
    run_cli(["verify", "-d", "1 - 2 - 1", "-m", "4"], capsys)
    assert len(list(cache_dir.glob("*.out"))) == 1


def test_reproduce_case_filter(capsys):
    code, out, _ = run_cli(
        ["reproduce", "--case", "square-1-2-1-mod4", "--format", "json"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"pass": 1, "fail": 0, "skipped": 0}
    assert payload["cases"][0]["computed"]["order"] == "32"


def test_reproduce_skips_long_by_default(capsys):
    code, out, _ = run_cli(["reproduce", "--case", "rank6-a-mod4"], capsys)
    assert code == 0
    assert "SKIPPED(long)" in out


def test_large_registry_orders_are_flagged_long():
    # reproduce skips a case by its long flag alone
    large = [c for c in registry() if c.expect_order is not None
             and int(c.expect_order) > 10 ** 8]
    assert len(large) == 9
    assert all(c.long for c in large)


def test_reproduce_long_case(capsys):
    code, out, _ = run_cli(
        ["reproduce", "--case", "rank6-h-words-mod4", "--long",
         "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["cases"][0]["status"] == "PASS"
    assert payload["cases"][0]["computed"]["index"] == 5


def test_reproduce_coset_walk_case(capsys):
    # its failing intersection is measured by a coset walk of 648 points
    code, out, _ = run_cli(
        ["reproduce", "--case", "rank6-kd-mod6", "--long", "--format", "json"],
        capsys)
    assert code == 0
    case = json.loads(out)["cases"][0]
    assert case["status"] == "PASS"
    assert case["computed"]["order"] == "111795240960"
    assert case["computed"]["witness_index"] == 2


def test_reproduce_times_each_case_on_stderr_only(capsys):
    code, out, err = run_cli(["reproduce", "--long", "--format", "json"], capsys)
    assert code == 0
    # the golden registry's bytes, unchanged by the timings
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "80da893e4e8f0057db5e400a4016e616849a2589105fdc7bbfdab2861623f76a"
    lines = [line.split("  ") for line in err.splitlines()]
    assert [ident for ident, _ in lines] == [c.ident for c in registry()]
    assert len(lines) == 30 and all(float(seconds) >= 0 for _, seconds in lines)


def test_reproduce_rows_sorted_by_id(capsys):
    _, out, _ = run_cli(["reproduce", "--format", "json"], capsys)
    ids = [row["id"] for row in json.loads(out)["cases"]]
    assert ids == sorted(ids)


def test_reproduce_tampered_expected_fails(capsys, monkeypatch):
    case = get_case("square-1-2-1-mod4")
    tampered = GoldenCase(case.ident, case.diagram, case.modulus,
                         case.expect_verdict, "33")
    monkeypatch.setattr(cli, "registry", lambda: (tampered,))
    code, out, _ = run_cli(["reproduce"], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "expected '33', computed '32'" in out


def test_words_round_trip_in_json(capsys):
    _, out, _ = run_cli(
        ["subgroup", "-d", "2 - 1 - 3 - 6", "-m", "3", "--word", "2 1 2",
         "--word", "3", "--format", "json"], capsys)
    payload = json.loads(out)
    assert payload["words"] == [[2, 1, 2], [3]]


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "modpoly", "verify", "-d", "1 - 2 - 1",
         "-m", "4", "--format", "json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == "32"


def test_cli_import_loads_only_numpy_and_the_standard_library():
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import modpoly.cli\n"
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}\n"
        "extra = new - set(sys.stdlib_module_names) - {'modpoly', 'numpy'}\n"
        "assert not extra, sorted(extra)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def run_python(args, importtime=False):
    """`python args` on this checkout's sources, without MODPOLY_CACHE:
    (exit code, stdout, stderr, modules named by -X importtime).
    """
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("MODPOLY_CACHE", None)
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run([sys.executable, *flags, *args], capture_output=True, env=env)
    err = proc.stderr.decode()
    imported = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                if line.startswith("import time:")}
    return proc.returncode, proc.stdout, err, imported


def run_module(argv, importtime=False):
    return run_python(["-m", "modpoly", *argv], importtime)


def loads_solver(imported):
    return "modpoly.engine" in imported or any(
        name == "numpy" or name.startswith("numpy.") for name in imported)


@pytest.mark.parametrize("argv,want", [
    (["verify", "-d", "2 - 1 - 3 - 6", "-m", "6"], 1),
    (["classify", "-d", "3 - 3 - 1 - 1", "-m", "4", "--format", "json"], 0),
    (["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--word", "0", "--word", "2"], 0),
], ids=["verify", "classify", "subgroup"])
def test_a_replay_loads_neither_numpy_nor_the_engine(argv, want, tmp_path):
    argv = argv + ["--cache", str(tmp_path)]
    code, cold, _, imported = run_module(argv, importtime=True)
    assert code == want and cold and loads_solver(imported)
    code, warm, _, imported = run_module(argv, importtime=True)
    assert (code, warm) == (want, cold)
    assert not loads_solver(imported), sorted(imported)


def test_a_tampered_entry_is_recomputed_through_the_module_entry(tmp_path):
    argv = ["verify", "-d", "1 - 2 - 4", "-m", "4", "--cache", str(tmp_path)]
    code, cold, _, _ = run_module(argv)
    [out_file] = tmp_path.glob("*.out")
    stored = out_file.read_bytes()
    out_file.write_bytes(b"TAMPERED")
    again, rerun, _, imported = run_module(argv, importtime=True)
    assert (again, rerun) == (code, cold) == (0, stored)
    assert loads_solver(imported)
    assert out_file.read_bytes() == stored


def test_importing_the_package_loads_no_numpy():
    code, _, err, imported = run_python(["-c", "import modpoly, modpoly.entry"], importtime=True)
    assert code == 0 and "modpoly.entry" in imported, err
    assert not loads_solver(imported), sorted(imported)


def test_every_public_name_is_the_object_of_its_submodule():
    from modpoly import classify, parse_diagram, verify_diagram  # the README's import

    assert parse_diagram is diagram.parse_diagram
    assert verify_diagram is polytopality.verify_diagram
    assert classify is toroids.classify
    assert len(set(modpoly.__all__)) == len(modpoly.__all__) == 41
    for name in modpoly.__all__:
        obj = getattr(modpoly, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from modpoly import *", namespace)
    assert set(modpoly.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        modpoly.no_such_name


@pytest.mark.parametrize("argv,code,err_tail", [
    (["--version"], 0, ""),
    (["--help"], 0, ""),
    (["verify", "-d", "1 - 2 - 1", "-m", "4", "--bogus"], 2,
     "modpoly: error: unrecognized arguments: --bogus\n"),
    (["verify", "-d", "1 = 2", "-m", "4"], 2,
     "error: double branch requires equal labels (1 = 2) (at position 2)\n"),
    (["verify", "-d", "1 - 2 - 1", "--mod-range", "5..2"], 2,
     "error: empty modulus range 5..2\n"),
], ids=["version", "help", "unknown-option", "bad-diagram", "empty-range"])
def test_the_module_entry_prints_each_message_once(argv, code, err_tail, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = main(argv)
    captured = capsys.readouterr()
    proc_code, proc_out, proc_err, _ = run_module(argv)
    assert (proc_code, proc_out.decode(), proc_err) == (got, captured.out, captured.err)
    assert got == code
    assert captured.err.endswith(err_tail) and captured.err.count("error:") == (code == 2)
    assert captured.out.count("usage:") == (argv == ["--help"])
    if argv == ["--version"]:
        assert captured.out == "modpoly 0.1.0\n"


def test_a_missed_run_parses_reads_and_looks_up_once(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MODPOLY_CACHE", raising=False)
    path = tmp_path / "diagrams.txt"
    path.write_text("1 - 2 - 1\n2 - 1 - 2\n")
    calls = collections.Counter()

    def count(owner, name, key=None):
        real = getattr(owner, name, open)  # entry reads files with the builtin open

        def counting(*args, **kwargs):
            if key is None or key(*args):
                calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting, raising=False)

    count(entry, "build_parser")
    count(entry, "open", key=lambda file, *rest: file == str(path))
    count(entry, "parse_file")
    count(cache, "load")
    count(cache, "store")
    count(cli, "execute")
    argv = ["verify", "-f", str(path), "-m", "4", "--cache", str(tmp_path / "cache")]
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0
    assert calls == {"build_parser": 1, "open": 1, "parse_file": 1, "load": 1,
                     "store": 1, "execute": 1}
    calls.clear()
    assert run_cli(argv, capsys) == (code, cold, "")
    assert calls == {"build_parser": 1, "open": 1, "parse_file": 1, "load": 1}
