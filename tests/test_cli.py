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
from modpoly.registry import CASES, GoldenCase
from test_toroids import EUCLIDEAN_FIXTURES

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
    # every integer option reads decimal digits alone, as --mod-range does:
    # int() would read each of these
    ["verify", "-d", "1 - 2 - 1", "-m", "1_0"],
    ["classify", "-d", "1 - 2 - 1", "-m", " 4"],
    ["parse", "-d", "1 - 2 - 1", "-m", "+4", "--dump-rep"],
    ["verify", "-d", "1 - 2 - 1", "-m", "4", "--guard-order", "1_000"],
    ["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--guard-orbit", "5 ", "--word", "0"],
    ["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--word", "0_1"],
    ["verify", "-d", "1 - 2 - 1", "--mod-range", "1_0..1_0"],
    ["verify", "-d", "1 - 2 - 1", "--mod-range", " 4..4"],
    # a modulus of 2^63 or more, past the int64 residues, on every command
    # and at either end of a range
    ["verify", "-d", "1", "-m", "9223372036854775808"],
    ["classify", "-d", "2 - 1 - 2", "-m", "100000000000000000000"],
    ["subgroup", "-d", "1 - 1", "-m", "100000000000000000000", "--word", "0"],
    ["parse", "-d", "1 - 1", "-m", "100000000000000000000", "--dump-rep"],
    ["verify", "-d", "1", "--mod-range", "2..9223372036854775808"],
    ["verify", "-d", "1", "--mod-range", "9223372036854775808..9223372036854775809"],
])
def test_input_errors_exit_2(capsys, argv):
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("argv", [
    ["parse", "-d", "1 - ²"],
    ["verify", "-d", "1 - 2 - 1", "--mod-range", "²..5"],
    ["verify", "-d", "1 - 2 - 1", "-m", "²"],
    ["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--word", "²"],
])
def test_a_superscript_digit_exits_2_with_one_error_line(capsys, argv):
    # "²" is a digit to str.isdigit, but int() does not read it
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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
    # 2^63 - 1 passes the input checks, and its point space overflows
    code, out, err = run_cli(["verify", "-d", "1", "-m", str(2 ** 63 - 1)], capsys)
    assert (code, out) == (3, "")
    assert err == "guard: point space %d^1 exceeds 2147483648\n" % (2 ** 63 - 1)


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


def test_big_chain_verify_matches_the_benchmark_digest(capsys):
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
def test_sweep_seed_7_matches_the_benchmark_digests(tmp_path, capsysbinary):
    # the sweep workload's two steps, in-process
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
def test_sweep_seeds_keep_their_digests(seed, tmp_path, capsysbinary):
    path = sweep_file(tmp_path, seed)
    for command, mod_range, want_code in SWEEP_STEPS:
        code = main([command, "-f", path, "--mod-range", mod_range, "--format", "json"])
        out = capsysbinary.readouterr().out
        assert code == want_code, command
        assert hashlib.sha256(out).hexdigest() == SWEEP_DIGESTS[seed][command], command


# sha256 of `verify --format json` on whole groups whose first basic orbit
# is larger than any the benchmark workloads build (16,758 points for the
# rank-6 diagram mod 7, 3,100 for the second one mod 5)
LARGE_ORBIT_DIGESTS = [
    ("1 - 1 - 2 - 2 - 2 - 2", 7,
     "f5a16dfec8be7f92fa59b8efe95c263fdc27e47621b4a8707569fa168ebfb4b3"),
    ("2 - 2 - 2 - 1 - 1 - 1", 5,
     "b56e62b00b625454a78be77b7bf71f8963453350fe76d8a0daac841f9c9d03ba"),
    pytest.param("1 - 1 - 2 - 2 - 2 - 2", 16,
                 "3b665ecb9cfda6cf3f0bf0ae8aed389618ee03be0a27aa6e379f020f9a8516d9",
                 marks=pytest.mark.long),
]


@pytest.mark.parametrize("text,modulus,expected", LARGE_ORBIT_DIGESTS)
def test_large_first_orbits_keep_their_verify_digests(text, modulus, expected, capsys):
    code, out, _ = run_cli(["verify", "-d", text, "-m", str(modulus), "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected


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


def test_a_huge_mod_range_is_never_listed():
    args = entry.build_parser().parse_args(
        ["verify", "-d", "1 - 2 - 1", "--mod-range", "2..%d" % 10 ** 12])
    assert entry._moduli(args) == range(2, 10 ** 12 + 1)


def test_a_huge_mod_range_stops_at_its_first_guard(tmp_path):
    code, out, err, _ = run_module(["verify", "-d", "1 - 2 - 1", "--mod-range",
                                    "2..%d" % 10 ** 12, "--guard-order", "1",
                                    "--cache", str(tmp_path)])
    assert (code, out, err) == (3, b"", "guard: order 2 exceeds guard 1\n")


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


# sha256 of `classify --mod-range 2..12` on the Euclidean fixture diagrams
FIXTURE_CLASSIFY_DIGESTS = {
    "json": "7fe93049bba74cdb53c715c6c6d00bbf4ba38a808ef1e8ba20eaac52a51e072a",
    "text": "153d4dd44a7e988c650f724eca9032df9637a7f7aadeb15eedade8d1e84b668f",
}


@pytest.mark.parametrize("fmt", sorted(FIXTURE_CLASSIFY_DIGESTS))
def test_classify_keeps_its_digests_on_the_euclidean_fixtures(fmt, tmp_path, capsysbinary):
    # one witness per prediction row, among them the P6 rows at s divisible
    # by 3, which no benchmark command reaches
    texts = list(dict.fromkeys(text for text, _ in EUCLIDEAN_FIXTURES))
    assert len(texts) == 24
    path = tmp_path / "fixtures.txt"
    path.write_text("".join(text + "\n" for text in texts), encoding="utf-8")
    code = main(["classify", "-f", str(path), "--mod-range", "2..12", "--format", fmt])
    out = capsysbinary.readouterr().out
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == FIXTURE_CLASSIFY_DIGESTS[fmt]


# sha256 of `classify --mod-range 2..12 --format json` on strings with
# longer or more embedded Euclidean windows than the fixtures: [3,3,4,3]
# windows in either frame and beside another Euclidean or spherical window,
# and cubic windows up to m = 4.  Each runs in a child, to keep the test
# process small: run in-process, the rank-8 strings lift it to about 300 MB
LONG_WINDOW_CLASSIFY_DIGESTS = [
    ("1 - 1 - 2 - 2 - 2 - 2 - 2 - 2",
     "4d2b5e24e8f970282e52149d6878281537458404f1f25e07d2c4098a04646397"),
    ("1 - 1 - 2 - 2 - 2 - 2", "d5a61eeee2e9038944fc197313b14a61bb461cb7664e70f684249e19f9fbfa56"),
    ("2 - 2 - 1 - 1 - 1 - 1", "c701fdd27e944ab783d654e868a025ab6cdf29eee0130aa8ee1482d178f71ade"),
    ("1 - 2 - 2 - 2 - 1 - 1", "b5200afd300b452ce894e2b7995f131c6c44079999a86491b2dd328acbe057b6"),
    ("4 - 2 - 2 - 2 - 1 - 1", "963814db419c87587df6d8ac57307fe146ca6c81a1587fa265acc4346f37c061"),
    ("1 - 2 - 2 - 4 - 4", "35eeec6656b2f662e97ea19332a3a3cb50fd548e6814da116a00dc4b28310a80"),
    ("1 - 1 - 1 - 2 - 2 - 2", "438e0cb36afda7f7b5fe449492bc4a08f56b27ff717cfb770a82842d0eb7e7ea"),
    ("2 - 2 - 2 - 1 - 1 - 1 - 1",
     "613814fffa806fe9d44991abc2aa5bf47f8dfb10fafa39f433b8006fe04645a4"),
    ("1 - 1 - 1 - 2 - 2 - 4 - 4",
     "aefe8fbedd1eda187128d0f458a07dece8da73ac0105ddc8c055e5f6fab24cfd"),
]


@pytest.mark.parametrize("text,expected", LONG_WINDOW_CLASSIFY_DIGESTS)
def test_classify_keeps_its_digests_past_the_fixtures(text, expected):
    code, out, _, _ = run_module(["classify", "-d", text, "--mod-range", "2..12",
                                  "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == expected


def test_a_box_guard_lists_the_equal_periods_of_conjugate_generators():
    # the generators of the [4,3,3,3,3,3,4] window are reflection conjugates,
    # so they share one period; the guard lists each generator's in order.
    # The 8^7 box at s = 8 passes the guard, so this too runs in a child
    code, out, err, _ = run_module(["classify", "-d", "1 - 2 - 2 - 2 - 2 - 2 - 2 - 1",
                                    "--mod-range", "2..12", "--format", "json"])
    assert (code, out) == (3, b"")
    assert err == "guard: exponent box 9 x 9 x 9 x 9 x 9 x 9 x 9 exceeds bound 4194304\n"


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


def run_timed(argv):
    """(exit code, stdout, stderr lines, seconds, peak RSS in KiB) of a child
    `modpoly argv`, timed from the call of main."""
    # ru_maxrss would carry this process's high-water mark across exec on
    # Linux, so the child reads its own VmHWM where /proc has it
    script = ("import resource, sys, time\n"
              "from modpoly.entry import main\n"
              "start = time.perf_counter()\n"
              "code = main(sys.argv[1:])\n"
              "seconds = time.perf_counter() - start\n"
              "try:\n"
              "    with open('/proc/self/status') as fh:\n"
              "        peak = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
              "except (OSError, StopIteration):\n"
              "    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "print(seconds, peak, file=sys.stderr)\n"
              "sys.exit(code)\n")
    code, out, err, _ = run_python(["-c", script, *argv])
    *lines, stats = err.splitlines()
    seconds, peak_kb = stats.split()
    return code, out, lines, float(seconds), int(peak_kb)


def test_an_oversized_exponent_box_exits_3_before_it_is_formed():
    # its 24^6 box of 7-by-7 matrices would take some GB
    code, out, err, seconds, peak_kb = run_timed(
        ["classify", "-d", "1 - 2 - 2 - 2 - 2 - 2 - 1", "-m", "48"])
    assert (code, out) == (3, b"")
    assert err == ["guard: exponent box 24 x 24 x 24 x 24 x 24 x 24 exceeds bound 4194304"]
    assert seconds < 1 and peak_kb < 100 * 1024


def test_an_oversized_exponent_box_exits_3_before_any_period_is_found():
    # a period found by repeated products would take 2s matrix products and
    # a power table of s matrices before the box is checked
    code, out, err, seconds, peak_kb = run_timed(["classify", "-d", "1 = 1", "-m", "5000001"])
    assert (code, out) == (3, b"")
    assert err == ["guard: exponent box 5000001 exceeds bound 4194304"]
    assert seconds < 1 and peak_kb < 100 * 1024


def test_an_exponent_box_past_the_period_floors_exits_3_before_2s_is_factored():
    # a prime modulus near 10^16: trial division of 2s would take seconds
    code, out, err, seconds, _ = run_timed(
        ["classify", "-d", "1 = 1", "-m", "10000000000000061"])
    assert (code, out) == (3, b"")
    assert err == ["guard: exponent box of at least 100000001 exceeds bound 4194304"]
    assert seconds < 1


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


def test_an_over_bound_closure_of_non_involutions_exits_3(capsys, monkeypatch):
    # r0 r1 has order 4 mod 4, so the words generate no sggi: a closure lists them
    argv = ["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--word", "0 1", "--word", "2"]
    assert run_cli(argv, capsys)[0] == 1
    monkeypatch.setattr(polytopality, "_CLOSURE_BOUND", 10)
    assert run_cli(argv, capsys) == (3, "", "guard: closure exceeds bound 10\n")


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
    cache_dir = tmp_path / "cache"
    argv = ["verify", "-d", "1 - 2 - 4", "-m", "4", "--format", "json",
            "--cache", str(cache_dir)]
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0
    [entry_file] = cache_dir.iterdir()
    stored = entry_file.read_bytes()
    code, warm, _ = run_cli(argv, capsys)
    assert code == 0
    assert warm == cold
    # the digest line kept, the bytes behind it changed
    entry_file.write_bytes(stored.partition(b"\n")[0] + b"\nTAMPERED")
    code, replay, _ = run_cli(argv, capsys)
    assert code == 0
    assert replay == cold
    assert entry_file.read_bytes() == stored
    code, fresh, _ = run_cli(
        ["verify", "-d", "1 - 2 - 4", "-m", "2", "--format", "json",
         "--cache", str(cache_dir)], capsys)
    assert json.loads(fresh)["modulus"] == 2
    assert len(list(cache_dir.iterdir())) == 2


def test_an_entry_is_one_file_of_code_digest_and_bytes(tmp_path, capsys):
    argv = ["verify", "-d", "2 - 1 - 3 - 6", "-m", "6", "--cache", str(tmp_path)]
    code, out, _ = run_cli(argv, capsys)
    [entry_file] = tmp_path.iterdir()
    head, _, data = entry_file.read_bytes().partition(b"\n")
    assert data == out.encode()
    assert head == b"%d %s" % (code, hashlib.sha256(data).hexdigest().encode())
    assert code == 1


def test_cache_truncated_entry_is_recomputed(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    argv = ["verify", "-d", "2 - 1 - 3 - 6", "-m", "3", "--format", "json",
            "--cache", str(cache_dir)]
    code, cold, _ = run_cli(argv, capsys)
    assert code == 0
    [entry_file] = cache_dir.iterdir()
    stored = entry_file.read_bytes()
    # cut in the output bytes, then in the digest line
    for size in (len(stored) // 2, 10):
        entry_file.write_bytes(stored[:size])
        code, rerun, _ = run_cli(argv, capsys)
        assert code == 0
        assert rerun == cold
        assert entry_file.read_bytes() == stored


def test_cache_preserves_exit_code(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    argv = ["verify", "-d", "2 - 1 - 3 - 6", "-m", "6", "--cache", cache_dir]
    assert run_cli(argv, capsys)[0] == 1
    assert run_cli(argv, capsys)[0] == 1


def test_an_entry_in_the_two_file_layout_is_a_miss(tmp_path, capsys):
    # an older layout stored <key>.out and <key>.code; such a pair is never read
    argv = ["verify", "-d", "1 - 2 - 1", "-m", "4"]
    code, cold, _ = run_cli(argv + ["--cache", str(tmp_path / "new")], capsys)
    [entry_file] = (tmp_path / "new").iterdir()
    old = tmp_path / "old"
    old.mkdir()
    (old / (entry_file.name + ".out")).write_bytes(b"FAKE\n")
    (old / (entry_file.name + ".code")).write_text(
        "0 %s\n" % hashlib.sha256(b"FAKE\n").hexdigest())
    assert run_cli(argv + ["--cache", str(old)], capsys) == (code, cold, "")
    assert (old / entry_file.name).read_bytes() == entry_file.read_bytes()


def test_the_cache_environment_variable_has_no_effect(tmp_path, capsys, monkeypatch):
    argv = ["verify", "-d", "1 - 2 - 1", "-m", "4"]
    code, cold, _ = run_cli(argv + ["--cache", str(tmp_path / "env")], capsys)
    [entry_file] = (tmp_path / "env").iterdir()
    cache.store(str(tmp_path / "env"), entry_file.name, b"FAKE\n", 0)
    monkeypatch.setenv("MODPOLY_CACHE", str(tmp_path / "env"))
    # it neither replays a run without --cache nor redirects one with it
    assert run_cli(argv, capsys) == (code, cold, "")
    assert run_cli(argv + ["--cache", str(tmp_path / "flag")], capsys) == (code, cold, "")
    assert len(list((tmp_path / "flag").iterdir())) == 1
    assert entry_file.read_bytes().endswith(b"\nFAKE\n")


def test_a_cache_that_cannot_be_written_costs_only_the_entry(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = ["verify", "-d", "1 - 2 - 1", "-m", "4"]
    code, out, _ = run_cli(argv, capsys)
    got = run_cli(argv + ["--cache", str(blocker / "sub")], capsys)
    assert got == (code, out, "cache: [Errno 20] Not a directory: %r\n" % str(blocker / "sub"))
    # a negative verdict keeps its own exit code
    assert run_cli(["verify", "-d", "2 - 1 - 3 - 6", "-m", "6", "--cache",
                    str(blocker / "sub")], capsys)[0] == 1


def test_a_failed_store_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    def full(src, dst):
        raise OSError(28, "No space left on device")
    monkeypatch.setattr(cache.os, "replace", full)
    code, out, err = run_cli(["verify", "-d", "1 - 2 - 1", "-m", "4", "--cache",
                              str(tmp_path)], capsys)
    assert (code, err) == (0, "cache: [Errno 28] No space left on device\n")
    assert "order: 32" in out
    assert list(tmp_path.iterdir()) == []


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
    large = [c for c in CASES if c.expect_order is not None
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
    assert [ident for ident, _ in lines] == [c.ident for c in CASES]
    assert len(lines) == 30 and all(float(seconds) >= 0 for _, seconds in lines)


def test_reproduce_rows_sorted_by_id(capsys):
    _, out, _ = run_cli(["reproduce", "--format", "json"], capsys)
    ids = [row["id"] for row in json.loads(out)["cases"]]
    assert ids == sorted(ids)


def test_reproduce_tampered_expected_fails(capsys, monkeypatch):
    case = next(c for c in CASES if c.ident == "square-1-2-1-mod4")
    tampered = GoldenCase(case.ident, case.diagram, case.modulus,
                         case.expect_verdict, "33")
    monkeypatch.setattr("modpoly.registry.CASES", (tampered,))
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
        "assert not extra, sorted(extra)\n"
        "unused = {'dataclasses', 'fractions', 'modpoly.registry'} & (set(sys.modules) - before)\n"
        "assert not unused, sorted(unused)\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def run_python(args, importtime=False):
    """`python args` on this checkout's sources:
    (exit code, stdout, stderr, modules named by -X importtime).
    """
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run([sys.executable, *flags, *args], capture_output=True, env=env)
    err = proc.stderr.decode()
    imported = {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                if line.startswith("import time:")}
    return proc.returncode, proc.stdout, err, imported


def run_module(argv, importtime=False):
    return run_python(["-m", "modpoly", *argv], importtime)


@pytest.fixture(scope="module")
def startup_modules():
    """The modules that `python -c pass` loads: the interpreter's site may
    import some that modpoly itself must not, such as enum, re or typing."""
    return run_python(["-c", "pass"], importtime=True)[3]


def loads_solver(imported):
    return "modpoly.engine" in imported or any(
        name == "numpy" or name.startswith("numpy.") for name in imported)


@pytest.mark.parametrize("argv,want", [
    (["verify", "-d", "2 - 1 - 3 - 6", "-m", "6"], 1),
    (["classify", "-d", "3 - 3 - 1 - 1", "-m", "4", "--format", "json"], 0),
    (["subgroup", "-d", "1 - 2 - 1", "-m", "4", "--word", "0", "--word", "2"], 0),
], ids=["verify", "classify", "subgroup"])
def test_a_replay_loads_neither_numpy_nor_the_engine(argv, want, tmp_path, startup_modules):
    argv = argv + ["--cache", str(tmp_path)]
    code, cold, _, imported = run_module(argv, importtime=True)
    assert code == want and cold and loads_solver(imported)
    code, warm, _, imported = run_module(argv, importtime=True)
    assert (code, warm) == (want, cold)
    assert not loads_solver(imported), sorted(imported)
    assert "modpoly.registry" not in imported
    # nor the machinery a replay never uses, beyond what start-up loads
    unused = (imported - startup_modules) & {"dataclasses", "inspect", "json", "fractions"}
    assert not unused, sorted(unused)


@pytest.mark.parametrize("argv,err", [
    (["subgroup", "-f", "DIAGRAMS", "-m", "4", "--word", "5"],
     "error: word index 5 out of range for rank 2"),
    (["parse", "-d", "1 - 2 - 1", "-m", "1"], "error: modulus must be at least 2, got 1"),
    (["parse", "-d", "1 - 2 - 1", "--dump-rep"], "error: --dump-rep needs -m"),
    (["reproduce", "--case", "no-such-case"], "error: unknown case id 'no-such-case'"),
    (["verify", "-d", "1 - 2 - 1", "-m", "1_0"], "error: -m wants a decimal integer, got '1_0'"),
    (["subgroup", "-f", "DIAGRAMS", "-m", " 4", "--word", "0"],
     "error: -m wants a decimal integer, got ' 4'"),
    (["verify", "-d", "1 - 2 - 1", "-m", "4", "--guard-order", "1_000"],
     "error: --guard-order wants a decimal integer, got '1_000'"),
    (["verify", "-d", "1 - 2 - 1", "-m", "4", "--guard-orbit", "-5"],
     "error: --guard-orbit wants a decimal integer, got '-5'"),
    (["subgroup", "-f", "DIAGRAMS", "-m", "4", "--word", "1_0"],
     "error: bad generator word '1_0'"),
    (["verify", "-d", "1", "-m", "9223372036854775808"],
     "error: modulus must be below 2^63, got 9223372036854775808"),
    (["classify", "-d", "2 - 1 - 2", "-m", "100000000000000000000"],
     "error: modulus must be below 2^63, got 100000000000000000000"),
    (["subgroup", "-f", "DIAGRAMS", "-m", "100000000000000000000", "--word", "0"],
     "error: modulus must be below 2^63, got 100000000000000000000"),
    (["parse", "-d", "1 - 1", "-m", "100000000000000000000", "--dump-rep"],
     "error: modulus must be below 2^63, got 100000000000000000000"),
    (["verify", "-d", "1", "--mod-range", "2..9223372036854775808"],
     "error: modulus must be below 2^63, got 9223372036854775808"),
], ids=["subgroup-word-range", "parse-modulus", "parse-dump-rep", "reproduce-case",
        "verify-modulus", "subgroup-modulus", "guard-order", "guard-orbit", "subgroup-word",
        "verify-2^63", "classify-2^63", "subgroup-2^63", "parse-2^63", "mod-range-2^63"])
def test_an_input_error_exits_2_before_the_solver_loads(argv, err, tmp_path):
    # the word fits the first diagram but not the second, so the first must
    # not be computed before the word is refused
    path = tmp_path / "diagrams.txt"
    path.write_text("1 - 1 - 1 - 1 - 2 - 2\n1 - 2\n")
    argv = [str(path) if a == "DIAGRAMS" else a for a in argv]
    code, out, stderr, imported = run_module(argv, importtime=True)
    assert (code, out) == (2, b"")
    assert [line for line in stderr.splitlines() if not line.startswith("import time:")] == [err]
    assert not loads_solver(imported), sorted(imported)


def test_a_tampered_entry_is_recomputed_through_the_module_entry(tmp_path):
    argv = ["verify", "-d", "1 - 2 - 4", "-m", "4", "--cache", str(tmp_path)]
    code, cold, _, _ = run_module(argv)
    [entry_file] = tmp_path.iterdir()
    stored = entry_file.read_bytes()
    entry_file.write_bytes(b"TAMPERED")
    again, rerun, _, imported = run_module(argv, importtime=True)
    assert (again, rerun) == (code, cold) == (0, stored.partition(b"\n")[2])
    assert loads_solver(imported)
    assert entry_file.read_bytes() == stored


def test_importing_the_package_loads_no_numpy():
    code, _, err, imported = run_python(["-c", "import modpoly, modpoly.entry"], importtime=True)
    assert code == 0 and "modpoly.entry" in imported, err
    assert not loads_solver(imported), sorted(imported)
    assert "modpoly.registry" not in imported
    # every public name loads lazily: the package alone imports no submodule
    code, _, err, imported = run_python(["-c", "import modpoly"], importtime=True)
    assert code == 0 and "modpoly" in imported, err
    assert not [name for name in imported if name.startswith("modpoly.")]


def test_every_public_name_is_the_object_of_its_submodule():
    from modpoly import classify, parse_diagram, verify_diagram  # the README's import

    assert parse_diagram is diagram.parse_diagram
    assert verify_diagram is polytopality.verify_diagram
    assert classify is toroids.classify
    assert len(set(modpoly.__all__)) == len(modpoly.__all__) == 36
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
