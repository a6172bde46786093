import gc
import json
import os
import subprocess
import sys

import pytest

import liesph
from liesph.cli import COMMON, OPTIONS, REPORTS, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_verify_theorem1_b2(capsys):
    code, rep = run_json(capsys, "verify", "theorem1", "--type", "B2")
    assert code == 0
    assert rep["elements"] == 8 and rep["decider_count"] == 7
    assert rep["mismatches"] == []


def test_verify_theorem2_g2(capsys):
    code, rep = run_json(capsys, "verify", "theorem2", "--type", "G2")
    assert code == 0
    assert rep["ideals"] == 8 and rep["spherical"] == 4


def test_verify_subspaces_and_lemmas(capsys):
    code, rep = run_json(capsys, "verify", "subspaces", "--type", "B2")
    assert code == 0 and rep["mismatches"] == []
    code, rep = run_json(capsys, "verify", "lemmas", "--type", "A3")
    assert code == 0 and rep["witnesses"] == 0


def test_verify_g2_units(capsys):
    code, rep = run_json(capsys, "verify", "g2", "--type", "G2")
    assert code == 0
    assert all(c["ok"] for c in rep["checks"])
    code, _ = run(capsys, "verify", "g2", "--type", "B2")
    assert code == 2


def test_verify_g2_both_labellings(capsys):
    for swap in ([], ["--swap"]):
        code, rep = run_json(capsys, "verify", "g2", "--type", "G2", *swap)
        assert code == 0 and rep["mismatches"] == []
        assert len(rep["checks"]) == 9 and all(c["ok"] for c in rep["checks"])


def test_budget_exit_code(monkeypatch, capsys):
    # the budget is checked against |W| from the Cartan type: a refused
    # group builds no root system, algebra or quartic table
    from liesph import cli, spherical
    from liesph.roots import CartanType

    def refuse(*args, **kwargs):
        raise AssertionError("built for a refused group")

    monkeypatch.setattr(spherical, "quartic_obstructions", refuse)
    monkeypatch.setattr(cli, "build_root_system", refuse)
    cases = [(argv, name, order, 200000)
             for name, order in (("E8", 696729600), ("E7", 2903040))
             for argv in (["verify", "theorem1"], ["verify", "subspaces"], ["atlas", "fc"])]
    cases.append((["verify", "theorem1", "--budget", "10"], "A80", CartanType("A", 80).weyl_order(), 10))
    # 2001! has over 5000 digits, more than str() converts
    bits = CartanType("A", 2000).weyl_order().bit_length()
    cases.append((["atlas", "fc", "--budget", "1"], "A2000", f"a {bits}-bit number", 1))
    for argv, name, order, budget in cases:
        assert main([*argv, "--type", name]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"budget exceeded: |W({name})| = {order} exceeds budget {budget}\n"
    # past 10 000 bits, a rank the budget is too small for is refused on the
    # bound |W| >= 2^rank, without computing |W|
    monkeypatch.setattr(CartanType, "weyl_order", refuse)
    for argv, name, budget in ((["verify", "theorem1"], "A1000000", "1"),
                               (["atlas", "fc"], "D10001", str(2**10000))):
        assert main([*argv, "--type", name, "--budget", budget]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"budget exceeded: |W({name})| >= 2^{name[1:]} exceeds budget {budget}\n"


@pytest.mark.parametrize("name, scanned", [("E7", 720720), ("E8", 9078630)])
def test_lemmas_on_e7_e8_are_not_refused(capsys, name, scanned):
    # simply laced: no multiset passes the lemma's filters
    code, rep = run_json(capsys, "verify", "lemmas", "--type", name)
    assert code == 0
    assert rep["multisets_scanned"] == scanned
    assert rep["witnesses"] == 0 and rep["violations"] == []


@pytest.mark.slow
def test_theorem2_e7_through_cli(capsys):
    # 4160 is the type-E7 Catalan number (Cellini-Papi); the abelian ideals
    # number 2^7 (Peterson)
    code, rep = run_json(capsys, "verify", "theorem2", "--type", "E7")
    assert code == 0 and rep["mismatches"] == []
    assert rep["ideals"] == 4160
    assert rep["abelian"] == rep["spherical"] == rep["fc"] == 128


# int() refuses more than 4300 digits (the default of sys.set_int_max_str_digits)
HUGE = "9" * 5000


def test_usage_errors(capsys):
    assert main(["verify", "theorem1", "--type", "H9"]) == 2
    assert main(["verify", "bogus", "--type", "B2"]) == 2
    assert main(["inspect", "--type", "G2"]) == 2
    assert main(["inspect", "--type", "G2", "--word", "1,2", "--ideal-gen", "2,1"]) == 2
    assert main(["inspect", "--type", "G2", "--ideal-gen", "9,9"]) == 2
    capsys.readouterr()
    # a subject too long for int() is unreadable, not a crash
    for argv, line in ((["inspect", "--type", "B2", "--word", f"1,{HUGE}"],
                        f"error: cannot parse word '1,{HUGE}'"),
                       (["inspect", "--type", "B2", "--ideal-gen", f"{HUGE},1"],
                        f"error: cannot parse root coordinates '{HUGE},1' for rank 2"),
                       (["verify", "theorem2", "--type", f"A{HUGE}"],
                        f"error: cannot parse Cartan type 'A{HUGE}'")):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", line + "\n")


def test_atlas_ideals_b2(capsys):
    code, rep = run_json(capsys, "atlas", "ideals", "--type", "B2")
    assert code == 0 and rep["count"] == 6 and len(rep["records"]) == 6


def test_atlas_fc(capsys):
    code, rep = run_json(capsys, "atlas", "fc", "--type", "A3")
    assert code == 0 and rep["count"] == 14
    code, rep = run_json(capsys, "atlas", "fc", "--type", "G2")
    assert code == 0 and rep["count"] == 11
    assert max(r["length"] for r in rep["records"]) == 5
    # in G2, commutative atlas rows are exactly the spherical ones
    for r in rep["records"]:
        assert r["commutative"] == r["spherical"]


def test_inspect_word(capsys):
    code, rep = run_json(capsys, "inspect", "--type", "G2", "--word", "1,2,1")
    assert code == 0
    assert sorted(map(tuple, rep["inversions"])) == [(1, 0), (2, 1), (3, 1)]
    assert rep["fully_commutative"] and not rep["commutative"] and not rep["spherical"]
    assert rep["witness"] is not None
    # word-based deciders agree with the criteria when under the cap
    assert rep["reduced_words"] >= 1 and not rep["reduced_words_capped"]
    assert rep["fully_commutative_by_words"] == rep["fully_commutative"]
    assert rep["commutative_by_words"] == rep["commutative"]


def test_inspect_ideal(capsys):
    code, rep = run_json(capsys, "inspect", "--type", "G2", "--ideal-gen", "2,1")
    assert code == 0
    assert sorted(map(tuple, rep["members"])) == [(2, 1), (3, 1), (3, 2)]
    assert rep["abelian"] and rep["spherical"] and rep["commutative"]
    code, rep = run_json(capsys, "inspect", "--type", "B2", "--word", "2,1,2")
    assert rep["fully_commutative"] and rep["spherical"]


def test_formats(capsys):
    code, out = run(capsys, "atlas", "ideals", "--type", "B2", "--format", "csv")
    assert code == 0 and out.splitlines()[0].startswith("abelian,")
    code, out = run(capsys, "verify", "theorem1", "--type", "A2", "--format", "md")
    assert code == 0 and out.startswith("| key | value |")


def test_determinism_and_cache(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["verify", "theorem1", "--type", "B3", "--cache", str(cache)]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert list(cache.glob("*.json"))
    # without cache, still byte-identical
    code3, out3 = run(capsys, "verify", "theorem1", "--type", "B3")
    assert out3 == out1


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(capsys, "verify", "theorem2", "--type", "B2", "--out", str(target))
    assert code == 0 and out == ""
    rep = json.loads(target.read_text())
    assert rep["ideals"] == 6


def test_inspect_seeded_determinism(capsys):
    a = run(capsys, "inspect", "--type", "B2", "--word", "1,2", "--seed", "7")
    b = run(capsys, "inspect", "--type", "B2", "--word", "1,2", "--seed", "7")
    assert a == b


def test_swap_flag(capsys):
    code, rep = run_json(capsys, "inspect", "--type", "B2", "--swap", "--word", "1,2,1")
    assert code == 0
    # with swapped labels alpha1 is short, so s1s2s1 is the non-commutative one
    assert not rep["commutative"] and rep["fully_commutative"]


def test_workers_flag(capsys):
    code, rep = run_json(capsys, "verify", "theorem1", "--type", "B3", "--workers", "2")
    assert code == 0 and rep["mismatches"] == []


def test_cache_is_read_before_the_budget(tmp_path, capsys):
    # the cache key holds no budget: a cached report is served, not refused
    argv = ["verify", "theorem1", "--type", "B3", "--cache", str(tmp_path)]
    code, out = run(capsys, *argv, "--budget", "48")
    assert code == 0
    assert run(capsys, *argv, "--budget", "10") == (0, out)
    assert main(["verify", "theorem1", "--type", "B3", "--budget", "10"]) == 3


def _cache_entry(tmp_path, capsys, content):
    """Cache one report, then overwrite its entry with content."""
    argv = ["verify", "theorem1", "--type", "A2", "--cache", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(content)
    return argv


def _cache_entry_directory(tmp_path, capsys):
    """Cache one report, then put a directory where its entry was."""
    argv = _cache_entry(tmp_path, capsys, "")
    (entry,) = tmp_path.glob("*.json")
    entry.unlink()
    entry.mkdir()
    return argv


def _cache_file(tmp_path, capsys):
    """A regular file given as the cache directory."""
    (tmp_path / "cache").write_text("")
    return ["verify", "theorem2", "--type", "E8", "--cache", str(tmp_path / "cache")]


# (failure, argv builder, exit code, start of the one stderr line)
FAILURES = [
    ("--cache onto a regular file", _cache_file, 4, "error: [Errno 20] Not a directory: "),
    ("cache entry a directory", _cache_entry_directory, 4, "error: [Errno 21] Is a directory: "),
    ("truncated cache entry",
     lambda tmp, cap: _cache_entry(tmp, cap, '{\n  "command": "verify-the'),
     0, "warning: unreadable cache entry "),
    ("cache entry not an object",
     lambda tmp, cap: _cache_entry(tmp, cap, "[]\n"),
     0, "warning: unreadable cache entry "),
    ("cache entry of another report",
     lambda tmp, cap: _cache_entry(tmp, cap, '{"ideals": 3}\n'),
     0, "warning: unreadable cache entry "),
    ("--out into a missing directory",
     lambda tmp, cap: ["verify", "theorem1", "--type", "A2", "--out", str(tmp / "no" / "r.json")],
     4, "error: [Errno 2] No such file or directory: "),
    ("--out onto a directory",
     lambda tmp, cap: ["verify", "theorem1", "--type", "A2", "--out", str(tmp)],
     4, "error: [Errno 21] Is a directory: "),
    ("doubled minus in --ideal-gen",
     lambda tmp, cap: ["inspect", "--type", "B2", "--ideal-gen=--1,0"],
     2, "error: cannot parse root coordinates '--1,0' for rank 2"),
    ("superscript digit in --ideal-gen",
     lambda tmp, cap: ["inspect", "--type", "B2", "--ideal-gen=²,0"],
     2, "error: cannot parse root coordinates '²,0' for rank 2"),
    # int() reads each of these ranks, the first as 10
    *((f"Cartan type {name!r}",
       lambda tmp, cap, name=name: ["verify", "theorem1", "--type", name, "--budget", "10"],
       2, f"error: cannot parse Cartan type {name!r}")
      for name in ("A1_0", "A+2", "A 2", "A２")),
    # int() reads each of these parts: a plus sign, Arabic-Indic and fullwidth digits
    *((f"{flag} {text!r}",
       lambda tmp, cap, flag=flag, text=text: ["inspect", "--type", "B2", f"{flag}={text}"],
       2, f"error: cannot parse {what} {text!r}")
      for flag, text, what in (("--word", "1,+2", "word"),
                               ("--word", "١,2", "word"),
                               ("--ideal-gen", "1,１", "root coordinates"))),
]


@pytest.mark.parametrize("build, code, line", [c[1:] for c in FAILURES],
                         ids=[c[0] for c in FAILURES])
def test_io_failures_keep_their_exit_code(monkeypatch, tmp_path, capsys, build, code, line):
    argv = build(tmp_path, capsys)
    capsys.readouterr()
    built, build_root_system = [], liesph.cli.build_root_system
    monkeypatch.setattr(liesph.cli, "build_root_system",
                        lambda *a, **k: built.append(a) or build_root_system(*a, **k))
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith(line), err
    if code == 4 and "--cache" in argv:
        assert built == []  # a cache path that can never hold the entry fails before any work
    if code == 0:
        # the entry was recomputed, rewritten whole, and the report is unchanged
        (entry,) = tmp_path.glob("*.json")
        assert json.loads(entry.read_text()) == json.loads(out)
        assert run(capsys, *argv[:-2]) == (0, out)


NONPOSITIVE_FLAGS = [
    ("inspect", "--type", "A2", "--word", "1,2,1", "--cap-words", "0"),
    ("inspect", "--type", "A2", "--word", "1,2,1", "--cap-words", "-1"),
    ("verify", "theorem1", "--type", "A2", "--budget", "-1"),
    ("verify", "theorem1", "--type", "A2", "--workers", "-3"),
    ("verify", "theorem1", "--type", "A2", "--workers", "two"),
    ("inspect", "--type", "A2", "--word", "1,2,1", "--trials", "0"),
    ("inspect", "--type", "A2", "--word", "1,2,1", "--trials", "-4"),
]


@pytest.mark.parametrize("argv", NONPOSITIVE_FLAGS, ids=[" ".join(a[-2:]) for a in NONPOSITIVE_FLAGS])
def test_numeric_flags_below_one_are_usage_errors(capsys, argv):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(
        f"error: argument {argv[-2]}: expected a positive integer, got {argv[-1]!r}")


# int() reads each of these seeds, the second as 10 and the third as 3
NOT_INTEGERS = ["+2", "1_0", "\u0663"]


@pytest.mark.parametrize("text", NOT_INTEGERS, ids=[ascii(t) for t in NOT_INTEGERS])
def test_seed_takes_ascii_digits_after_one_minus(capsys, text):
    assert main(["verify", "theorem1", "--type", "A1", "--seed", text]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(f"error: argument --seed: expected an integer, got {text!r}")


def test_negative_seed_is_read(capsys):
    code, rep = run_json(capsys, "verify", "theorem1", "--type", "A1", "--seed", "-3")
    assert code == 0 and rep["seed"] == -3


# the optional flags each (command, target) reads, besides --type, --swap,
# --format and --out, which every one reads
TAKES = {
    "verify theorem1": {"--seed", "--budget", "--workers", "--cache"},
    "verify subspaces": {"--seed", "--budget", "--cache"},
    "verify theorem2": {"--seed", "--cache"},
    "verify lemmas": {"--seed", "--cache"},
    "verify g2": {"--seed", "--cache"},
    "atlas ideals": {"--cache"},
    "atlas fc": {"--budget", "--cache"},
    "inspect": {"--seed", "--trials", "--cap-words"},
}
FLAG_VALUES = {"--seed": "4", "--budget": "100", "--workers": "2", "--cache": "DIR",
               "--trials": "2", "--cap-words": "50"}


def test_each_parser_declares_its_row_of_the_matrix_and_nothing_else():
    subject = {"inspect": {"--word", "--ideal-gen"}}
    rows = {" ".join(filter(None, key)): flags for key, (_, flags) in REPORTS.items()}
    assert set(rows) == set(TAKES)
    for command, flags in rows.items():
        assert len(set(flags)) == len(flags), command
        assert set(flags) == TAKES[command] | subject.get(command, set()), command
    # every flag is read by some row; each row sets the common flags and its own
    assert set(OPTIONS) == set(COMMON).union(*rows.values())
    assert sum(len(COMMON) + len(flags) for flags in rows.values()) == 53


@pytest.mark.parametrize("flag", FLAG_VALUES)
@pytest.mark.parametrize("command", TAKES)
def test_each_command_takes_only_the_flags_it_reads(tmp_path, capsys, command, flag):
    subject = {"verify g2": ["--type", "G2"], "inspect": ["--type", "B2", "--word", "1,2"]}
    argv = [*command.split(), *subject.get(command, ["--type", "B2"]),
            flag, FLAG_VALUES[flag].replace("DIR", str(tmp_path))]
    code, out = run(capsys, *argv)
    if flag in TAKES[command]:
        assert code == 0 and out
    else:
        assert code == 2 and out == ""


@pytest.mark.parametrize("argv, error", [
    # the command's own parser reports the flag, under its usage line
    (("verify", "theorem2", "--type", "B2", "--workers", "2"),
     "liesph verify theorem2: error: unrecognized arguments: --workers 2"),
    (("inspect", "--type", "B2", "--word", "1,2", "--cache", "DIR"),
     "liesph inspect: error: unrecognized arguments: --cache DIR"),
    # the target comes before the flags
    (("verify", "--type", "B2", "theorem2"), "liesph verify: error: argument what: invalid choice: 'B2'"),
])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv, error):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].startswith(error)
    prog = error.split(":")[0]
    assert err.startswith(f"usage: {prog} ")


USAGE_ERRORS = [
    (("verify", "theorem1", "--type", "B2", "--seed"),
     "liesph verify theorem1: error: argument --seed: expected one argument"),
    (("verify", "theorem1", "--type", "B2", "--swap=1"),
     "liesph verify theorem1: error: argument --swap: ignored explicit argument '1'"),
    (("verify", "lemmas"),
     "liesph verify lemmas: error: the following arguments are required: --type"),
    (("atlas", "fc", "--type", "A2", "--format", "xml"),
     "liesph atlas fc: error: argument --format: invalid choice: 'xml' "
     "(choose from 'json', 'csv', 'md')"),
    (("bogus",),
     "liesph: error: argument command: invalid choice: 'bogus' "
     "(choose from 'verify', 'atlas', 'inspect')"),
    ((), "liesph: error: the following arguments are required: command"),
    (("verify",), "liesph verify: error: the following arguments are required: what"),
    # a flag before the target is not the target's: its own prog reports it
    (("verify", "--swap", "theorem2", "--type", "B2"),
     "liesph verify theorem2: error: unrecognized arguments: --swap"),
    # a separate value may start with '-' only as a negative number
    (("verify", "theorem2", "--type", "-B2"),
     "liesph verify theorem2: error: argument --type: expected one argument"),
    (("verify", "theorem2", "--type", "B2", "--", "--x"),
     "liesph verify theorem2: error: unrecognized arguments: -- --x"),
    # an integer too long for int() is a usage error, never a traceback
    (("verify", "theorem1", "--type", "B2", "--budget", HUGE),
     "liesph verify theorem1: error: argument --budget: integer too long: 5000 digits"),
    (("verify", "theorem1", "--type", "B2", "--seed", HUGE),
     "liesph verify theorem1: error: argument --seed: integer too long: 5000 digits"),
    (("verify", "theorem1", "--type", "B2", "--seed", f"-{HUGE}"),
     "liesph verify theorem1: error: argument --seed: integer too long: 5000 digits"),
    (("verify", "theorem1", "--type", "B2", "--workers", HUGE),
     "liesph verify theorem1: error: argument --workers: integer too long: 5000 digits"),
    (("inspect", "--type", "B2", "--trials", HUGE),
     "liesph inspect: error: argument --trials: integer too long: 5000 digits"),
    (("inspect", "--type", "B2", "--cap-words", HUGE),
     "liesph inspect: error: argument --cap-words: integer too long: 5000 digits"),
]


@pytest.mark.parametrize("argv, error", USAGE_ERRORS,
                         ids=[" ".join(a).replace(HUGE, "<5000 nines>") for a, _ in USAGE_ERRORS])
def test_usage_error_lines(capsys, argv, error):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == error
    prog = error.split(": error:")[0]
    assert err.startswith(f"usage: {prog} ")


@pytest.mark.parametrize("argv", [(), ("verify",), ("verify", "theorem2")])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_at_every_level(capsys, argv, flag):
    assert main([*argv, flag]) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: {' '.join(('liesph', *argv))} ") and err == ""


def test_version_and_last_flag_wins(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr() == (f"liesph {liesph.__version__}\n", "")
    code, rep = run_json(capsys, "verify", "lemmas", "--type=B2", "--type", "B3")
    assert code == 0 and rep["type"] == "B3"


def test_spaces_around_word_and_coordinate_parts(capsys):
    for plain, spaced in (("--word=1,2", "--word= 1 , 2 "),
                          ("--ideal-gen=1,2", "--ideal-gen= 1 ,2 ")):
        expected = run(capsys, "inspect", "--type", "B2", plain)
        assert expected[0] == 0
        assert run(capsys, "inspect", "--type", "B2", spaced) == expected


def test_cli_import_loads_no_unused_modules():
    # a CLI process imports only what its commands run: no dataclasses (and
    # with it inspect, ast, dis), no hashlib or json outside the cache, no typing
    src = os.path.dirname(os.path.dirname(liesph.__file__))
    code = ("import sys, liesph.cli; "
            "print(sorted({'dataclasses', 'inspect', 'hashlib', 'json', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "[]\n"
    # the lemma sweep makes no Fraction, and the structure constants are built
    # in int arithmetic, so no verdict loads fractions or decimal; the command
    # line is read from the flag tables, so neither a verdict, a usage error
    # nor help loads argparse (with gettext and locale); reports are written
    # without json, in every format
    unused = {"fractions", "decimal", "argparse", "gettext", "locale", "json"}
    for argv, exit_code in ((["verify", "lemmas", "--type", "B2"], 0),
                            (["verify", "theorem1", "--type", "B2"], 0),
                            (["verify", "theorem2", "--type", "B2"], 0),
                            (["verify", "theorem2", "--type", "B2", "--format", "csv"], 0),
                            (["atlas", "ideals", "--type", "B2", "--format", "md"], 0),
                            (["verify", "theorem2", "--type", "B2", "--workers", "2"], 2),
                            (["verify", "theorem2", "--help"], 0)):
        code = (f"import sys, liesph.cli; code = liesph.cli.main({argv!r}); "
                f"print(code, sorted({unused!r} & set(sys.modules)), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert proc.stderr.splitlines()[-1] == f"{exit_code} []", argv


JSON_VALUES = [
    {}, [], (), "", 0, -7, 10**40, True, False, None,
    {"b": [1, (2, 3)], "a": {"y": [], "x": {}}, "c": [[[]], [{}], {"k": [None, True]}]},
    ["plain text, with: punctuation! ~", "tab\there", "new\nline", "nul\x00", "del\x7f",
     'quote"s', "back\\slash", "caf\u00e9", "\u2264 \U0001d54a", "\ud800"],
    {"caf\u00e9": "\u00e9", "\x01": "", 'q"': "x", "\\": "\\"},
    [{"members": [[1, 0], [1, 1]], "reason": "abelian != single layer"}, {"w": (0, 2, 1)}],
]


@pytest.mark.parametrize("value", JSON_VALUES, ids=range(len(JSON_VALUES)))
def test_report_writer_is_json_dumps(value):
    from liesph.cli import _json

    assert _json(value) == json.dumps(value, sort_keys=True)
    assert _json(value, pretty=True) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, {1, 2}, {1: "int key"}, object(), [b"bytes"], {"k": 1j}])
def test_report_writer_refuses_what_reports_do_not_hold(value):
    from liesph.cli import _json

    for pretty in (False, True):
        with pytest.raises(TypeError):
            _json(value, pretty)


def _process_entry(argv, redirect="", **kwargs):
    """``python -m liesph.cli`` on argv, buffered as from a shell, under the
    shell redirections in redirect."""
    src = os.path.dirname(os.path.dirname(liesph.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    command = [sys.executable, "-m", "liesph.cli", *argv]
    if redirect:
        command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
    return subprocess.run(command, env={**env, "PYTHONPATH": src}, **kwargs)


def test_process_entry_writes_what_main_writes(tmp_path, capsys):
    # the process entry ends without interpreter teardown; what it writes and
    # its exit code are main's: a report, a usage error, a refusal, a library
    # error and an I/O error
    import atexit

    cases = [["verify", "theorem1", "--type", "B2"],
             ["verify", "theorem1"],
             ["verify", "theorem1", "--type", "E7"],
             ["inspect", "--type", "B2"],
             ["atlas", "ideals", "--type", "B2", "--out", str(tmp_path)]]
    codes = []
    for argv in cases:
        proc = _process_entry(argv, capture_output=True, text=True)
        callbacks = atexit._ncallbacks()
        codes.append(main(argv))
        assert (proc.returncode, proc.stdout, proc.stderr) == (codes[-1], *capsys.readouterr()), argv
        # main itself leaves the collector and the exit handlers alone, for
        # library and test callers
        assert gc.isenabled() and gc.get_freeze_count() == 0
        assert atexit._ncallbacks() == callbacks
    assert codes == [0, 2, 3, 2, 4]
    # a report written to --out is complete when the process has ended
    out = tmp_path / "ideals.md"
    argv = ["atlas", "ideals", "--type", "B3", "--format", "md"]
    assert _process_entry([*argv, "--out", str(out)], capture_output=True).returncode == 0
    assert main(argv) == 0
    assert out.read_text() == capsys.readouterr().out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_report_stdout_cannot_take_exits_io_error():
    # a buffered report fails only when it is flushed, which main does, so
    # the failure is an I/O error and not an error at interpreter exit
    for argv in (["verify", "theorem1", "--type", "B4"], ["--version"], ["--help"]):
        with open("/dev/full", "w") as full:
            proc = _process_entry(argv, stdout=full, stderr=subprocess.PIPE, text=True)
        assert (proc.returncode, proc.stderr) == (4, "error: [Errno 28] No space left on device\n")


# (command line, shell redirections, exit code): a closed or full stream
# keeps the code of the run, and a stdout that cannot take the output the
# command writes to it exits 4; none of them writes a traceback
STREAM_FAILURES = [
    ("verify theorem1", "2>/dev/full", 2),
    ("verify theorem1", "2>&-", 2),
    ("verify theorem1 --type E7", "2>/dev/full", 3),
    ("inspect --type B2 --word 9", "2>/dev/full", 2),
    ("verify theorem1 --type B2 --format csv", ">/dev/full 2>/dev/full", 4),
    ("verify theorem1 --type B4 --out DIR/missing/x.json", "2>/dev/full", 4),
    ("verify theorem1 --type B2", ">&-", 4),
    ("--version", ">&-", 4),
    ("verify theorem1 --help", ">&-", 4),
    # a report written to --out needs no stdout
    ("verify theorem1 --type B2 --out DIR/r.json", ">&-", 0),
]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("line, redirect, code", STREAM_FAILURES,
                         ids=[f"{line} {redirect}" for line, redirect, _ in STREAM_FAILURES])
def test_stream_failures_keep_their_exit_code(tmp_path, line, redirect, code):
    argv = line.replace("DIR", str(tmp_path)).split()
    proc = _process_entry(argv, redirect, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (code, "")
    closed = redirect == ">&-" and code == 4
    assert proc.stderr == ("error: [Errno 9] stdout is closed\n" if closed else "")
    if code == 0:
        assert json.loads((tmp_path / "r.json").read_text())["mismatches"] == []


def test_console_script_and_module_share_the_process_entry():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml")) as fh:  # no tomllib before 3.11
        scripts = fh.read().split("[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    with open(liesph.cli.__file__) as fh:
        main_block = fh.read().split('if __name__ == "__main__":\n', 1)[1]
    assert scripts == 'liesph = "liesph.cli:run"'
    assert main_block.strip() == "run()"


def test_crash_exits_internal_error_not_mismatch(monkeypatch, capsys):
    from liesph import spherical

    def crash(L):
        raise RuntimeError("table build failed\nsecond line")

    monkeypatch.setattr(spherical, "quartic_obstructions", crash)
    assert main(["verify", "theorem1", "--type", "A2"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["internal error: RuntimeError: table build failed second line"]


@pytest.mark.parametrize("argv", [
    ("atlas", "ideals", "--type", "B3"),
    ("verify", "g2", "--type", "G2"),
])
def test_one_algebra_per_command(monkeypatch, capsys, argv):
    from liesph.chevalley import ChevalleyAlgebra

    built = []
    init = ChevalleyAlgebra.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ChevalleyAlgebra, "__init__", counting_init)
    assert run(capsys, *argv)[0] == 0
    assert len(built) == 1


def test_atlas_ideals_enumerates_the_ideals_once(monkeypatch, capsys):
    from liesph import ideals

    calls = []
    enumerate_ideals = ideals.enumerate_ideals
    monkeypatch.setattr(ideals, "enumerate_ideals",
                        lambda rs: calls.append(rs) or enumerate_ideals(rs))
    code, rep = run_json(capsys, "atlas", "ideals", "--type", "B3")
    assert code == 0 and rep["count"] == 20
    assert len(calls) == 1


def _count_other_biconvexity_proofs(monkeypatch, calls):
    """Record each call of the biconvexity predicate and of the word's
    inversion-set pass, the checks the peel replaces."""
    from liesph import affine

    for name in ("is_biconvex_affine", "_inversion_codes"):
        f = getattr(affine, name)
        monkeypatch.setattr(affine, name, lambda *a, f=f, name=name: calls.append(name) or f(*a))


def test_encoding_commands_peel_each_ideal_once(monkeypatch, capsys):
    # atlas ideals and inspect --ideal-gen build each element by the code
    # peel alone, each from the identity, as its printed word is the peel's
    from liesph import affine

    peel, calls, other_proofs = affine._peel_codes, [], []
    monkeypatch.setattr(affine, "_peel_codes",
                        lambda rs, c, start: calls.append(start) or peel(rs, c, start))
    _count_other_biconvexity_proofs(monkeypatch, other_proofs)
    code, rep = run_json(capsys, "atlas", "ideals", "--type", "B3")
    assert code == 0 and rep["count"] == len(calls) == 20
    code, rep = run_json(capsys, "inspect", "--type", "B3", "--ideal-gen", "0,1,1")
    assert code == 0 and rep["w_word"] and len(calls) == 21
    assert calls == [None] * 21 and other_proofs == []


def test_inspect_ideal_decides_sphericality_once(monkeypatch, capsys):
    # the witness scan behind the report's spherical flag and witness is the
    # only one; the ideal record does not ask again
    from liesph import spherical

    witness, calls = spherical.spherical_witness, []
    monkeypatch.setattr(spherical, "spherical_witness",
                        lambda L, ps: calls.append(ps) or witness(L, ps))
    code, rep = run_json(capsys, "inspect", "--type", "F4", "--ideal-gen", "0,1,1,1")
    assert code == 0 and rep["subject"] == "ideal"
    assert len(calls) == 1


def test_theorem2_reports_a_failed_encoding_as_a_mismatch(monkeypatch, capsys):
    # an encoding that fails its biconvexity check is a mismatch of that
    # ideal, reported with the other ideals, and checked once, by the peel
    from liesph import affine, ideals

    deepen, peel = ideals._deepen, affine._peel_codes
    calls, other_proofs = [], []

    def drop_top_code_of_full_ideal(rs, mask, *state):
        codes = deepen(rs, mask, *state)
        if mask == (1 << rs.num_positive) - 1:
            codes.remove(max(codes))
        return codes

    monkeypatch.setattr(ideals, "_deepen", drop_top_code_of_full_ideal)
    monkeypatch.setattr(affine, "_peel_codes",
                        lambda rs, codes, start: calls.append(codes) or peel(rs, codes, start))
    _count_other_biconvexity_proofs(monkeypatch, other_proofs)
    code, rep = run_json(capsys, "verify", "theorem2", "--type", "B3")
    assert code == 1
    assert rep["ideals"] == len(calls) == 20
    assert other_proofs == []
    full = [m for m in rep["mismatches"] if len(m["members"]) == 9]
    assert {"members": full[0]["members"],
            "reason": "affine encoding: input set is not biconvex in the affine positive system"} in full
    assert all(len(m["members"]) == 9 for m in rep["mismatches"])
