import argparse
import json
import os
import subprocess
import sys

import pytest

import liesph
from liesph.cli import build_parser, main


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
    # the budget bounds Weyl enumeration, which comes before the quartic table
    from liesph import spherical

    def no_table(L):
        raise AssertionError("quartic table built for a refused group")

    monkeypatch.setattr(spherical, "quartic_obstructions", no_table)
    for name, order in (("E8", 696729600), ("E7", 2903040)):
        for argv in (["verify", "theorem1"], ["verify", "subspaces"], ["atlas", "fc"]):
            assert main([*argv, "--type", name]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert err == f"budget exceeded: |W({name})| = {order} exceeds budget 200000\n"


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


def test_usage_errors(capsys):
    assert main(["verify", "theorem1", "--type", "H9"]) == 2
    assert main(["verify", "bogus", "--type", "B2"]) == 2
    assert main(["inspect", "--type", "G2"]) == 2
    assert main(["inspect", "--type", "G2", "--word", "1,2", "--ideal-gen", "2,1"]) == 2
    assert main(["inspect", "--type", "G2", "--ideal-gen", "9,9"]) == 2


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


def _cache_entry(tmp_path, capsys, content):
    """Cache one report, then overwrite its entry with content."""
    argv = ["verify", "theorem1", "--type", "A2", "--cache", str(tmp_path)]
    assert run(capsys, *argv)[0] == 0
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(content)
    return argv


# (failure, argv builder, exit code, start of the one stderr line)
FAILURES = [
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
def test_io_failures_keep_their_exit_code(tmp_path, capsys, build, code, line):
    argv = build(tmp_path, capsys)
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1 and err.startswith(line), err
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


def _leaf_parsers(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(path), parser
    for action in subparsers:
        for name, p in action.choices.items():
            yield from _leaf_parsers(p, (*path, name))


def test_each_parser_declares_its_row_of_the_matrix_and_nothing_else():
    common = {"-h", "--help", "--type", "--swap", "--format", "--out"}
    subject = {"inspect": {"--word", "--ideal-gen"}}
    leaves = dict(_leaf_parsers(build_parser()))
    assert set(leaves) == set(TAKES)
    for command, p in leaves.items():
        options = {s for a in p._actions for s in a.option_strings}
        assert options == common | TAKES[command] | subject.get(command, set()), command
    # every action but the help one sets a value
    assert sum(len(p._actions) - 1 for p in leaves.values()) == 53


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
    (("verify", "theorem2", "--type", "B2", "--workers", "2"),
     "liesph: error: unrecognized arguments: --workers 2"),
    (("inspect", "--type", "B2", "--word", "1,2", "--cache", "DIR"),
     "liesph: error: unrecognized arguments: --cache DIR"),
    # the target comes before the flags
    (("verify", "--type", "B2", "theorem2"), "liesph verify: error: argument what: invalid choice: 'B2'"),
])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv, error):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].startswith(error)


def test_spaces_around_word_and_coordinate_parts(capsys):
    for plain, spaced in (("--word=1,2", "--word= 1 , 2 "),
                          ("--ideal-gen=1,2", "--ideal-gen= 1 ,2 ")):
        expected = run(capsys, "inspect", "--type", "B2", plain)
        assert expected[0] == 0
        assert run(capsys, "inspect", "--type", "B2", spaced) == expected


def test_cli_import_loads_no_unused_modules():
    # a CLI process imports only what its commands run: no dataclasses (and
    # with it inspect, ast, dis), no hashlib outside the cache, no typing
    src = os.path.dirname(os.path.dirname(liesph.__file__))
    code = ("import sys, liesph.cli; "
            "print(sorted({'dataclasses', 'inspect', 'hashlib', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert proc.stdout == "[]\n"
    # the lemma sweep makes no Fraction, and the structure constants are built
    # in int arithmetic, so no verdict loads fractions or decimal
    for argv in (["verify", "lemmas", "--type", "B2"], ["verify", "theorem1", "--type", "B2"],
                 ["verify", "theorem2", "--type", "B2"]):
        code = (f"import sys, liesph.cli; code = liesph.cli.main({argv!r}); "
                "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, check=True)
        assert proc.stderr == "0 []\n", argv


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
    # peel alone, on the per-ideal path of verify theorem2
    from liesph import ideals

    peel, calls, other_proofs = ideals._peel_codes, [], []
    monkeypatch.setattr(ideals, "_peel_codes", lambda rs, c: calls.append(c) or peel(rs, c))
    _count_other_biconvexity_proofs(monkeypatch, other_proofs)
    code, rep = run_json(capsys, "atlas", "ideals", "--type", "B3")
    assert code == 0 and rep["count"] == len(calls) == 20
    code, rep = run_json(capsys, "inspect", "--type", "B3", "--ideal-gen", "0,1,1")
    assert code == 0 and rep["w_word"] and len(calls) == 21
    assert other_proofs == []


def test_theorem2_reports_a_failed_encoding_as_a_mismatch(monkeypatch, capsys):
    # an encoding that fails its biconvexity check is a mismatch of that
    # ideal, reported with the other ideals, and checked once, by the peel
    from liesph import ideals

    encode, peel = ideals._encoding_codes, ideals._peel_codes
    calls, other_proofs = [], []

    def drop_top_code_of_full_ideal(rs, layers):
        codes = encode(rs, layers)
        if layers[0] == (1 << rs.num_positive) - 1:
            codes.remove(max(codes))
        return codes

    monkeypatch.setattr(ideals, "_encoding_codes", drop_top_code_of_full_ideal)
    monkeypatch.setattr(ideals, "_peel_codes", lambda rs, codes: calls.append(codes) or peel(rs, codes))
    _count_other_biconvexity_proofs(monkeypatch, other_proofs)
    code, rep = run_json(capsys, "verify", "theorem2", "--type", "B3")
    assert code == 1
    assert rep["ideals"] == len(calls) == 20
    assert other_proofs == []
    full = [m for m in rep["mismatches"] if len(m["members"]) == 9]
    assert {"members": full[0]["members"],
            "reason": "affine encoding: input set is not biconvex in the affine positive system"} in full
    assert all(len(m["members"]) == 9 for m in rep["mismatches"])
