import json
import os
import subprocess
import sys

import pytest

import liesph
from liesph.cli import main


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
    ("verify", "theorem1", "--type", "B3", "--trials", "0"),
    ("verify", "theorem1", "--type", "B3", "--trials", "-4"),
]


@pytest.mark.parametrize("argv", NONPOSITIVE_FLAGS, ids=[" ".join(a[-2:]) for a in NONPOSITIVE_FLAGS])
def test_numeric_flags_below_one_are_usage_errors(capsys, argv):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith(
        f"error: argument {argv[-2]}: expected a positive integer, got {argv[-1]!r}")


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


def test_theorem2_reports_a_failed_encoding_as_a_mismatch(monkeypatch, capsys):
    # an encoding that fails its biconvexity check is a mismatch of that
    # ideal, reported with the other ideals, and checked once
    from liesph import affine, ideals
    from liesph.affine import AffineRootSet

    psi_hat, is_biconvex = ideals.psi_hat, affine.is_biconvex_affine
    calls = []

    def drop_top_key_of_full_ideal(rs, ideal):
        S = psi_hat(rs, ideal)
        if ideal.size < rs.num_positive:
            return S
        return AffineRootSet(rs, S.keys - {max(S.keys)})

    monkeypatch.setattr(ideals, "psi_hat", drop_top_key_of_full_ideal)
    monkeypatch.setattr(affine, "is_biconvex_affine", lambda S: calls.append(S) or is_biconvex(S))
    code, rep = run_json(capsys, "verify", "theorem2", "--type", "B3")
    assert code == 1
    assert rep["ideals"] == len(calls) == 20
    full = [m for m in rep["mismatches"] if len(m["members"]) == 9]
    assert {"members": full[0]["members"],
            "reason": "affine encoding: input set is not biconvex in the affine positive system"} in full
    assert all(len(m["members"]) == 9 for m in rep["mismatches"])
