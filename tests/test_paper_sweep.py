"""Both theorems through the CLI on every irreducible type up to rank 8,
against counts from the literature written out here, not read from
``CartanType``."""

import json
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from liesph.cli import DEFAULT_BUDGET, EXIT_BUDGET, EXIT_OK, main


def _catalan(n):
    return comb(2 * n, n) // (n + 1)


def _literature(family, n):
    """(|W|, exponents, fully commutative elements) of type family_n: the
    orders and exponents of Bourbaki's tables, and Stembridge's counts of
    fully commutative elements (The enumeration of fully commutative
    elements of Coxeter groups, J. Algebraic Combin. 1998).  In G2 theorem
    1 decides commutativity instead: the commutative elements are those
    Bruhat below s2 s1 s2, which are it and the five of length at most 2."""
    if family == "A":
        return factorial(n + 1), range(1, n + 1), _catalan(n + 1)
    if family in "BC":
        return 2**n * factorial(n), range(1, 2 * n, 2), (n + 2) * _catalan(n) - 1
    if family == "D":
        fc = Fraction(n + 3, 2) * _catalan(n) - 1
        return 2 ** (n - 1) * factorial(n), [*range(1, 2 * n - 2, 2), n - 1], int(fc)
    return {
        "E6": (51_840, (1, 4, 5, 7, 8, 11), 662),
        "E7": (2_903_040, (1, 5, 7, 9, 11, 13, 17), 2_670),
        "E8": (696_729_600, (1, 7, 11, 13, 17, 19, 23, 29), 10_846),
        "F4": (1_152, (1, 5, 7, 11), 106),
        "G2": (12, (1, 5), 6),
    }[f"{family}{n}"]


def _spherical_ideals(family, n):
    """Observed counts of spherical ideals, pinned as regression values."""
    if family in "ADE":
        return 2**n
    return {"B": 5 * 2 ** (n - 2), "C": 3 * 2 ** (n - 1) - 1, "F": 21, "G": 4}[family]


SWEEP = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
         + [("C", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)]
         + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.slow
def test_both_theorems_on_every_type_up_to_rank_8(capsys):
    # theorem 1 is refused (exit 3) where |W| exceeds the default budget
    refused = []
    for family, n in SWEEP:
        name = f"{family}{n}"
        order, exponents, fc = _literature(family, n)
        code, out, err = _run(capsys, "verify", "theorem1", "--type", name)
        if order > DEFAULT_BUDGET:
            assert (code, out) == (EXIT_BUDGET, ""), name
            assert "budget exceeded" in err, name
            refused.append(name)
        else:
            assert code == EXIT_OK, (name, err)
            rep = json.loads(out)
            assert rep["mismatches"] == [], name
            assert rep["elements"] == order, name
            assert rep["decider_count"] == rep["spherical_count"] == fc, name

        # Cellini-Papi: the ideals number prod (h + e_i + 1) / (e_i + 1), h the
        # Coxeter number; Peterson: 2^rank of them are abelian
        h = max(exponents) + 1
        ideals = prod(Fraction(h + e + 1, e + 1) for e in exponents)
        code, out, err = _run(capsys, "verify", "theorem2", "--type", name)
        assert code == EXIT_OK, (name, err)
        rep = json.loads(out)
        assert rep["mismatches"] == [], name
        assert rep["ideals"] == ideals, name
        assert rep["abelian"] == rep["commutative"] == 2**n, name
        decided = rep["commutative"] if name == "G2" else rep["fc"]
        assert rep["spherical"] == decided == _spherical_ideals(family, n), name
    assert refused == ["A8", "B7", "B8", "C7", "C8", "D7", "D8", "E7", "E8"]
