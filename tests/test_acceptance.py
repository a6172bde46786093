"""Acceptance suite: one test per exit criterion, exact tolerances, with a
PASS line per criterion on success."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from conftest import get_algebra, get_rs
from liesph import affine as A
from liesph import chevalley as C
from liesph import ideals as I
from liesph import spherical as S
from liesph import weyl as W
from liesph.cli import _g2_report
from liesph.errors import WordCapExceeded
from liesph.roots import root_string_p

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]
IDEAL_COUNTS = {
    "A2": 5, "B2": 6, "G2": 8, "A3": 14, "B3": 20, "C3": 20, "D4": 50, "F4": 105,
}
SWEEP_TYPES = ["A3", "B3", "C3", "B4", "C4", "F4"]


def test_criterion_1_theorem1_exhaustive():
    total = 0
    for name in TYPES:
        rs = get_rs(name)
        rep = S.verify_theorem1(rs, get_algebra(name))
        assert rep["mismatches"] == [], (name, rep["mismatches"][:3])
        assert rep["elements"] == rs.cartan_type.weyl_order()
        total += rep["elements"]
    print(f"\nPASS criterion 1: theorem 1 exhaustive on {len(TYPES)} types, "
          f"{total} elements, zero mismatches")


def test_criterion_2_theorem2_exhaustive():
    total = 0
    for name in TYPES:
        rs = get_rs(name)
        ideals = I.enumerate_ideals(rs)
        assert {i.mask for i in ideals} == I.antichain_ideal_masks(rs), name
        if name in IDEAL_COUNTS:
            assert len(ideals) == IDEAL_COUNTS[name], name
        rep = I.verify_theorem2(rs, get_algebra(name))
        assert rep["mismatches"] == [], (name, rep["mismatches"][:3])
        total += rep["ideals"]
    print(f"\nPASS criterion 2: theorem 2 exhaustive, {total} ideals across "
          f"{len(TYPES)} types, counts cross-checked, zero mismatches")


def test_criterion_3_decider_equivalences():
    checked = overflowed = 0
    for name in TYPES:
        rs = get_rs(name)
        assert rs.cartan_type.weyl_order() <= 2000
        is_g2 = name == "G2"
        n_pairing = 0
        for e in W.enumerate_weyl(rs):
            fc_inv = W.is_fc_inv(e)
            comm_inv = W.is_commutative_inv(e)
            try:
                assert W.is_fc_def(e) == fc_inv
                assert W.is_commutative_def(e) == comm_inv
                checked += 1
            except WordCapExceeded:
                overflowed += 1
            if is_g2:
                ok = W.pairing_nonneg(rs, e.inv)
                n_pairing += ok
                assert ok == (e.length <= 4)
                assert fc_inv == (e.length <= 5)
            else:
                assert fc_inv == W.pairing_nonneg(rs, e.inv)
        if is_g2:
            assert n_pairing == 9
            assert sum(W.is_fc_inv(e) for e in W.enumerate_weyl(rs)) == 11
    print(f"\nPASS criterion 3: def = criterion deciders on {checked} elements "
          f"({overflowed} cap fallbacks), pairing criterion exact outside G2, "
          f"G2 gap 9 vs 11 reproduced")


@pytest.mark.parametrize("name", ["D5", "E6"])
def test_criterion_3_word_oracle_on_random_words(name):
    # criterion 3's definition-based oracle where it does not enumerate W:
    # seeded random words of up to 30 letters, under the default word cap
    rs = get_rs(name)
    rng = random.Random(f"word-oracle-{name}")
    fc = 0
    for _ in range(300):
        e = W.from_word(rs, [rng.randint(1, rs.rank) for _ in range(rng.randint(0, 30))])
        assert W.is_fc_def(e) == W.is_fc_inv(e), e.word
        assert W.is_commutative_def(e) == W.is_commutative_inv(e), e.word
        fc += W.is_fc_inv(e)
    assert 0 < fc < 300


def test_criterion_4_negative_pair_quartic():
    # The negative-pairing lemma carries the standing non-G2 hypothesis: the
    # two root spaces generate an A2 or C2 subalgebra with e_a + e_b principal
    # in it.  In G2 the short-short span is not a subalgebra and the claim is
    # false there, so G2 is checked against its exact boundary instead.
    pairs = 0
    for name in TYPES:
        if name == "G2":
            continue
        rs = get_rs(name)
        L = get_algebra(name)
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                if a.index < b.index and rs.pairing_table[a.index][b.index] < 0:
                    assert C.height(L, {a.index: 1, b.index: 1}) >= 4, (name, a, b)
                    pairs += 1
    g2 = get_rs("G2")
    L2 = get_algebra("G2")
    neg_pairs = [
        (a, b)
        for a in g2.positive_roots
        for b in g2.positive_roots
        if a.index < b.index and g2.pairing_table[a.index][b.index] < 0
    ]
    exceptions = [
        (a.coords, b.coords)
        for a, b in neg_pairs
        if C.height(L2, {a.index: 1, b.index: 1}) < 4
    ]
    assert exceptions == [((1, 0), (1, 1))]  # the short-short pair, and only it
    assert C.height(L2, {g2.root_from_coords((1, 0)).index: 1,
                         g2.root_from_coords((1, 1)).index: 1}) == 3
    print(f"\nPASS criterion 4: ad(e_a + e_b)^4 != 0 for all {pairs} "
          f"negative-pairing pairs outside G2; G2 exception is exactly the "
          f"short-short pair (height 3)")


def test_criterion_5_quadruple_sweep():
    rep = S.verify_lemma_quadruples(get_rs("A3"))
    assert rep["witnesses"] == 0 and rep["violations"] == []
    counts = {}
    for name in SWEEP_TYPES[1:]:
        rep = S.verify_lemma_quadruples(get_rs(name))
        assert rep["violations"] == [], (name, rep["violations"][:3])
        counts[name] = rep["witnesses"]
        if name == "F4":
            assert rep["f4_long_example_found"]
    print(f"\nPASS criterion 5: quadruple sweep clean; A3 empty, witnesses {counts}, "
          f"F4 long-member configuration present verbatim")


def test_criterion_6_chevalley_integrity():
    rng = random.Random(2024)
    cases = 0
    for name in TYPES:
        rs = get_rs(name)
        LA = get_algebra(name, 1)
        LB = get_algebra(name, -1)
        for (i, j), n in LA.ntab.items():
            assert abs(n) == root_string_p(rs, rs.roots[i], rs.roots[j]) + 1
        assert rs.rank <= 4
        for tri in itertools.combinations_with_replacement(range(LA.dim), 3):
            assert C.jacobi_defect(LA, *tri) == {}
        for _ in range(100):
            size = rng.randint(1, 4)
            x = {rng.randrange(rs.num_positive): rng.randint(1, 9) for _ in range(size)}
            hA = C.height(LA, x)
            assert hA == C.height(LB, x)
            a = rs.positive_roots[rng.randrange(rs.num_positive)]
            xi = Fraction(rng.randint(-3, 3))
            assert C.height(LA, C.exp_root_action(LA, a, xi, x)) == hA
            cases += 1
    print(f"\nPASS criterion 6: |N| = p+1 and Jacobi exact on all basis triples "
          f"(ranks <= 4); heights invariant across sign conventions and "
          f"one-parameter actions on {cases} randomized cases")


def test_criterion_7_affine_encoding_round_trip():
    total = 0
    for name in TYPES:
        rs = get_rs(name)
        L = get_algebra(name)
        for ideal in I.enumerate_ideals(rs):
            Shat = I.psi_hat(rs, ideal)
            w = I.w_of_ideal(rs, ideal)
            assert A.affine_inversions(w) == Shat
            assert I.is_abelian(rs, ideal) == A.is_commutative_affine(Shat)
            if S.is_spherical_subspace(L, ideal):
                assert len(I._layers(rs, ideal.mask)[0]) <= 2  # Psi^(3) is empty
            total += 1
    print(f"\nPASS criterion 7: affine encoding round trip exact on {total} ideals; "
          f"abelian = commutative; spherical ideals have no third layer")


def test_criterion_8_g2_units():
    rep = _g2_report(get_rs("G2"))
    failed = [c["name"] for c in rep["checks"] if not c["ok"]]
    assert failed == []
    names = {c["name"] for c in rep["checks"]}
    assert {
        "orthogonal_pair_height_4",
        "one_parameter_coefficients",
        "degeneration_reaches_e_a1_plus_e_theta",
        "degenerated_element_not_spherical",
        "s2_conjugates_case_iii_to_case_ii",
    } <= names
    print(f"\nPASS criterion 8: all {len(rep['checks'])} G2 unit checks hold")


def test_criterion_9_determinism():
    one = json.dumps(S.verify_theorem1(get_rs("B3"), get_algebra("B3")), sort_keys=True)
    two = json.dumps(S.verify_theorem1(get_rs("B3"), get_algebra("B3")), sort_keys=True)
    assert one == two
    g1 = S.generic_height(get_algebra("G2"), get_rs("G2").posrootset([get_rs("G2").theta]), seed=9)
    g2_ = S.generic_height(get_algebra("G2"), get_rs("G2").posrootset([get_rs("G2").theta]), seed=9)
    assert g1 == g2_
    f1 = S.orbit_fingerprint(get_algebra("A2"), get_rs("A2").posrootset([0, 1, 2]), seed=5)
    f2 = S.orbit_fingerprint(get_algebra("A2"), get_rs("A2").posrootset([0, 1, 2]), seed=5)
    assert f1 == f2
    print("\nPASS criterion 9: repeated runs with fixed seed are identical")
