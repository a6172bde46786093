import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from conftest import GOLDEN_DIR, get_algebra, get_rs
from liesph import chevalley as C
from liesph.errors import LiesphError
from liesph.roots import root_string_p


def test_sl2_relations():
    L = get_algebra("A1")
    e, f, h = L.e(0), L.e(1), L.h(1)
    assert C.bracket(L, e, f) == {2: 1}
    assert C.bracket(L, h, e) == {0: 2}
    assert C.bracket(L, h, f) == {1: -2}
    assert L.dim == 3


def test_dimensions():
    assert get_algebra("G2").dim == 14
    assert get_algebra("F4").dim == 52
    assert get_algebra("A2").dim == 8


def test_g2_structure_constant_magnitudes():
    g2 = get_rs("G2")
    L = get_algebra("G2")
    i_a1 = g2.root_from_coords((1, 0)).index
    assert abs(L.ntab[(i_a1, g2.root_from_coords((1, 1)).index)]) == 2
    assert abs(L.ntab[(i_a1, g2.root_from_coords((2, 1)).index)]) == 3


def test_magnitude_rule_all_pairs():
    for name in ["A2", "B2", "B3", "C3", "G2", "D4"]:
        rs = get_rs(name)
        L = get_algebra(name)
        for (i, j), n in L.ntab.items():
            assert abs(n) == root_string_p(rs, rs.roots[i], rs.roots[j]) + 1
            assert L.ntab[(j, i)] == -n


def test_bracket_properties():
    L = get_algebra("G2")
    g2 = L.rs
    rng = random.Random(1)
    vecs = [
        {rng.randrange(L.dim): rng.randint(-3, 3) for _ in range(3)} for _ in range(6)
    ]
    for x in vecs:
        assert C.bracket(L, x, x) == {}
        for y in vecs:
            xy = C.bracket(L, x, y)
            yx = C.bracket(L, y, x)
            assert {k: -v for k, v in xy.items()} == yx
    # [e_theta, e_beta] = 0 for every positive beta
    for b in range(g2.num_positive):
        assert C.bracket(L, L.e(g2.theta.index), L.e(b)) == {}


def test_cartan_brackets():
    for name in ["B2", "G2"]:
        rs = get_rs(name)
        L = get_algebra(name)
        for a in rs.roots:
            h_a = C.bracket(L, L.e(a.index), L.e(rs.neg_index(a.index)))
            # [h_a, e_a] = <a, a> e_a = 2 e_a
            back = C.bracket(L, h_a, L.e(a.index))
            assert back == {a.index: 2}
        for i in range(1, rs.rank + 1):
            for a in rs.roots:
                got = C.bracket(L, L.h(i), L.e(a.index))
                pair = rs.pairing_table[a.index][rs.simple_root(i).index]
                assert got == ({a.index: pair} if pair else {})


def test_jacobi_rank_le_3():
    for name in ["A2", "B2", "G2", "B3"]:
        L = get_algebra(name)
        for tri in itertools.combinations_with_replacement(range(L.dim), 3):
            assert C.jacobi_defect(L, *tri) == {}


def test_heights_single_roots():
    for name in ["A2", "B2", "B3", "F4", "G2"]:
        rs = get_rs(name)
        L = get_algebra(name)
        assert C.height(L, {rs.theta.index: 1}) == 2
    g2 = get_rs("G2")
    L = get_algebra("G2")
    assert C.height(L, {g2.root_from_coords((1, 0)).index: 1}) == 3
    assert C.height(L, {}) == 0
    with pytest.raises(LiesphError):
        C.height(L, {g2.neg_index(0): 1})


def test_heights_constant_on_length_classes():
    for name in ["B2", "C3", "G2", "A3"]:
        rs = get_rs(name)
        L = get_algebra(name)
        by_norm = {}
        for r in rs.positive_roots:
            by_norm.setdefault(r.norm2, set()).add(C.height(L, {r.index: 1}))
        assert all(len(v) == 1 for v in by_norm.values())


def test_g2_orthogonal_pair_height():
    g2 = get_rs("G2")
    L = get_algebra("G2")
    x = {g2.root_from_coords((0, 1)).index: 1, g2.root_from_coords((2, 1)).index: 1}
    assert C.height(L, x) == 4


def test_ad_power_vanishing():
    # ad(e_a)^4 = 0 for single root vectors outside G2; in G2 the short ones
    # reach exactly ad^3 != 0
    for name in ["A3", "B3", "C3", "F4"]:
        rs = get_rs(name)
        L = get_algebra(name)
        for r in rs.positive_roots:
            assert C.height(L, {r.index: 1}) <= 3
    g2 = get_rs("G2")
    L = get_algebra("G2")
    for r in g2.positive_roots:
        h = C.height(L, {r.index: 1})
        assert h == (3 if r.is_short else 2)


def test_exp_action_basics():
    L = get_algebra("G2")
    g2 = L.rs
    x = {g2.root_from_coords((1, 0)).index: Fraction(2), g2.theta.index: Fraction(1, 3)}
    a = g2.root_from_coords((1, 1))
    assert C.exp_root_action(L, a, 0, x) == x
    rng = random.Random(7)
    for _ in range(20):
        xi1 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        xi2 = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        one = C.exp_root_action(L, a, xi1, C.exp_root_action(L, a, xi2, x))
        two = C.exp_root_action(L, a, xi1 + xi2, x)
        assert one == two


def test_exp_action_is_automorphism():
    L = get_algebra("B2")
    rs = L.rs
    rng = random.Random(3)
    for _ in range(30):
        a = rng.choice(rs.roots)
        xi = Fraction(rng.randint(-4, 4))
        x = {rng.randrange(L.dim): rng.randint(-3, 3) for _ in range(2)}
        y = {rng.randrange(L.dim): rng.randint(-3, 3) for _ in range(2)}
        lhs = C.exp_root_action(L, a, xi, C.bracket(L, x, y))
        rhs = C.bracket(
            L, C.exp_root_action(L, a, xi, x), C.exp_root_action(L, a, xi, y)
        )
        assert lhs == rhs


def test_height_invariant_under_exp():
    for name in ["B2", "G2"]:
        rs = get_rs(name)
        L = get_algebra(name)
        rng = random.Random(11)
        for _ in range(25):
            a = rs.positive_roots[rng.randrange(rs.num_positive)]
            xi = Fraction(rng.randint(-3, 3))
            x = {rng.randrange(rs.num_positive): rng.randint(1, 5) for _ in range(2)}
            y = C.exp_root_action(L, a, xi, x)
            assert C.height(L, y) == C.height(L, x)


def test_sign_conventions_isomorphic():
    for name in ["B2", "G2", "C3"]:
        rs = get_rs(name)
        LA, LB = get_algebra(name, 1), get_algebra(name, -1)
        assert LA.ntab != LB.ntab
        for (i, j), n in LA.ntab.items():
            assert abs(LB.ntab[(i, j)]) == abs(n)
        rng = random.Random(5)
        for _ in range(50):
            x = {rng.randrange(rs.num_positive): rng.randint(1, 9) for _ in range(3)}
            assert C.height(LA, x) == C.height(LB, x)


def test_nilpotent_element_support():
    g2 = get_rs("G2")
    L = get_algebra("G2")
    zero = L.nilpotent({})
    assert len(C.support(zero)) == 0
    x = L.nilpotent({g2.theta: 5})
    assert [g2.roots[i].coords for i in C.support(x)] == [(3, 2)]
    y = L.nilpotent({g2.simple_root(1): 1, g2.theta: 5, g2.simple_root(2): 0})
    assert {g2.roots[i].coords for i in C.support(y)} == {(1, 0), (3, 2)}
    with pytest.raises(LiesphError):
        L.nilpotent({g2.neg_index(0): 1})
    assert C.height(L, x) == 2


def test_ad_matrix_shape():
    L = get_algebra("A2")
    mat = C.ad_matrix(L, {L.rs.theta.index: 1})
    assert len(mat) == L.dim and all(len(row) == L.dim for row in mat)
    nonzero_cols = {c for c in range(L.dim) for r in range(L.dim) if mat[r][c]}
    assert nonzero_cols  # theta acts nontrivially


def test_constants_golden():
    for name in ["A2", "G2"]:
        with open(os.path.join(GOLDEN_DIR, f"chevalley_{name}.json")) as fh:
            frozen = json.load(fh)
        assert get_algebra(name).export_constants() == frozen


# -- reference: the structure constants in Fraction arithmetic ----------------


def _reference_coroot_table(rs):
    table = []
    for r in rs.roots:
        d_r = Fraction(r.norm2, 2)
        coeffs = []
        for i in range(rs.rank):
            c = Fraction(r.coords[i] * rs.simple_norms[i]) / d_r
            assert c.denominator == 1
            coeffs.append(int(c))
        table.append(tuple(coeffs))
    return table


def _reference_structure_constants(rs, es_sign):
    """Extraspecial signs propagated through Jacobi and the rotation
    identity with Fraction values, frozen to ints at the end."""
    m = rs.num_positive
    neg = rs.neg_index
    norm2 = rs.norm2
    sum_table = rs.sum_table
    full = {}

    def lookup(i, j):
        val = full.get((i, j))
        if val is not None:
            return val
        s = sum_table[i][j]
        if s is None:
            return Fraction(0)
        assert not (i < m and j < m)
        if i >= m and j >= m:
            val = -lookup(neg(i), neg(j))
        elif i >= m:
            val = -lookup(j, i)
        elif s < m:
            val = -lookup(neg(j), s) * Fraction(norm2[s], norm2[i])
        else:
            val = -lookup(neg(i), neg(j))
        full[(i, j)] = val
        return val

    def store(i, j, val):
        val = Fraction(val)
        assert val.denominator == 1
        full[(i, j)] = val
        full[(j, i)] = -val

    for g in range(m):
        if rs.roots[g].height == 1:
            continue
        pairs = []
        for a in range(m):
            b = sum_table[g][neg(a)]
            if b is not None and b < m and a <= b:
                pairs.append((a, b))
        pairs.sort()
        x, y = pairs[0]
        store(x, y, es_sign * (root_string_p(rs, rs.roots[x], rs.roots[y]) + 1))
        if len(pairs) == 1:
            continue
        denom = lookup(g, neg(x))
        for a, b in pairs[1:]:
            t1 = Fraction(0)
            ax = sum_table[a][neg(x)]
            if ax is not None:
                t1 = lookup(neg(x), a) * lookup(ax, b)
            t3 = Fraction(0)
            bx = sum_table[b][neg(x)]
            if bx is not None:
                t3 = lookup(b, neg(x)) * lookup(bx, a)
            store(a, b, -(t1 + t3) / denom)

    out = {}
    for i in range(len(rs.roots)):
        for j in range(len(rs.roots)):
            if sum_table[i][j] is not None:
                val = lookup(i, j)
                assert val.denominator == 1 and val != 0
                out[(i, j)] = int(val)
    return out


CONSTANT_CASES = [(n, False) for n in ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                                        "D4", "D5", "E6", "E7", "E8", "F4", "G2",
                                        "A8", "B8", "C8", "D8"]]
CONSTANT_CASES += [(n, True) for n in ["B2", "C2", "G2"]]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name, swap", CONSTANT_CASES,
                         ids=[f"{n}{'-swap' if w else ''}" for n, w in CONSTANT_CASES])
def test_integer_constants_match_fraction_reference(name, swap, sign):
    rs = get_rs(name, swap)
    L = C.build_chevalley(rs, sign)
    assert L.ntab == _reference_structure_constants(rs, sign)
    assert L.coroot == _reference_coroot_table(rs)
    assert all(type(n) is int for n in L.ntab.values())


@pytest.mark.parametrize("name", ["B2", "C3", "F4"])
def test_doctored_norms_trip_the_exactness_guard(name):
    # squared norm 3 for every long root: the rotation identity and the
    # coroots then divide with a remainder
    from liesph.roots import build_root_system

    rs = build_root_system(name)
    rs.norm2 = [3 if n == rs.long_norm2 else n for n in rs.norm2]
    with pytest.raises(LiesphError, match="non-integral structure constant"):
        C.build_chevalley(rs)
    with pytest.raises(LiesphError, match="non-integral coroot coefficient"):
        C._coroot_table(rs)


def test_a_summing_pair_without_a_constant_trips_the_completeness_guard():
    # (1, 0) + (1, 2) is no root of B2; a sum table that says it is leaves
    # the pair without a constant, as no root triple holds it
    from liesph.roots import build_root_system

    rs = build_root_system("B2")
    i, j = rs.root_from_coords((1, 0)).index, rs.root_from_coords((1, 2)).index
    rs.sum_table[i][j] = rs.theta.index
    with pytest.raises(LiesphError, match="invalid structure constant"):
        C.build_chevalley(rs)
