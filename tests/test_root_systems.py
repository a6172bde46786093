import copy
import gc
import itertools
import json
import os
import pickle
import sys
import weakref
from collections import Counter

import pytest

from conftest import GOLDEN_DIR, get_rs, key_mask, plane_positive_systems
from liesph import affine as A
from liesph import ideals as I
from liesph import roots as R
from liesph import spherical as S
from liesph import weyl as W
from liesph.chevalley import build_chevalley
from liesph.errors import LiesphError, MismatchedSystems
from liesph.roots import (
    CartanType,
    PosRootSet,
    build_root_system,
    pairing,
    plane_parabolic,
    plane_solver,
    rank2_parabolic,
    root_string_p,
    root_sum,
)

ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2"]


def test_rank_constraints():
    for bad in [("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3)]:
        with pytest.raises(LiesphError):
            CartanType(*bad)
    assert CartanType.parse("E6").name == "E6"
    with pytest.raises(LiesphError):
        CartanType.parse("H3")
    with pytest.raises(LiesphError):
        CartanType.parse("Bx")
    assert CartanType.parse(" b3 ").name == "B3"
    # ranks int() would read: underscores, signs, spaces, non-ASCII digits
    for bad in ["A1_0", "A+2", "A 2", "A２", "A-2", "A"]:
        with pytest.raises(LiesphError, match="cannot parse Cartan type"):
            CartanType.parse(bad)


def test_positive_root_counts():
    # classical counts: n(n+1)/2, n^2, n(n-1), exceptional constants
    for name in ALL_TYPES + ["E6"]:
        rs = get_rs(name)
        assert rs.num_positive == rs.cartan_type.num_positive_roots()
    assert get_rs("G2").num_positive == 6
    assert get_rs("F4").num_positive == 24
    assert get_rs("B4").num_positive == 16
    assert get_rs("A4").num_positive == 10


def test_g2_positive_roots_and_lengths():
    g2 = get_rs("G2")
    assert [r.coords for r in g2.positive_roots] == [
        (1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2),
    ]
    # alpha1 short, alpha2 long
    assert g2.simple_root(1).norm2 == 2 and g2.simple_root(2).norm2 == 6
    assert g2.theta.coords == (3, 2) and g2.theta_s.coords == (2, 1)


def test_a1_trivial():
    a1 = get_rs("A1")
    assert [r.coords for r in a1.positive_roots] == [(1,)]
    assert a1.theta == a1.theta_s == a1.simple_root(1)


def test_f4_theta_lengths():
    f4 = get_rs("F4")
    assert f4.theta.is_long and f4.theta_s.is_short
    assert f4.theta.coords == (2, 3, 4, 2)


def test_roots_never_mixed_sign():
    for name in ALL_TYPES:
        for r in get_rs(name).roots:
            assert all(c >= 0 for c in r.coords) or all(c <= 0 for c in r.coords)


def test_pairing_examples():
    g2 = get_rs("G2")
    a1, a2 = g2.simple_root(1), g2.simple_root(2)
    for r in g2.roots:
        assert pairing(g2, r, r) == 2
    assert pairing(g2, a2, a1) == -3
    assert pairing(g2, a1, a2) == -1
    assert pairing(g2, g2.theta_s, g2.theta) == 1


def test_pairing_products_bounded():
    for name in ALL_TYPES:
        rs = get_rs(name)
        for a in rs.roots:
            for b in rs.roots:
                if b.index in (a.index, rs.neg_index(a.index)):
                    continue
                assert abs(pairing(rs, a, b) * pairing(rs, b, a)) in (0, 1, 2, 3)


def test_pairing_mismatched_systems():
    g2a, g2b = get_rs("G2"), build_root_system("G2")
    with pytest.raises(MismatchedSystems):
        pairing(g2a, g2a.simple_root(1), g2b.simple_root(1))


def test_root_sum_examples():
    g2 = get_rs("G2")
    a1, a2 = g2.simple_root(1), g2.simple_root(2)
    assert root_sum(g2, a1, a2).coords == (1, 1)
    assert root_sum(g2, a1, a1) is None
    assert root_sum(g2, g2.root_from_coords((3, 1)), a2) == g2.theta
    # a + (-a) is never reported as a root
    assert root_sum(g2, a1, -a1) is None


def test_negative_pairing_forces_root_sum():
    for name in ALL_TYPES:
        rs = get_rs(name)
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                if a.index != b.index and pairing(rs, a, b) < 0:
                    assert root_sum(rs, a, b) is not None


def test_root_sum_pairing_consistency():
    # a + b a root forces <a,b> <= 1 unless the lengths differ
    for name in ALL_TYPES:
        rs = get_rs(name)
        for a in rs.roots:
            for b in rs.roots:
                if root_sum(rs, a, b) is not None:
                    assert pairing(rs, a, b) <= 1 or a.norm2 != b.norm2


def test_root_strings():
    g2 = get_rs("G2")
    a1, a2 = g2.simple_root(1), g2.simple_root(2)
    assert root_string_p(g2, a1, a2) == 0
    assert root_string_p(g2, a1, g2.root_from_coords((2, 1))) == 2
    b2 = get_rs("B2")
    assert root_string_p(b2, b2.simple_root(2), b2.root_from_coords((1, 1))) == 1
    with pytest.raises(LiesphError):
        root_string_p(g2, a1, a1)
    with pytest.raises(LiesphError):
        root_string_p(g2, a1, -a1)


def test_root_string_intervals():
    # {k : b + k*a is a root} is an unbroken interval of length <= 4 (<= 3 outside G2)
    for name in ["A3", "B3", "C3", "F4", "G2"]:
        rs = get_rs(name)
        cap = 4 if name == "G2" else 3
        for a in rs.positive_roots:
            for b in rs.roots:
                if b.index in (a.index, rs.neg_index(a.index)):
                    continue
                ks = [
                    k
                    for k in range(-4, 5)
                    if tuple(b.coords[i] + k * a.coords[i] for i in range(rs.rank))
                    in rs.index_of
                ]
                assert ks == list(range(min(ks), max(ks) + 1))
                assert len(ks) <= cap


def test_theta_properties():
    for name in ALL_TYPES:
        rs = get_rs(name)
        for i in range(1, rs.rank + 1):
            assert root_sum(rs, rs.theta, rs.simple_root(i)) is None
        # theta_s is the highest short root
        shorts = [r for r in rs.positive_roots if r.norm2 == rs.short_norm2]
        assert rs.theta_s == max(shorts, key=lambda r: (r.height, r.coords))


def test_rank2_parabolic():
    g2 = get_rs("G2")
    members, tag = rank2_parabolic(g2, g2.simple_root(1), g2.simple_root(2))
    assert tag == "G2" and len(members) == 12
    b3 = get_rs("B3")
    members, tag = rank2_parabolic(b3, b3.simple_root(1), b3.simple_root(2))
    assert tag == "A2" and len(members) == 6
    # eps1 = a1+a2+a3, eps2 = a2+a3 in the Bourbaki B3 model
    e1 = b3.root_from_coords((1, 1, 1))
    e2 = b3.root_from_coords((0, 1, 1))
    members, tag = rank2_parabolic(b3, e1, e2)
    assert tag == "B2" and len(members) == 8
    # eps1 - eps2 and eps3 span an A1 x A1 plane (no other roots inside);
    # note span{eps1+eps2, eps1-eps2} would contain eps1, eps2 and be B2
    members, tag = rank2_parabolic(b3, b3.simple_root(1), b3.simple_root(3))
    assert tag == "A1xA1" and len(members) == 4
    members, tag = rank2_parabolic(b3, b3.root_from_coords((1, 2, 2)), b3.simple_root(1))
    assert tag == "B2" and len(members) == 8
    with pytest.raises(LiesphError):
        rank2_parabolic(g2, g2.theta, -g2.theta)


def _plane_oracle(rs, u, v):
    """plane_parabolic by rational solves: each member in the basis u, v for
    membership and level, and in every member pair for the bases."""
    solve = plane_solver(rs.roots[u[1]].coords, rs.roots[v[1]].coords)
    members = []
    for f, r in enumerate(rs.roots):
        sol = solve(r.coords)
        if sol is not None:
            level = sol[0] * u[0] + sol[1] * v[0]
            if level.denominator == 1:
                members.append((int(level), f))
    bases, psys = set(), set()
    for x, y in itertools.combinations(members, 2):
        in_basis = plane_solver(rs.roots[x[1]].coords, rs.roots[y[1]].coords)
        if in_basis is None:
            continue
        sols = [in_basis(rs.roots[f].coords) for _, f in members]
        if all(min(s, t) >= 0 or max(s, t) <= 0 for s, t in sols):
            bases.add(frozenset((x, y)))
            pos = frozenset(m for m, (s, t) in zip(members, sols) if s >= 0 and t >= 0)
            if all(l > 0 or (l == 0 and f < rs.num_positive) for l, f in pos):
                psys.add(pos)
    irreducible = any(
        rs.pairing_table[a[1]][b[1]] for a, b in itertools.combinations(members, 2)
        if b[1] != rs.neg_index(a[1])
    )
    return members, irreducible, frozenset((u, v)) in bases, sorted(key_mask(rs, p) for p in psys)


def test_plane_parabolic_against_rational_oracle():
    for name in ["A3", "B3", "C3", "G2"]:
        rs = get_rs(name)
        keys = [(0, f) for f in range(rs.num_positive)] + [(1, f) for f in range(len(rs.roots))]
        for u, v in itertools.combinations(keys, 2):
            if v[1] in (u[1], rs.neg_index(u[1])):
                continue
            members, irreducible, base = plane_parabolic(rs, u, v)
            masks = sorted(plane_positive_systems(rs, members))
            assert (members, irreducible, base, masks) == _plane_oracle(rs, u, v), (name, u, v)
            assert plane_parabolic(rs, v, u) is plane_parabolic(rs, u, v)


def _reference_plane_parabolic(rs, u, v):
    """plane_parabolic and the plane's positive systems, as one scan of every
    root per pair, unmemoized."""
    (lu, fu), (lv, fv) = (u, v) if u <= v else (v, u)
    a, b = rs.roots[fu].coords, rs.roots[fv].coords
    minors = ((a[k] * b[l] - a[l] * b[k], k, l)
              for k in range(rs.rank) for l in range(k + 1, rs.rank))
    det, k, l = next(m for m in minors if m[0])
    members, coeffs = [], []
    for f, r in enumerate(rs.roots):
        c = r.coords
        x = c[k] * b[l] - c[l] * b[k]
        y = a[k] * c[l] - a[l] * c[k]
        level, rest = divmod(x * lu + y * lv, det)
        if not rest and all(x * a[i] + y * b[i] == det * c[i] for i in range(rs.rank)):
            members.append((level, f))
            coeffs.append((x, y))
    base = all(x * y >= 0 for x, y in coeffs)
    npos = rs.num_positive
    psys = []
    for i, (xi, yi) in enumerate(coeffs):
        for xj, yj in coeffs[i + 1 :]:
            d = xi * yj - yi * xj
            if not d:
                continue
            pos = []
            for m, (x, y) in zip(members, coeffs):
                s, t = (x * yj - y * xj) * d, (xi * y - yi * x) * d
                if s * t < 0:
                    break
                if s > 0 or t > 0:
                    pos.append(m)
            else:
                if all(level > 0 or (level == 0 and f < npos) for level, f in pos):
                    psys.append(key_mask(rs, pos))
    return members, len(members) > 4, base, tuple(psys)


@pytest.mark.parametrize("name, swap", [
    *((n, False) for n in ("A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "F4", "G2")),
    *((n, True) for n in ("B2", "C2", "G2")),
])
def test_plane_parabolic_against_reference(name, swap):
    # a fresh system, so that every plane starts cold
    rs = build_root_system(name, swap=swap)
    keys = [(0, f) for f in range(rs.num_positive)]
    keys += [(level, f) for level in (1, 2) for f in range(len(rs.roots))]
    for u, v in itertools.combinations(keys, 2):
        if v[1] in (u[1], rs.neg_index(u[1])):
            continue
        members, irreducible, base = plane_parabolic(rs, u, v)
        got = (members, irreducible, base, plane_positive_systems(rs, members))
        assert got == _reference_plane_parabolic(rs, u, v), (u, v)
    with pytest.raises(LiesphError, match="linearly independent"):
        plane_parabolic(rs, (0, 0), (1, rs.neg_index(0)))


def test_swap_flag():
    b2s = get_rs("B2", swap=True)
    assert b2s.simple_root(1).norm2 == 2 and b2s.simple_root(2).norm2 == 4
    g2s = get_rs("G2", swap=True)
    assert g2s.simple_root(1).norm2 == 6 and g2s.simple_root(2).norm2 == 2
    assert g2s.num_positive == 6
    with pytest.raises(LiesphError):
        build_root_system("B3", swap=True)


def test_posrootset_basics():
    g2 = get_rs("G2")
    ps = g2.posrootset([g2.simple_root(1), g2.theta])
    assert len(ps) == 2 and g2.theta.index in ps
    assert ps.union(ps.complement()).mask == (1 << 6) - 1
    assert ps.issubset(PosRootSet((1 << 6) - 1, 6))
    with pytest.raises(LiesphError):
        PosRootSet(1 << 6, 6)
    with pytest.raises(MismatchedSystems):
        ps.union(PosRootSet(1, 4))


def test_serialization_goldens():
    for name in ["A2", "B2", "G2", "B3"]:
        with open(os.path.join(GOLDEN_DIR, f"rootsystem_{name}.json")) as fh:
            frozen = json.load(fh)
        assert get_rs(name).to_json_dict() == frozen


def _form(g, a, b):
    n = len(g)
    return sum(a[i] * g[i][j] * b[j] for i in range(n) for j in range(n))


def _reference_tables(rs):
    """The tables from the Gram matrix alone, one form per root pair, as the
    build made them before packed roots."""
    g, n = rs.gram, rs.rank
    simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    known, level = set(simples), list(simples)
    while level:
        nxt = []
        for beta in level:
            for alpha in simples:
                p, down = 0, tuple(b - a for b, a in zip(beta, alpha))
                while down in known:
                    p += 1
                    down = tuple(d - a for d, a in zip(down, alpha))
                if p - 2 * _form(g, beta, alpha) // _form(g, alpha, alpha) >= 1:
                    up = tuple(b + a for b, a in zip(beta, alpha))
                    if up not in known:
                        known.add(up)
                        nxt.append(up)
        level = nxt
    positives = sorted(known, key=lambda c: (sum(c), tuple(-x for x in c)))
    coords = positives + [tuple(-x for x in c) for c in positives]
    index_of = {c: i for i, c in enumerate(coords)}
    norm2 = [_form(g, c, c) for c in coords]
    pairing_table = [[2 * _form(g, a, b) // nb for b, nb in zip(coords, norm2)] for a in coords]

    def reflection(a):
        return tuple(
            index_of[tuple(x - pairing_table[j][a] * y for x, y in zip(c, coords[a]))]
            for j, c in enumerate(coords)
        )

    theta = max(range(len(positives)), key=lambda i: (sum(coords[i]), coords[i]))
    tables = {
        "norm2": norm2,
        "pairing_table": pairing_table,
        "sum_table": [[index_of.get(tuple(x + y for x, y in zip(a, b))) for b in coords]
                      for a in coords],
        "index_of": index_of,
    }
    # the simple reflections as root permutations, and s_0 on level-0 roots:
    # s_0(a) = s_theta(a) + <a, theta> delta
    simple_perms = [reflection(index_of[c]) for c in simples]
    s0 = list(zip((row[theta] for row in pairing_table), reflection(theta)))
    return tables, simple_perms, s0


TABLE_CASES = [
    *((f"A{n}", False) for n in range(1, 9)),
    *((f"{f}{n}", False) for f in "BC" for n in range(2, 9)),
    *((f"D{n}", False) for n in range(4, 9)),
    ("E6", False), ("E7", False), ("E8", False), ("F4", False), ("G2", False),
    ("B2", True), ("C2", True), ("G2", True),
]


@pytest.mark.parametrize("name, swap", TABLE_CASES,
                         ids=[name + "'" * swap for name, swap in TABLE_CASES])
def test_tables_match_per_pair_reference(name, swap):
    rs = build_root_system(name, swap=swap)
    tables, simple_perms, s0 = _reference_tables(rs)
    for attr, table in tables.items():
        assert getattr(rs, attr) == table, attr
    for i, perm in enumerate(simple_perms, 1):
        assert [W.apply_simple(rs, i, r).index for r in rs.roots] == list(perm), i
    assert [A.affine_apply_simple(rs, 0, A.AffineRoot(rs, f, 0)).key()
            for f in range(len(rs.roots))] == s0
    assert [rs.index_of[r.coords] for r in rs.roots] == list(range(len(rs.roots)))


def test_cartan_type_is_a_frozen_value():
    b3 = CartanType("B", 3)
    assert b3 == CartanType.parse("B3") and b3 != CartanType("C", 3)
    assert b3.__eq__(("B", 3)) is NotImplemented
    assert hash(b3) == hash(("B", 3))
    assert repr(b3) == "CartanType(family='B', rank=3)"
    for clone in (copy.copy(b3), copy.deepcopy(b3), pickle.loads(pickle.dumps(b3))):
        assert clone == b3 and clone is not b3
    with pytest.raises(AttributeError):
        b3.rank = 4
    with pytest.raises(AttributeError):
        del b3.family
    assert b3.rank == 3


# every table memoized on a root system, and the one memoized on an algebra
SYSTEM_MEMOS = [(R, "_plane_table"), (R, "_irreducible_planes"), (R, "_poset_tables"),
                (R, "_plane_parabolics"), (A, "_affine_codes"), (A, "_decompositions"),
                (I, "_code_ladders"), (W, "_irreducible_plane_masks"), (S, "_weight_index")]
ALGEBRA_MEMOS = [(S, "quartic_obstructions")]


def test_memoized_tables_are_built_once_per_owner():
    # two fresh B3 systems and their algebras; each builder runs once per
    # owner however often it is asked, and two owners never share a table
    owners = [build_root_system("B3") for _ in range(2)]
    algebras = [build_chevalley(rs) for rs in owners]
    assert all(not any("." in k for k in vars(owner)) for owner in owners + algebras)
    builds = Counter()
    codes = {getattr(m, n).__wrapped__.__code__: n for m, n in SYSTEM_MEMOS + ALGEBRA_MEMOS}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            builds[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        tables = {}
        for memos, pair in ((SYSTEM_MEMOS, owners), (ALGEBRA_MEMOS, algebras)):
            for module, name in memos:
                f = getattr(module, name)
                tables[name] = [f(owner) for owner in pair]
                for owner, table in zip(pair, tables[name]):
                    assert f(owner) is table, name
                    assert vars(owner)[f"{module.__name__}.{name}"] is table, name
    finally:
        sys.setprofile(None)
    assert builds == dict.fromkeys(codes.values(), 2)
    for name, (first, second) in tables.items():
        assert first is not second and first == second, name
    # a table lives as long as its owner and no longer
    gone = weakref.ref(owners[0])
    del owners, algebras, tables, pair, owner, table
    gc.collect()
    assert gone() is None
