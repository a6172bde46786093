import random

import pytest

from conftest import get_algebra, get_rs, reference_irreducible_planes, reference_is_biconvex_affine
from liesph import affine as A
from liesph import ideals as I
from liesph.chevalley import build_chevalley
from liesph.errors import LiesphError
from liesph.roots import PosRootSet, has_summing_pair, iter_bits
from liesph.spherical import is_spherical_subspace

IDEAL_COUNTS = {
    "A1": 2, "A2": 5, "B2": 6, "G2": 8, "A3": 14, "B3": 20, "C3": 20,
    "A4": 42, "B4": 70, "C4": 70, "D4": 50, "F4": 105,
}


def test_root_poset():
    g2 = get_rs("G2")
    a1, a2 = g2.simple_root(1), g2.simple_root(2)
    assert I.root_poset_leq(g2, a1, a1)
    assert I.root_poset_leq(g2, a1, g2.theta)
    assert not I.root_poset_leq(g2, a1, a2)
    assert not I.root_poset_leq(g2, g2.theta, a1)


def test_upset_equals_sum_closure():
    # up-sets of the root poset are exactly the sets closed under adding
    # arbitrary positive roots
    for name in ["A2", "B2", "G2"]:
        rs = get_rs(name)
        up = I._poset_tables(rs)
        for m in range(1 << rs.num_positive):
            upward = all(up[i] & ~m == 0 for i in range(rs.num_positive) if m >> i & 1)
            assert upward == _reference_is_combinatorial_ideal(rs, m)
            assert upward == I.is_combinatorial_ideal(rs, PosRootSet(m, rs.num_positive))


@pytest.mark.parametrize("name", ["A4", "B3", "C4", "D4", "F4", "G2", "E6"])
def test_poset_mask_deciders_match_the_pair_scans(name):
    # is_combinatorial_ideal and minimal_generators read the up-set masks;
    # the scans over every (member, positive root) and (member, member) pair
    # are the references, on every ideal and on seeded random masks: each
    # random mask, its up-closure, and that closure less one member
    rs = get_rs(name)
    npos = rs.num_positive
    up = I._poset_tables(rs)
    rng = random.Random(f"poset-{name}")
    masks = [ideal.mask for ideal in I.enumerate_ideals(rs)]
    for _ in range(1000):
        density = rng.random()
        m = sum(1 << i for i in range(npos) if rng.random() < density)
        closure = 0
        for i in iter_bits(m):
            closure |= up[i]
        masks += [m, closure, closure & ~(1 << rng.randrange(npos))]
    for m in masks:
        ps = PosRootSet(m, npos)
        assert I.is_combinatorial_ideal(rs, ps) == _reference_is_combinatorial_ideal(rs, m), m
        assert I.minimal_generators(rs, ps) == _reference_minimal_generators(rs, m), m


def test_ideal_counts():
    for name, count in IDEAL_COUNTS.items():
        ideals = I.enumerate_ideals(get_rs(name))
        assert len(ideals) == count, name
        masks = [i.mask for i in ideals]
        assert len(set(masks)) == count
        assert masks == sorted(masks, key=lambda m: (bin(m).count("1"), m))


def test_antichain_cross_check():
    for name in IDEAL_COUNTS:
        rs = get_rs(name)
        assert {i.mask for i in I.enumerate_ideals(rs)} == I.antichain_ideal_masks(rs)


def test_empty_and_full_present():
    for name in ["A2", "B2", "G2", "F4"]:
        rs = get_rs(name)
        masks = {i.mask for i in I.enumerate_ideals(rs)}
        assert 0 in masks and (1 << rs.num_positive) - 1 in masks


def test_ideal_from_generators():
    g2 = get_rs("G2")
    psi0 = I.ideal_from_generators(g2, [g2.root_from_coords((2, 1))])
    assert {g2.roots[i].coords for i in psi0} == {(2, 1), (3, 1), (3, 2)}
    assert I.minimal_generators(g2, psi0) == [g2.root_from_coords((2, 1)).index]
    assert I.make_ideal(g2, psi0) is psi0
    with pytest.raises(LiesphError):
        I.make_ideal(g2, g2.posrootset([g2.simple_root(1)]))
    with pytest.raises(LiesphError):
        I.psi_hat(g2, g2.posrootset([g2.simple_root(1)]))


def test_is_abelian():
    g2 = get_rs("G2")
    psi0 = I.ideal_from_generators(g2, [g2.root_from_coords((2, 1))])
    assert I.is_abelian(g2, psi0)
    assert I.is_abelian(g2, g2.posrootset([g2.theta]))
    b2 = get_rs("B2")
    assert not I.is_abelian(b2, PosRootSet((1 << 4) - 1, 4))


# the long simple roots of each type (all simple roots when simply laced)
LONG_SIMPLE = {"G2": 1, "B3": 2, "C3": 1, "B4": 3, "C4": 1, "B5": 4, "C5": 1,
               "D4": 4, "D5": 5, "F4": 2, "A5": 5, "E6": 6}


@pytest.mark.parametrize("name", LONG_SIMPLE)
def test_maximal_abelian_ideals_are_as_many_as_long_simple_roots(name):
    # Panyushev, "Abelian ideals of a Borel subalgebra and long positive
    # roots" (IMRN 2003)
    rs = get_rs(name)
    abelian = [J.mask for J in I.enumerate_ideals(rs) if I.is_abelian(rs, J)]
    maximal = [m for m in abelian if not any(m != o and m & o == m for o in abelian)]
    long_simple = [i for i in range(1, rs.rank + 1) if rs.simple_root(i).is_long]
    assert len(maximal) == len(long_simple) == LONG_SIMPLE[name]


def test_layers():
    b2 = get_rs("B2")
    layers = [sorted(b2.roots[i].coords for i in iter_bits(l)) for l in I._layers(b2, 0b1111)[0]]
    assert layers == [
        [(0, 1), (1, 0), (1, 1), (1, 2)],
        [(1, 1), (1, 2)],
        [(1, 2)],
    ]
    # layers nest and stay inside the ideal
    for name in ["B2", "G2", "B3", "C3"]:
        rs = get_rs(name)
        for ideal in I.enumerate_ideals(rs):
            layers = I._layers(rs, ideal.mask)[0]
            assert layers[0] == ideal.mask
            prev = ideal.mask
            for layer in layers:
                assert layer & ~prev == 0
                prev = layer
            assert I.is_abelian(rs, ideal) == (len(layers) <= 1)
    assert I._layers(b2, 0) == ([0], set())  # the empty ideal: one empty layer, no codes


def test_psi_hat_examples():
    g2 = get_rs("G2")
    th = I.ideal_from_generators(g2, [g2.theta])
    S_th = I.psi_hat(g2, th)
    assert S_th.to_json_list() == [{"level": 1, "coords": [-3, -2]}]
    assert I.w_of_ideal(g2, th).word == (0,)

    psi0 = I.ideal_from_generators(g2, [g2.root_from_coords((2, 1))])
    S0 = I.psi_hat(g2, psi0)
    assert {(r.level, r.finite.coords) for r in S0} == {
        (1, (-2, -1)), (1, (-3, -1)), (1, (-3, -2)),
    }

    b2 = get_rs("B2")
    Sf = I.psi_hat(b2, PosRootSet((1 << 4) - 1, 4))
    assert {(r.level, r.finite.coords) for r in Sf} == {
        (1, (-1, 0)), (1, (0, -1)), (1, (-1, -1)), (1, (-1, -2)),
        (2, (-1, -1)), (2, (-1, -2)), (3, (-1, -2)),
    }


def test_round_trip_all_ideals():
    # the encoding passes the closure reference, not the peel that builds
    # w_I, and the word of w_I has it as its inversion set when rebuilt
    for name in ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]:
        rs = get_rs(name)
        for ideal in I.enumerate_ideals(rs):
            S = I.psi_hat(rs, ideal)
            assert reference_is_biconvex_affine(S), ideal
            w = I.w_of_ideal(rs, ideal)
            assert A.affine_inversions(w) == S
            assert A.AffineWeylWord(rs, w.word).inv_keys == S.keys
            assert w.length == len(S)


def test_pairing_transfer():
    # all pairings nonnegative on the ideal iff nonnegative on its encoding
    from liesph import weyl as W

    for name in ["B2", "G2", "B3"]:
        rs = get_rs(name)
        for ideal in I.enumerate_ideals(rs):
            S = I.psi_hat(rs, ideal)
            finite_ok = W.pairing_nonneg(rs, ideal)
            affine_ok = all(
                A.affine_pairing(a, b) >= 0 for a in S for b in S
            )
            assert finite_ok == affine_ok


def test_verify_theorem2_small():
    for name in ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]:
        rep = I.verify_theorem2(get_rs(name))
        assert rep["mismatches"] == [], name
        assert rep["ideals"] == IDEAL_COUNTS[name]
    g2_rep = I.verify_theorem2(get_rs("G2"))
    assert g2_rep["spherical"] == 4 and g2_rep["abelian"] == 4
    a2_rep = I.verify_theorem2(get_rs("A2"))
    assert a2_rep["spherical"] == a2_rep["abelian"]


def test_g2_spherical_ideals_inside_psi0():
    g2 = get_rs("G2")
    L = get_algebra("G2")
    psi0 = I.ideal_from_generators(g2, [g2.root_from_coords((2, 1))])
    for ideal in I.enumerate_ideals(g2):
        assert is_spherical_subspace(L, ideal) == ideal.issubset(psi0)


def test_maximal_spherical_ideals():
    g2 = get_rs("G2")
    out = I.maximal_spherical_ideals(I.ideal_atlas(g2))
    assert out == [sorted([[2, 1], [3, 1], [3, 2]])]
    b2 = get_rs("B2")
    assert len(I.maximal_spherical_ideals(I.ideal_atlas(b2))) >= 1


def test_ideal_atlas_records():
    b2 = get_rs("B2")
    records = I.ideal_atlas(b2)
    assert len(records) == 6
    for rec in records:
        assert set(rec) == {
            "generators", "members", "layers", "psi_hat", "w_word",
            "abelian", "commutative", "fc", "spherical",
        }
        assert rec["abelian"] == rec["commutative"]
        assert rec["fc"] == rec["spherical"]  # doubly laced


# -- references: the pair scans the up-set masks replaced --------------------


def _reference_is_combinatorial_ideal(rs, mask):
    """Every member plus any positive root, when a root, is a member."""
    for i in iter_bits(mask):
        for b in range(rs.num_positive):
            s = rs.sum_table[i][b]
            if s is not None and not mask >> s & 1:
                return False
    return True


def _reference_minimal_generators(rs, mask):
    """The members strictly above no other member, over every pair."""
    up = I._poset_tables(rs)
    members = list(iter_bits(mask))
    return [i for i in members if not any(j != i and up[j] >> i & 1 for j in members)]


# -- reference: the layers by rescanning, one layer at a time ---------------


def _reference_layers(rs, mask):
    """Psi^(k) = (Psi^(k-1) + Psi) cap Phi^+, each layer scanned against
    every member of the ideal."""
    out = [mask]
    cur = mask
    members = list(iter_bits(mask))
    while cur:
        nxt = 0
        for a in iter_bits(cur):
            row = rs.sum_table[a]
            for b in members:
                s = row[b]
                if s is not None:
                    nxt |= 1 << s
        if not nxt:
            break
        out.append(nxt)
        cur = nxt
    return out


def _check_encodings(rs):
    """Layers equal the rescanning reference; psi_hat equals the set the
    validating constructor builds from its keys; and the element built from
    it equals the one ``AffineWeylWord`` builds from its word."""
    npos = rs.num_positive
    for ideal in I.enumerate_ideals(rs):
        layers = I._layers(rs, ideal.mask)[0]
        assert layers == _reference_layers(rs, ideal.mask), ideal
        S = I.psi_hat(rs, ideal)
        keys = [(k, i + npos) for k, layer in enumerate(layers, start=1) for i in iter_bits(layer)]
        assert S == A.AffineRootSet(rs, keys) and S.keys == frozenset(keys)
        w = A.element_from_biconvex_affine(S)
        want = A.AffineWeylWord(rs, w.word)
        assert (w.word, w.inv_keys, w.canonical) == (want.word, want.inv_keys, want.canonical)


ENCODING_CASES = [(n, False) for n in ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5",
                                        "C3", "C4", "D4", "D5", "F4", "G2", "E6"]]
ENCODING_CASES += [(n, True) for n in ["B2", "C2", "G2"]]


@pytest.mark.parametrize("name, swap", ENCODING_CASES,
                         ids=[f"{n}{'-swap' if w else ''}" for n, w in ENCODING_CASES])
def test_encodings_match_references(name, swap):
    _check_encodings(get_rs(name, swap))


@pytest.mark.slow
def test_encodings_match_references_e7():
    _check_encodings(get_rs("E7"))


def test_round_trip_check_catches_a_wrong_peel(monkeypatch, capsys):
    # a peel that drops a letter must not pass as the element, finite or
    # affine, and verify theorem2 reports it as an encoding mismatch: every
    # reconstruction resolves the code peel in the affine module alone
    import json

    from liesph import weyl as W
    from liesph.cli import main

    peel = A._peel_codes

    def drop_first_letter(rs, codes, start):
        word, img = peel(rs, codes, start)
        return word[1:], img

    monkeypatch.setattr(A, "_peel_codes", drop_first_letter)
    b2 = get_rs("B2")
    with pytest.raises(LiesphError, match="peeling failed to reproduce the input set"):
        W.element_from_biconvex(b2, PosRootSet(0b1111, 4))
    S = I.psi_hat(b2, PosRootSet(0b1111, 4))
    with pytest.raises(LiesphError, match="peeling failed to reproduce the input set"):
        A.element_from_biconvex_affine(S)
    assert main(["verify", "theorem2", "--type", "B2"]) == 1
    report = json.loads(capsys.readouterr().out)
    reasons = [m.get("reason") for m in report["mismatches"]]
    assert reasons == ["affine encoding: peeling failed to reproduce the input set"] * 5


def _check_layer_path(rs, L, records=None):
    """The per-ideal path against the public deciders on the key set: the
    depth-built codes are psi_hat's keys, the code peel gives
    element_from_biconvex_affine's word and images, and the layer-mask fc
    (_is_fc_by_layers) and is_abelian are is_fc_affine and has_summing_pair
    on the members, the abelian flag also is_commutative_affine.  Each of
    the atlas records, when given, is the one the key-set route builds: its
    w_word the word of element_from_biconvex_affine (so the checked peel's),
    its generators by the pair scan."""
    span, packed = A._affine_codes(rs)[0], rs.packed
    coords = [list(r.coords) for r in rs.roots]
    ideals = I.enumerate_ideals(rs)
    for ideal, record in zip(ideals, records or [None] * len(ideals), strict=True):
        layers, codes = I._layers(rs, ideal.mask)
        S = I.psi_hat(rs, ideal)
        assert codes == {level * span + packed[f] for level, f in S.keys}
        word, img = A._peel_codes(rs, codes)
        w = A.element_from_biconvex_affine(S)
        assert word == w.word and tuple(A._decode(rs, span, c) for c in img) == w.canonical
        flags = I._is_fc_by_layers(rs, layers), I.is_abelian(rs, ideal)
        fc, comm = A.is_fc_affine(S), A.is_commutative_affine(S)
        abelian = not has_summing_pair(rs, ideal.indices())
        assert flags == (fc, abelian) and comm == abelian, ideal
        if record is not None:
            minimal = _reference_minimal_generators(rs, ideal.mask)
            assert record == {
                "generators": [coords[i] for i in minimal],
                "members": [coords[i] for i in ideal],
                "layers": [[coords[i] for i in iter_bits(layer)] for layer in layers],
                "psi_hat": S.to_json_list(),
                "w_word": list(w.word),
                "abelian": abelian,
                "commutative": comm,
                "fc": fc,
                "spherical": is_spherical_subspace(L, ideal),
            }, ideal


LAYER_PATH_CASES = [(n, False) for n in [
    "A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "B6", "C2", "C3", "C4", "C5",
    "C6", "D4", "D5", "D6", "E6", "E7", "F4", "G2"]]
LAYER_PATH_CASES += [(n, True) for n in ["B2", "C2", "G2"]]


@pytest.mark.parametrize("name, swap", LAYER_PATH_CASES,
                         ids=[f"{n}{'-swap' if w else ''}" for n, w in LAYER_PATH_CASES])
def test_layer_path_matches_the_key_set_deciders(name, swap):
    rs = get_rs(name, swap)
    L = build_chevalley(rs)
    _check_layer_path(rs, L, I.ideal_atlas(rs, L))


@pytest.mark.slow
def test_layer_path_matches_the_key_set_deciders_e8():
    # no atlas: as a list it would hold all 25 080 encodings at once
    _check_layer_path(get_rs("E8"), get_algebra("E8"))


# -- the ideal tree against the per-ideal path --------------------------------


def _per_ideal_states(rs, ideal_list):
    """``_ideal_tree``'s tuples by the per-ideal path: each ideal layered
    from scratch and its whole encoding peeled from the identity."""
    for members in ideal_list:
        layers, codes = I._layers(rs, members.mask)
        try:
            img, error = A._checked_peel(rs, codes)[1], None
        except LiesphError as exc:
            img, error = None, exc
        yield members, None, layers, img, error


def _tree_parent(rs, mask):
    """The parent of a nonempty ideal: less its highest-index member of
    least height, the one enumerate_ideals adds last."""
    heights = [r.height for r in rs.positive_roots]
    low = min(heights[i] for i in iter_bits(mask))
    return mask ^ 1 << max(i for i in iter_bits(mask) if heights[i] == low)


def _check_tree(rs, L, monkeypatch):
    """The carried depths give _layers' masks and codes, the carried layers
    are those masks, the carried final images are the full peel's from the
    identity, and the theorem 2 report is the per-ideal path's."""
    ladders, masks = I._code_ladders(rs), set()
    for members, depth, layers, img, error in I._ideal_tree(rs, I.enumerate_ideals(rs)):
        mask = members.mask
        assert not mask or _tree_parent(rs, mask) in masks
        masks.add(mask)
        want_layers, codes = I._layers(rs, mask)
        by_depth = [sum(1 << g for g in iter_bits(mask) if depth[g] >= k)
                    for k in range(1, max(depth) + 1)]
        assert (by_depth or [0], layers) == (want_layers, want_layers), members
        assert {c for g in iter_bits(mask) for c in ladders[g][:depth[g]]} == codes, members
        assert error is None and img == A._peel_codes(rs, codes)[1], members
    want = I.verify_theorem2(rs, L)
    monkeypatch.setattr(I, "_ideal_tree", _per_ideal_states)
    assert I.verify_theorem2(rs, L) == want


TREE_CASES = ["G2", "B4", "C4", "F4", "E6", "E7"]


@pytest.mark.parametrize("name", TREE_CASES)
def test_ideal_tree_matches_the_per_ideal_path(monkeypatch, name):
    _check_tree(get_rs(name), get_algebra(name), monkeypatch)


@pytest.mark.slow
def test_ideal_tree_matches_the_per_ideal_path_e8(monkeypatch):
    _check_tree(get_rs("E8"), get_algebra("E8"), monkeypatch)


def test_a_failed_parent_leaves_its_children_checked_from_the_identity(monkeypatch):
    # a bad code in one mid-size ideal's encoding is that ideal's mismatch
    # alone: its children peel their whole encodings from the identity, and
    # their own children carry from them again
    rs, L = get_rs("B3"), get_algebra("B3")
    ideal_list = I.enumerate_ideals(rs)
    parent = {J.mask: _tree_parent(rs, J.mask) for J in ideal_list if J.mask}
    below = {}
    for child, p in parent.items():
        below.setdefault(p, set()).add(child)
    bad = next(J.mask for J in ideal_list if J.mask.bit_count() >= 3
               and any(c in below for c in below.get(J.mask, ())))
    children = below[bad]
    grandchildren = set().union(*(below.get(c, set()) for c in children))
    deepen, peel, peels = I._deepen, A._peel_codes, []

    def add_a_code_of_the_parent(rs, mask, *state):
        codes = deepen(rs, mask, *state)
        if mask == bad:  # already inverted by the element the peel starts from
            codes.add(min(I._layers(rs, parent[bad])[1]))
        return codes

    def record(rs, codes, start):
        peels.append((set(codes), start))
        return peel(rs, codes, start)

    monkeypatch.setattr(I, "_deepen", add_a_code_of_the_parent)
    monkeypatch.setattr(A, "_peel_codes", record)
    states = {J.mask: (img, error) for J, _, _, img, error in I._ideal_tree(rs, ideal_list)}
    assert len(peels) == len(ideal_list)
    assert states[bad][0] is None and isinstance(states[bad][1], LiesphError)
    for mask, (img, error) in states.items():
        codes = I._layers(rs, mask)[1]
        if mask != bad:
            assert error is None and img == peel(rs, set(codes))[1], mask
        if mask in children:
            assert (codes, None) in peels, mask
    # the grandchildren carry: no peel from the identity holds their encodings
    for mask in grandchildren:
        assert (I._layers(rs, mask)[1], None) not in peels, mask
    rep = I.verify_theorem2(rs, L)
    bad_coords = [list(rs.roots[i].coords) for i in iter_bits(bad)]
    assert rep["mismatches"] == [{
        "members": bad_coords,
        "reason": "affine encoding: input set is not biconvex in the affine positive system"}]


def _bucket_coords(rs, buckets):
    return [sorted(rs.roots[q].coords for q in iter_bits(b)) for b in buckets]


def test_plane_height_buckets_by_hand():
    # a rank-2 type is one irreducible plane; its buckets are the positive
    # roots by height, and the highest root keys it
    for name, swap, want in [
        ("A2", False, [[(0, 1), (1, 0)], [(1, 1)]]),
        ("B2", False, [[(0, 1), (1, 0)], [(1, 1)], [(1, 2)]]),
        ("G2", False, [[(0, 1), (1, 0)], [(1, 1)], [(2, 1)], [(3, 1)], [(3, 2)]]),
        ("G2", True, [[(0, 1), (1, 0)], [(1, 1)], [(1, 2)], [(1, 3)], [(2, 3)]]),
    ]:
        rs = get_rs(name, swap)
        planes = I._irreducible_planes(rs)
        assert [len(p) for p in planes] == [0] * (rs.num_positive - 1) + [1]
        assert _bucket_coords(rs, planes[rs.theta.index][0]) == [sorted(b) for b in want]
    # inside B3 (e1 - e2, e2 - e3, e3), the planes topped by e1 + e2: the B2
    # plane span{e1, e2}, whose base e1 - e2, e2 is not made of simple roots
    # of B3, and two A2 planes
    b3 = get_rs("B3")
    top = b3.root_from_coords((1, 2, 2)).index
    got = [_bucket_coords(b3, buckets) for buckets in I._irreducible_planes(b3)[top]]
    assert sorted(got) == [
        [[(0, 1, 0), (1, 1, 2)], [(1, 2, 2)]],  # e2 - e3, e1 + e3
        [[(0, 1, 1), (1, 0, 0)], [(1, 1, 1)], [(1, 2, 2)]],  # e2, e1 - e2; e1
        [[(0, 1, 2), (1, 1, 0)], [(1, 2, 2)]],  # e2 + e3, e1 - e3
    ]


# every type up to rank 8 but E8, which runs in the slow tests, and the
# swapped rank-2 labellings
PLANE_CASES = [(f"{f}{n}", False) for f, least in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
               for n in range(least, 9)]
PLANE_CASES += [(n, False) for n in ("E6", "E7", "F4", "G2")]
PLANE_CASES += [(n, True) for n in ("B2", "C2", "G2")]


@pytest.mark.parametrize("name, swap", PLANE_CASES,
                         ids=[f"{n}{'-swap' if w else ''}" for n, w in PLANE_CASES])
def test_planes_from_summing_pairs_match_the_plane_table(name, swap):
    # the planes built from the positive summing pairs are the table's
    # irreducible planes, bucket for bucket and in the same order
    rs = get_rs(name, swap)
    assert I._irreducible_planes(rs) == reference_irreducible_planes(rs)


@pytest.mark.slow
def test_planes_from_summing_pairs_match_the_plane_table_e8():
    rs = get_rs("E8")
    planes = I._irreducible_planes(rs)
    assert sum(map(len, planes)) == 1120
    assert planes == reference_irreducible_planes(rs)
