import pytest

from conftest import get_rs, is_biclosed, is_biconvex, is_fc_by_positive_systems, reference_pairing_nonneg
from liesph import affine as A
from liesph import ideals as I
from liesph import weyl as W
from liesph.errors import LiesphError, MismatchedSystems
from liesph.roots import PosRootSet, has_summing_pair, iter_bits, plane_parabolic


def test_apply_simple():
    g2 = get_rs("G2")
    a1, a2 = g2.simple_root(1), g2.simple_root(2)
    assert W.apply_simple(g2, 1, a1) == -a1
    assert W.apply_simple(g2, 1, a2).coords == (3, 1)
    assert W.apply_simple(g2, 2, g2.theta).coords == (3, 1)
    for i in (1, 2):
        for r in g2.roots:
            assert W.apply_simple(g2, i, W.apply_simple(g2, i, r)) == r


def test_braid_orders():
    assert W.braid_order(get_rs("B2"), 1, 2) == 4
    assert W.braid_order(get_rs("G2"), 1, 2) == 6
    a3 = get_rs("A3")
    assert W.braid_order(a3, 1, 2) == 3
    assert W.braid_order(a3, 1, 3) == 2


def test_group_laws():
    for name in ["G2", "A3", "B3"]:
        rs = get_rs(name)
        els = list(W.enumerate_weyl(rs))
        simples = [rs.simple_root(i) for i in range(1, rs.rank + 1)]
        for u in els:
            assert W.multiply(u, W.inverse(u)).is_identity()
            assert W.inverse(u).length == u.length
            assert len(W.inverse(u).inv) == len(u.inv)
            assert W.inverse(W.inverse(u)) == u
        for u in els:
            for v in els:
                uv = W.multiply(u, v)
                assert uv.word == uv.canonical_word()
                for r in simples:
                    assert uv.apply(r) == u.apply(v.apply(r)), (name, u.word, v.word)


def test_enumeration_counts_and_order():
    for name, n in [("A2", 6), ("B2", 8), ("G2", 12), ("A3", 24), ("F4", 1152)]:
        rs = get_rs(name)
        els = list(W.enumerate_weyl(rs))
        assert len(els) == n
        lens = [e.length for e in els]
        assert lens == sorted(lens)
        assert len({e.inv_mask for e in els}) == n
    g2els = list(W.enumerate_weyl(get_rs("G2")))
    top = [e for e in g2els if e.length == 6]
    assert len(top) == 1 and top[0].inv_mask == (1 << 6) - 1


def test_inversions():
    g2 = get_rs("G2")
    s1 = W.simple_element(g2, 1)
    assert [g2.roots[i].coords for i in s1.inv] == [(1, 0)]
    w = W.from_word(g2, [1, 2, 1])
    assert {g2.roots[i].coords for i in w.inv} == {(1, 0), (2, 1), (3, 1)}
    w0 = W.longest_element(g2)
    assert w0.inv_mask == (1 << 6) - 1
    for e in W.enumerate_weyl(g2):
        assert e.length == len(e.inv)


def test_word_reduction_and_canonical():
    b2 = get_rs("B2")
    assert W.from_word(b2, [1, 1, 2]).word == (2,)
    w0 = W.longest_element(b2)
    assert w0.canonical_word() == (1, 2, 1, 2)
    a2 = get_rs("A2")
    assert W.from_word(a2, [2, 1, 2]).canonical_word() == (1, 2, 1)


def test_biconvex_deciders_match_inversion_sets():
    # biconvex = biclosed = inversion set, checked on the full power set
    for name in ["A2", "B2", "G2", "A3", "B3"]:
        rs = get_rs(name)
        inv_masks = {e.inv_mask: e for e in W.enumerate_weyl(rs)}
        for m in range(1 << rs.num_positive):
            ps = PosRootSet(m, rs.num_positive)
            closed = is_biclosed(rs, ps)
            convex = is_biconvex(rs, ps)
            assert closed == convex == (m in inv_masks)
            if closed:
                assert W.element_from_biconvex(rs, ps) == inv_masks[m]
            else:
                with pytest.raises(LiesphError, match="not biconvex"):
                    W.element_from_biconvex(rs, ps)


def test_biconvex_round_trip_larger_types():
    # equality goes by the mask alone, so the peel's word and images are
    # held against the element from_word rebuilds from that word
    for name in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        rs = get_rs(name)
        for e in W.enumerate_weyl(rs):
            w = W.element_from_biconvex(rs, e.inv)
            want = W.from_word(rs, w.word)
            assert (w.word, w.inv_mask, w.img) == (want.word, want.inv_mask, want.img), e
            assert w == e


def test_element_from_biconvex_checks_its_round_trip(monkeypatch):
    # a peel that returns a wrong word must not pass as the element
    b2 = get_rs("B2")
    s1 = b2.posrootset([b2.simple_root(1)])
    monkeypatch.setattr(A, "_peel_codes", lambda rs, codes, start: ((2, 1), []))
    with pytest.raises(LiesphError, match="failed to reproduce"):
        W.element_from_biconvex(b2, s1)


def test_element_from_biconvex_rejects_a_set_of_another_width():
    b2, b3 = get_rs("B2"), get_rs("B3")
    for rs, width in [(b2, b3.num_positive), (b3, b2.num_positive)]:
        with pytest.raises(MismatchedSystems):
            W.element_from_biconvex(rs, PosRootSet(1, width))


def test_biconvex_spec_examples():
    b2 = get_rs("B2")
    ps = b2.posrootset([b2.root_from_coords(c) for c in [(1, 0), (1, 1), (1, 2)]])
    assert is_biconvex(b2, ps)
    assert W.element_from_biconvex(b2, ps) == W.from_word(b2, [1, 2, 1])
    empty = PosRootSet(0, 4)
    assert W.element_from_biconvex(b2, empty).is_identity()
    s1 = b2.posrootset([b2.simple_root(1)])
    assert W.element_from_biconvex(b2, s1) == W.simple_element(b2, 1)


def test_orders():
    g2 = get_rs("G2")
    els = list(W.enumerate_weyl(g2))
    e = W.identity(g2)
    assert all(W.bruhat_leq(e, w) and W.weak_leq(e, w) for w in els)
    s1s2s1 = W.from_word(g2, [1, 2, 1])
    s2s1s2 = W.from_word(g2, [2, 1, 2])
    assert not W.bruhat_leq(s1s2s1, s2s1s2)
    assert not W.bruhat_leq(s2s1s2, s1s2s1)
    # left weak order: inversion sets nest along suffixes
    w1212 = W.from_word(g2, [1, 2, 1, 2])
    assert W.weak_leq(s2s1s2, w1212)
    assert not W.weak_leq(s1s2s1, w1212)
    # weak implies Bruhat
    for u in els:
        for v in els:
            if W.weak_leq(u, v):
                assert W.bruhat_leq(u, v)


def test_bruhat_via_inversion_characterization():
    # compare against subword closure computed by brute force
    import itertools

    for name in ["B2", "G2", "A3", "B3"]:
        rs = get_rs(name)
        els = list(W.enumerate_weyl(rs))
        inverses = {e: W.inverse(e) for e in els}
        for w in els:
            word = w.word
            below = {W.from_word(rs, [word[i] for i in sub])
                     for k in range(len(word) + 1)
                     for sub in itertools.combinations(range(len(word)), k)}
            for v in els:
                got = W.bruhat_leq(v, w)
                assert got == (v in below), (name, v.word, w.word)
                # the left-descent walk relies on invariance under inversion
                assert got == W.bruhat_leq(inverses[v], inverses[w]), (name, v.word, w.word)


def test_reduced_words():
    b2, a2 = get_rs("B2"), get_rs("A2")
    words, overflow = W.reduced_words(W.longest_element(b2))
    assert words == [(1, 2, 1, 2), (2, 1, 2, 1)] and not overflow
    words, overflow = W.reduced_words(W.from_word(a2, [1, 2, 1]))
    assert words == [(1, 2, 1), (2, 1, 2)] and not overflow
    assert W.reduced_words(W.simple_element(a2, 1)) == ([(1,)], False)
    # cap truncation flags instead of raising
    f4 = get_rs("F4")
    words, overflow = W.reduced_words(W.longest_element(f4), cap=50)
    assert overflow and len(words) <= 50


def test_definition_deciders_b2():
    # Bourbaki B2 has alpha1 long; under the printed pattern
    # "s_a s_b s_a with ||a|| <= ||b||" the non-commutative braid-free
    # element is s2 s1 s2, not s1 s2 s1 (whose letters run long-short-long).
    b2 = get_rs("B2")
    e212 = W.from_word(b2, [2, 1, 2])
    e121 = W.from_word(b2, [1, 2, 1])
    assert W.is_fc_def(e212) and not W.is_commutative_def(e212)
    assert W.is_fc_def(e121) and W.is_commutative_def(e121)
    # the inversion-set criterion agrees: only Phi(s2s1s2) has a summing pair
    assert not W.is_commutative_inv(e212) and W.is_commutative_inv(e121)
    assert not W.is_fc_def(W.longest_element(b2))


def test_definition_deciders_g2():
    g2 = get_rs("G2")
    assert W.is_commutative_def(W.from_word(g2, [2, 1, 2]))
    assert not W.is_commutative_def(W.from_word(g2, [1, 2, 1]))
    assert not W.is_fc_def(W.longest_element(g2))


def test_criterion_deciders_g2_examples():
    g2 = get_rs("G2")
    s2s1s2 = W.from_word(g2, [2, 1, 2])
    assert W.is_commutative_inv(s2s1s2)
    s1s2s1 = W.from_word(g2, [1, 2, 1])
    assert W.pairing_nonneg(g2, s1s2s1.inv)
    assert W.is_fc_inv(s1s2s1)
    assert not W.is_commutative_inv(s1s2s1)
    assert not W.is_fc_inv(W.longest_element(g2))


def test_fc_counts():
    for name, count in [("A2", 5), ("A3", 14), ("B2", 7), ("G2", 11)]:
        rs = get_rs(name)
        assert sum(W.is_fc_def(e) for e in W.enumerate_weyl(rs)) == count
        assert sum(W.is_fc_inv(e) for e in W.enumerate_weyl(rs)) == count


def test_fc_counts_match_classical_formulas():
    # closed forms: catalan(n+1) for A_n, (n+2)*catalan(n)-1 for B_n/C_n,
    # (n+3)/2*catalan(n)-1 for D_n, and 106 for F4
    import math

    def catalan(n):
        return math.comb(2 * n, n) // (n + 1)

    expected = {
        "A2": catalan(3), "A3": catalan(4), "A4": catalan(5),
        "B2": 4 * catalan(2) - 1, "B3": 5 * catalan(3) - 1, "B4": 6 * catalan(4) - 1,
        "C3": 5 * catalan(3) - 1, "C4": 6 * catalan(4) - 1,
        "A5": catalan(6), "B5": 7 * catalan(5) - 1,
        "D4": 7 * catalan(4) // 2 - 1, "D5": 8 * catalan(5) // 2 - 1,
        "F4": 106,
    }
    assert (expected["A5"], expected["B5"], expected["D5"]) == (132, 293, 167)
    for name, count in expected.items():
        els = list(W.enumerate_weyl(get_rs(name)))
        assert sum(W.is_fc_inv_base_pair(e) for e in els) == count, name
        assert sum(W.is_fc_inv(e) for e in els) == count, name


@pytest.mark.parametrize("name", ["A5", "B5", "C5", "D5", "F4"])
def test_mask_deciders_match_pair_scans(name):
    # a base pair, or a summing pair, in the inversion mask decides what the
    # scans over pairs of inversions decide
    rs = get_rs(name)
    for e in W.enumerate_weyl(rs):
        assert W.is_fc_inv(e) == W.is_fc_inv_base_pair(e), e.word
        assert W.is_commutative_inv(e) == (not has_summing_pair(rs, e.inv.indices())), e.word


@pytest.mark.parametrize("name, planes", [("B4", 22), ("E6", 120), ("E8", 1120)])
def test_irreducible_plane_masks(name, planes):
    rs = get_rs(name)
    partners = W._irreducible_planes(rs)
    pairs = [(f, h) for f, mask in enumerate(partners) for h in iter_bits(mask) if f < h]
    assert len(pairs) == planes
    # each pair is the base of one irreducible plane, its two lowest positive
    # roots, and the table is symmetric
    spans = set()
    for f, h in pairs:
        members, irreducible, base = plane_parabolic(rs, (0, f), (0, h))
        positive = [q for _, q in members if q < rs.num_positive]
        assert irreducible and base and positive[:2] == [f, h] and len(positive) in (3, 4, 6)
        assert partners[h] >> f & 1
        spans.add(tuple(positive))
    assert len(spans) == planes
    assert W._irreducible_planes(rs) is partners


PAIRING_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2", "E6"]


@pytest.mark.parametrize("name", PAIRING_TYPES)
def test_pairing_nonneg_matches_the_double_loop(name):
    # the negative-pairing scan against every pair of members, on every
    # Weyl element and every ideal; the table is symmetric, as the sign of
    # <a, b> is that of (a, b)
    rs = get_rs(name)
    partners = W._negative_pairings(rs)
    assert all(partners[b] >> a & 1 for a, mask in enumerate(partners) for b in iter_bits(mask))
    subjects = [e.inv for e in W.enumerate_weyl(rs)] + I.enumerate_ideals(rs)
    found = 0
    for ps in subjects:
        got = W.pairing_nonneg(rs, ps)
        assert got == reference_pairing_nonneg(rs, ps), ps
        found += got
    assert 0 < found < len(subjects) or name == "A1"


@pytest.mark.parametrize("name", ["A1", "A2", "B3", "G2", "F4"])
def test_images_and_masks_match_apply_simple(name):
    # img[j] is w^-1 alpha_j, with alpha_0 = delta - theta, and the mask is
    # {beta > 0 : w beta < 0}, both computed root by root along the word
    rs = get_rs(name)
    span = A._affine_codes(rs)[0]
    simples = [rs.neg_index(rs.theta.index)] + [rs.simple_root(i).index for i in range(1, rs.rank + 1)]
    for e in W.enumerate_weyl(rs):
        images = []
        for j, f in enumerate(simples):
            r = rs.roots[f]
            for i in e.word:  # w^-1 = s_ik .. s_i1
                r = W.apply_simple(rs, i, r)
            images.append((int(j == 0), r.index))
        assert [A._decode(rs, span, c) for c in e.img] == images, e.word
        mask = 0
        for r in rs.positive_roots:
            image = r
            for i in reversed(e.word):
                image = W.apply_simple(rs, i, image)
            mask |= (not image.is_positive) << r.index
        assert e.inv_mask == mask, e.word
        assert W.from_word(rs, e.word) == e


def test_fc_routes_agree():
    # both base-pair deciders against positive systems inside the inversion set
    systems = [(n, False) for n in ("A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "G2")]
    for name, swap in systems + [(n, True) for n in ("B2", "C2", "G2")]:
        rs = get_rs(name, swap)
        for e in W.enumerate_weyl(rs):
            want = is_fc_by_positive_systems(rs, [(0, a) for a in e.inv])
            assert W.is_fc_inv(e) == W.is_fc_inv_base_pair(e) == want, (name, swap, e.word)


def test_g2_length_characterizations():
    g2 = get_rs("G2")
    els = list(W.enumerate_weyl(g2))
    assert sum(W.pairing_nonneg(g2, e.inv) for e in els) == 9
    assert sum(W.is_fc_inv(e) for e in els) == 11
    assert sum(W.is_commutative_inv(e) for e in els) == 6
    for e in els:
        assert W.pairing_nonneg(g2, e.inv) == (e.length <= 4)
        assert W.is_fc_inv(e) == (e.length <= 5)
    # commutative iff Bruhat-below s2s1s2, and the weak-order dichotomy
    s2s1s2 = W.from_word(g2, [2, 1, 2])
    s1s2s1 = W.from_word(g2, [1, 2, 1])
    w1212 = W.from_word(g2, [1, 2, 1, 2])
    for e in els:
        assert W.is_commutative_inv(e) == W.bruhat_leq(e, s2s1s2)
        if not W.is_commutative_inv(e):
            assert W.weak_leq(s1s2s1, e) or W.weak_leq(w1212, e)


def test_inverse_inversion_count():
    for name in ["B2", "G2", "A3"]:
        rs = get_rs(name)
        for e in W.enumerate_weyl(rs):
            assert len(W.inverse(e).inv) == len(e.inv)
