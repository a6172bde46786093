import functools
import random

import pytest

from conftest import get_rs, is_fc_by_positive_systems, reference_is_biconvex_affine
from liesph import affine as A
from liesph import ideals as I
from liesph import weyl as W
from liesph.errors import LiesphError
from liesph.roots import _has_pair, has_summing_pair

LETTER_TYPES = [(n, False) for n in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4",
                                     "D4", "F4", "G2")] + [(n, True) for n in ("B2", "C2", "G2")]
NOT_BICONVEX = "input set is not biconvex in the affine positive system"


# -- references: the set-push peel and inversion set, the canonical form as
# images under the element, and the level-split biconvexity test (the
# row-scan one is conftest's, shared with the ideal tests)


@functools.lru_cache(maxsize=None)
def _reference_letters(rs):
    """Per affine letter i, from coordinates: the key of alpha_i, and s_i as
    a permutation of the roots with a level shift per root."""
    theta = rs.neg_index(rs.theta.index)
    out = []
    for i in range(rs.rank + 1):
        alpha = (1, theta) if i == 0 else (0, rs.simple_root(i).index)
        shift, perm = zip(*(_reference_apply_simple(rs, i, 0, f) for f in range(len(rs.roots))))
        out.append((alpha, perm, shift))
    return tuple(out)


def _reference_act_letter(rs, i, keys):
    _, perm, shift = _reference_letters(rs)[i]
    return {(l + shift[f], perm[f]) for l, f in keys}


def _reference_inversion_keys(rs, word):
    """Inversion set of an arbitrary word, built letter by letter."""
    keys = set()
    for i in word:
        # N(u s_i) is s_i N(u) plus alpha_i, or s_i (N(u) - alpha_i) if it held alpha_i
        alpha = _reference_letters(rs)[i][0]
        keys = _reference_act_letter(rs, i, keys - {alpha}) | ({alpha} - keys)
    return keys


def _reference_peel_word(rs, keys):
    """Peel the lowest affine simple root each step, pushing the whole set
    through the letter."""
    rev = []
    while keys:
        for i, (alpha, _, _) in enumerate(_reference_letters(rs)):
            if alpha in keys:
                break
        else:
            raise LiesphError("finite biconvex set without an affine simple root")
        rev.append(i)
        keys = _reference_act_letter(rs, i, keys - {alpha})
    return tuple(reversed(rev))


def _reference_images(rs, word):
    """Images of the affine simple roots under the product of the word."""
    letters = _reference_letters(rs)
    images = []
    for (level, f), _, _ in letters:
        for i in reversed(word):
            _, perm, shift = letters[i]
            level, f = level + shift[f], perm[f]
        images.append((level, f))
    return tuple(images)


def _reference_element(rs, word):
    """(reduced word, inversion set) as ``AffineWeylWord`` built them with
    the set-push layers."""
    inv = _reference_inversion_keys(rs, word)
    if len(inv) != len(word):
        word = _reference_peel_word(rs, inv)
    return tuple(word), inv


def _levelsplit_reference_is_biconvex_affine(S):
    """Closure of S over all pairs of keys, and of its complement over every
    level split of each key along the decomposition lists."""
    rs = S.system
    keys = S.keys
    pairs = sorted(keys)
    for x, (la, fa) in enumerate(pairs):
        for lb, fb in pairs[x:]:
            s = rs.sum_table[fa][fb]
            if s is not None and (la + lb, s) not in keys:
                return False
    # a sum landing inside S with both summands positive and outside S
    # violates closure of the complement
    npos = rs.num_positive
    dec = [[] for _ in rs.roots]  # per root g, its pairs f < h with f + h = g
    for h, row in enumerate(rs.sum_table):
        for f, g in enumerate(row[:h]):
            if g is not None:
                dec[g].append((f, h))
    for lg, g in pairs:
        for f, h in dec[g]:
            for m in range(f >= npos, lg + (h < npos)):
                if (m, f) not in keys and (lg - m, h) not in keys:
                    return False
    return True


def _reference_apply_simple(rs, i, level, f):
    """s_i on f + level*delta from coordinates: s_i(a + n*delta) =
    (a - <a, b> b) + (n + <a, b> * m)*delta for alpha_i = b + m*delta,
    with alpha_0 = -theta + delta."""
    if i == 0:
        b, m = rs.neg_index(rs.theta.index), 1
    else:
        b, m = rs.simple_root(i).index, 0
    pair = rs.pairing_table[f][b]
    coords = tuple(rs.roots[f].coords[k] - pair * rs.roots[b].coords[k] for k in range(rs.rank))
    return level - pair * m, rs.index_of[coords]


@pytest.mark.parametrize("name, swap", LETTER_TYPES)
def test_letter_table_matches_coordinate_reference(name, swap):
    rs = get_rs(name, swap)
    assert len(_reference_letters(rs)) == rs.rank + 1
    for i in range(rs.rank + 1):
        assert _reference_letters(rs)[i][0] == A.affine_simple_root(rs, i).key()
        for f in range(len(rs.roots)):
            for level in range(-2, 3):
                want = _reference_apply_simple(rs, i, level, f)
                assert _reference_act_letter(rs, i, {(level, f)}) == {want}
                assert A.affine_apply_simple(rs, i, A.AffineRoot(rs, f, level)).key() == want


def test_affine_simple_roots():
    g2 = get_rs("G2")
    a0 = A.affine_simple_root(g2, 0)
    assert a0.finite == -g2.theta and a0.level == 1 and a0.is_positive
    assert A.affine_simple_root(g2, 1).finite == g2.simple_root(1)


def test_s0_reflection():
    g2 = get_rs("G2")
    a0 = A.affine_simple_root(g2, 0)
    assert A.affine_apply_simple(g2, 0, a0) == -a0
    # s_0(theta) = -theta + 2*delta
    th = A.AffineRoot(g2, g2.theta.index, 0)
    img = A.affine_apply_simple(g2, 0, th)
    assert img.finite == -g2.theta and img.level == 2
    # alpha1 is orthogonal to theta in G2, hence fixed by s_0
    a1 = A.AffineRoot(g2, g2.simple_root(1).index, 0)
    assert A.affine_apply_simple(g2, 0, a1) == a1


def test_affine_reflections_are_involutions():
    b2 = get_rs("B2")
    sample = [A.AffineRoot(b2, f, l) for f in range(len(b2.roots)) for l in (0, 1, 2)]
    for i in range(3):
        for r in sample:
            assert A.affine_apply_simple(b2, i, A.affine_apply_simple(b2, i, r)) == r


def test_affine_pairing():
    g2 = get_rs("G2")
    a0 = A.affine_simple_root(g2, 0)
    assert A.affine_pairing(a0, a0) == 2
    # <m*delta - a, n*delta - b> = <a, b>
    for m, n in [(1, 1), (2, 3), (5, 1)]:
        for a in g2.positive_roots:
            for b in g2.positive_roots:
                ma = A.AffineRoot(g2, g2.neg_index(a.index), m)
                nb = A.AffineRoot(g2, g2.neg_index(b.index), n)
                assert A.affine_pairing(ma, nb) == g2.pairing_table[a.index][b.index]
    # <delta - theta, alpha1> = 0 in G2
    a1 = A.AffineRoot(g2, g2.simple_root(1).index, 0)
    assert A.affine_pairing(a0, a1) == 0


def test_affine_pairing_invariance():
    g2 = get_rs("G2")
    sample = [A.AffineRoot(g2, f, l) for f in range(6) for l in (0, 1)]
    for i in range(3):
        for x in sample:
            for y in sample:
                assert A.affine_pairing(
                    A.affine_apply_simple(g2, i, x), A.affine_apply_simple(g2, i, y)
                ) == A.affine_pairing(x, y)


def test_word_canonical_equality():
    g2 = get_rs("G2")
    assert A.affine_from_word(g2, [0, 0]).is_identity()
    assert A.affine_from_word(g2, [0, 1, 1, 0]).is_identity()
    assert A.affine_from_word(g2, [1, 1, 2]).word == (2,)
    w = A.affine_from_word(g2, [0, 1, 2])
    assert w == A.affine_from_word(g2, [0, 1, 2]) and w.length == 3
    # alpha1 is orthogonal to theta, so s_0 and s_1 commute in affine G2
    assert A.affine_from_word(g2, [0, 1]) == A.affine_from_word(g2, [1, 0])
    assert A.affine_from_word(g2, [0, 2]) != A.affine_from_word(g2, [2, 0])


def test_finite_embedding():
    # finite elements inside the affine group keep their inversion sets at level 0
    for name in ["A2", "B2", "G2"]:
        rs = get_rs(name)
        for e in W.enumerate_weyl(rs):
            aw = A.affine_from_word(rs, e.word)
            assert aw.length == e.length
            assert {(l, f) for l, f in aw.inv_keys} == {(0, i) for i in e.inv}


def test_inversion_round_trip():
    g2 = get_rs("G2")
    words = [[0], [1], [0, 1], [1, 0, 2], [0, 1, 2, 0], [2, 0, 1, 2, 0], [0, 1, 0, 2, 1, 0]]
    for word in words:
        w = A.affine_from_word(g2, word)
        S = A.affine_inversions(w)
        assert len(S) == w.length
        assert A.is_biconvex_affine(S) and reference_is_biconvex_affine(S)
        assert A.element_from_biconvex_affine(S) == w


def test_inversion_round_trip_random_words():
    import random

    rng = random.Random(12)
    for name in ["B2", "B3", "G2"]:
        rs = get_rs(name)
        for _ in range(15):
            word = [rng.randrange(rs.rank + 1) for _ in range(rng.randint(1, 9))]
            w = A.affine_from_word(rs, word)
            S = A.affine_inversions(w)
            assert A.is_biconvex_affine(S) and reference_is_biconvex_affine(S)
            assert A.element_from_biconvex_affine(S) == w
            # applying the word to the inversion set lands in the negatives
            for r in S:
                assert not w.apply(r).is_positive


def test_biconvex_rejects_bad_sets():
    g2 = get_rs("G2")
    # {delta - alpha1} alone: complement-closure fails since
    # (delta - theta) + (2a1+a2 at level 0) = delta - alpha1 - ... is a sum
    # of two positive roots outside the set; concretely {2d - theta} fails
    S = A.AffineRootSet(g2, [(2, g2.neg_index(g2.theta.index))])
    assert not A.is_biconvex_affine(S) and not reference_is_biconvex_affine(S)
    with pytest.raises(LiesphError):
        A.element_from_biconvex_affine(S)
    with pytest.raises(LiesphError):
        A.AffineRootSet(g2, [(0, g2.neg_index(g2.theta.index))])  # negative member


@pytest.mark.parametrize("findex", [len(get_rs("G2").roots), 99, -1])
def test_affine_root_set_rejects_out_of_range_index(findex):
    with pytest.raises(LiesphError, match="out of range"):
        A.AffineRootSet(get_rs("G2"), [(1, findex)])


def _biconvex_by_letters(rs, keys):
    """Biconvex iff it is an inversion set: the peel finds an affine simple
    root at every step (it ends, as each step drops one key) and the peeled
    word has the set as its inversion set."""
    try:
        word = _reference_peel_word(rs, keys)
    except LiesphError:
        return False
    return _reference_inversion_keys(rs, word) == set(keys)


def _ideal_perturbations(rs, additions=True):
    """Each ideal's encoding, then every one-key removal from it and every
    one-key addition up to one level above its top."""
    for ideal in I.enumerate_ideals(rs):
        keys = I.psi_hat(rs, ideal).keys
        top = max((level for level, _ in keys), default=0) + 1
        yield keys
        yield from (keys - {k} for k in keys)
        if additions:
            yield from (
                keys | {(level, f)}
                for level in range(top + 1)
                for f in range(rs.num_positive if level == 0 else len(rs.roots))
                if (level, f) not in keys
            )


@pytest.mark.parametrize("name", ["A1", "A2", "B3", "C3", "D4", "G2"])
def test_biconvex_against_letter_oracle(name):
    rs = get_rs(name)
    checked = rejected = 0
    for ideal in I.enumerate_ideals(rs):
        assert _biconvex_by_letters(rs, I.psi_hat(rs, ideal).keys)
    for c in _ideal_perturbations(rs):
        got = A.is_biconvex_affine(A.AffineRootSet(rs, c))
        assert got == _biconvex_by_letters(rs, c), sorted(c)
        checked += 1
        rejected += not got
    assert 0 < rejected < checked


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
def test_biconvex_against_letter_oracle_on_random_sets(name):
    # on A1 no two affine roots sum to a root, so closure alone accepts sets
    # like {-a + 2d} and {a, -a + d} that are no inversion set
    rs = get_rs(name)
    rng = random.Random(name)
    universe = [(level, f) for level in range(4) for f in range(len(rs.roots))
                if level or f < rs.num_positive]
    accepted = 0
    for _ in range(2000):
        keys = set(rng.sample(universe, rng.randint(0, min(8, len(universe)))))
        S = A.AffineRootSet(rs, keys)
        got = A.is_biconvex_affine(S)
        assert got == _biconvex_by_letters(rs, keys), sorted(keys)
        _assert_peel_decides(S, got)
        accepted += got
    assert 0 < accepted < 2000


@pytest.mark.parametrize("name", ["A1", "B3", "G2", "F4", "E6"])
def test_summing_pair_decider_matches_the_pair_scan(name):
    # the summable-mask decider on masks of root indices, positive and
    # negative alike, against roots.has_summing_pair; in A1 no two roots
    # sum to a root, elsewhere both answers occur
    rs = get_rs(name)
    n = len(rs.roots)
    rng = random.Random(f"summing-{name}")
    found = 0
    for _ in range(2000):
        members = rng.sample(range(n), rng.randint(0, min(n, 8)))
        got = _has_pair(A._summable(rs), sum(1 << f for f in members))
        assert got == has_summing_pair(rs, sorted(members)), sorted(members)
        found += got
    assert found < 2000 and (found > 0) == (name != "A1")


def _assert_peel_decides(S, biconvex):
    """``element_from_biconvex_affine`` agrees with the verdict, which a
    caller has held against a reference: it raises exactly on a set that is
    not biconvex, and otherwise builds the element that ``AffineWeylWord``
    rebuilds from its word by the one-pass inversion set, with inversion
    set S."""
    if biconvex:
        w = A.element_from_biconvex_affine(S)
        want = A.AffineWeylWord(S.system, w.word)
        assert (w.word, w.inv_keys, w.canonical) == (want.word, want.inv_keys, want.canonical)
    else:
        with pytest.raises(LiesphError, match=NOT_BICONVEX):
            A.element_from_biconvex_affine(S)


def _check_against_references(rs, keys):
    """The library's biconvexity verdict, the peel's, equals both closure
    references; the peel is the set-push one (or fails with it), and a
    peeled word gives the same element as the set-push layers build; on a
    biconvex set, the FC verdict of the positive-system decider.  Returns
    the verdict."""
    S = A.AffineRootSet(rs, keys)
    verdict = A.is_biconvex_affine(S)
    assert verdict == reference_is_biconvex_affine(S), sorted(keys)
    assert verdict == _levelsplit_reference_is_biconvex_affine(S), sorted(keys)
    if verdict:
        assert A.is_fc_affine(S) == is_fc_by_positive_systems(rs, keys), sorted(keys)
    _assert_peel_decides(S, verdict)
    try:
        want = _reference_peel_word(rs, set(keys))
    except LiesphError:
        with pytest.raises(LiesphError, match=NOT_BICONVEX):
            A._peel_word(rs, keys)
        return verdict
    word = A._peel_word(rs, keys)[0]
    assert word == want, sorted(keys)
    _check_element(rs, word)
    return verdict


def _check_element(rs, word):
    """The one-pass inversion set and element equal the set-push ones; the
    canonical images are those of the simple roots under the inverse."""
    reduced, inv = _reference_element(rs, word)
    keys, images = A._inversion_keys(rs, word)
    assert keys == inv, word
    w = A.AffineWeylWord(rs, word)
    assert (w.word, w.inv_keys, w.canonical) == (reduced, inv, images), word
    assert images == _reference_images(rs, word[::-1]), word
    return w


def _check_ideals_against_references(rs, additions=True):
    verdicts = [_check_against_references(rs, c) for c in _ideal_perturbations(rs, additions)]
    assert 0 < verdicts.count(False) < len(verdicts)


@pytest.mark.parametrize("name", ["B3", "C3", "D4", "F4", "G2"])
def test_affine_layers_match_references_on_ideals(name):
    _check_ideals_against_references(get_rs(name))


@pytest.mark.slow
def test_affine_layers_match_references_on_e6_ideals():
    # the 260 730 one-key additions would take minutes on the set-push peel
    _check_ideals_against_references(get_rs("E6"), additions=False)


@pytest.mark.parametrize("name, swap", [(n, False) for n in ("B2", "B3", "C3", "F4", "G2")]
                         + [(n, True) for n in ("B2", "C2", "G2")])
def test_affine_layers_match_references_on_random_words(name, swap):
    rs = get_rs(name, swap)
    rng = random.Random(f"{name}{swap}")
    classes = {}  # canonical -> reference images under the element
    for _ in range(200):
        word = tuple(rng.randrange(rs.rank + 1) for _ in range(rng.randint(0, 14)))
        w = _check_element(rs, word)
        _check_element(rs, w.word)
        ref = _reference_images(rs, word)
        assert tuple(A._word_image(rs, word, alpha) for alpha, _, _ in _reference_letters(rs)) == ref
        assert classes.setdefault(w.canonical, ref) == ref, word
    # the same equality classes: distinct canonicals, distinct reference images
    assert len(set(classes.values())) == len(classes)


def test_empty_and_singleton():
    g2 = get_rs("G2")
    assert A.element_from_biconvex_affine(A.AffineRootSet(g2, [])).is_identity()
    a0 = A.affine_simple_root(g2, 0)
    s0 = A.element_from_biconvex_affine(A.AffineRootSet(g2, [a0]))
    assert s0.word == (0,)
    assert A.affine_inversions(s0) == A.AffineRootSet(g2, [a0])
    S = A.AffineRootSet(g2, [a0])
    assert A.is_commutative_affine(S) and A.is_fc_affine(S)


def test_g2_maximal_abelian_encoding():
    g2 = get_rs("G2")
    neg = g2.neg_index
    S = A.AffineRootSet(
        g2,
        [
            (1, neg(g2.root_from_coords((2, 1)).index)),
            (1, neg(g2.root_from_coords((3, 1)).index)),
            (1, neg(g2.root_from_coords((3, 2)).index)),
        ],
    )
    assert A.is_biconvex_affine(S) and reference_is_biconvex_affine(S)
    w = A.element_from_biconvex_affine(S)
    assert w.length == 3
    assert A.affine_inversions(w) == S
    assert A.is_commutative_affine(S)


def test_b2_full_ideal_not_fc():
    b2 = get_rs("B2")
    neg = b2.neg_index
    keys = [(1, neg(r.index)) for r in b2.positive_roots]
    keys += [
        (2, neg(b2.root_from_coords((1, 1)).index)),
        (2, neg(b2.root_from_coords((1, 2)).index)),
        (3, neg(b2.root_from_coords((1, 2)).index)),
    ]
    S = A.AffineRootSet(b2, keys)
    assert A.is_biconvex_affine(S) and reference_is_biconvex_affine(S)
    assert not A.is_fc_affine(S)
    assert not A.is_commutative_affine(S)


def test_a1_affine_all_fc():
    # the rank-1 affine group is infinite dihedral: every element is fully
    # commutative (planes through two inversions always hold the imaginary
    # direction), and the sum criterion also makes every element commutative,
    # since +-alpha +- alpha is never a root
    a1 = get_rs("A1")
    for word in [[0], [1], [0, 1], [1, 0], [0, 1, 0], [1, 0, 1], [0, 1, 0, 1, 0]]:
        w = A.affine_from_word(a1, word)
        S = A.affine_inversions(w)
        assert w.length == len(word)
        assert A.is_fc_affine(S)
        assert A.is_commutative_affine(S)


def test_every_nonempty_biconvex_contains_affine_simple():
    g2 = get_rs("G2")
    for word in [[0], [0, 1], [1, 0, 2], [0, 1, 2, 0, 1]]:
        keys = set(A.affine_from_word(g2, word).inv_keys)
        while keys:
            found = None
            for i in range(3):
                if A.affine_simple_root(g2, i).key() in keys:
                    found = i
                    break
            assert found is not None
            keys = _reference_act_letter(g2, found, keys - {A.affine_simple_root(g2, found).key()})
