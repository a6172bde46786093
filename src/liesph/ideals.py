"""Root poset, ad-nilpotent (combinatorial) ideals, layer sequences, and the
affine encoding of an ideal as an inversion set.

A combinatorial ideal is a positive-root set closed under adding arbitrary
positive roots; equivalently an up-set of the root poset.  An ideal is its
member set, a ``PosRootSet``: its layers and its encoding are functions of
the members, computed where they are read.  Its layers
Psi^(k) = (Psi^(k-1) + Psi) cap Phi^+ shrink to empty, and
{k*delta - a : a in Psi^(k)} is a finite biconvex set of positive affine
roots, hence the inversion set of a unique affine Weyl group element.
"""

from __future__ import annotations

from . import spherical as _spherical
from .affine import (
    AffineRootSet,
    AffineWeylWord,
    _affine_codes,
    _checked_peel,
    _decode,
    _has_summing_pair,
    _summable,
    element_from_biconvex_affine,
)
from .chevalley import ChevalleyAlgebra, build_chevalley
from .errors import LiesphError, MismatchedSystems
from .roots import (
    PosRootSet,
    Root,
    RootSystem,
    _irreducible_planes,
    _memo,
    _poset_tables,
    iter_bits,
)


def root_poset_leq(rs: RootSystem, a: Root, b: Root) -> bool:
    """a <= b: b reachable from a by adding simple roots inside Phi^+."""
    if a.system is not rs or b.system is not rs:
        raise MismatchedSystems("root from another system")
    if not (a.is_positive and b.is_positive):
        raise LiesphError("root poset is over the positive roots")
    return bool(_poset_tables(rs)[a.index] >> b.index & 1)


def is_combinatorial_ideal(rs: RootSystem, ps: PosRootSet) -> bool:
    """Closed under addition of arbitrary positive roots: an up-set of the
    root poset, as a + b lies above a, and each step up adds a simple root."""
    if ps.width != rs.num_positive:
        raise MismatchedSystems("bit vector from another system")
    up, mask = _poset_tables(rs), ps.mask
    return all(not up[i] & ~mask for i in iter_bits(mask))


def _layers(rs: RootSystem, mask: int) -> tuple[list[int], set[int]]:
    """The masks of Psi^(k) for k >= 1, ``[0]`` for the empty ideal, and
    the codes of the encoding ``psi_hat``: ``_deepen`` from zero depths on
    every member.  Full commutativity reads the layer masks
    (``_is_fc_by_layers``)."""
    layers = []
    codes = _deepen(rs, mask, [0] * rs.num_positive, layers, mask)
    return layers or [0], codes


def _deepen(rs: RootSystem, mask: int, depth: list[int], layers: list[int], todo: int) -> set[int]:
    """Raise ``depth`` to the depths in the ideal ``mask``, from the members
    in ``todo`` up, and set each raised member's bit in ``layers`` (I^k is
    ``layers[k - 1]``) up to its new depth; returns the codes the raises
    add to the encoding.  Either ``depth`` is 0 everywhere and ``todo`` is
    ``mask`` (``_layers``), or ``todo`` is the member b of least height of
    J = ``mask`` and ``depth`` holds the depths in I = J - b, 0 off I
    (``_ideal_tree``).

    The layers nest, so the deepest layer of a member, its depth, is 1 plus
    that of the deeper summand, over its decompositions into two members,
    and 1 when it has none.  A member whose depth rose, or that joined the
    ideal, offers each sum with a member its new depth plus 1; a sum lies
    above its summands, and root indices increase with height, so the
    members are taken lowest index first, each once its bound is final.
    No other member can deepen.  Member g of depth d gives the codes of
    k*delta - g for 1 <= k <= d (``_code_ladders``).

    The offer need not take the other summand's depth.  From zero depths
    every member is raised and offers its own.  Along the tree: if
    positive roots sum to a root s, (s, s) > 0 is the sum of the (s, a),
    so some s - a is a root or 0, and the sum can be ordered with each
    partial sum a root; the depth of s is the most members it is a sum of.
    Take s of depth m in J above its depth in I, every lower member's
    depth right, and an m-term sum for s with such an a: w = s - a has
    depth m - 1 or more.  A raised w offered m; else a in I would give s
    depth m in I.  So a = b, w is in I and not raised, and
    s = b + a_1 + ... + a_(m-1) with each a_i in I; it is enough that some
    s - a_i be a root.  If none is, every (s, a_i) <= 0, so (s, b) >=
    (s, s): s is short and b long.  In B_n and C_n that makes
    (s, b) = (s, s) and every (s, a_i) 0.  In B_n, s = e_p and
    b = e_p - e_q, and some a_i is short (sums of long roots have even
    coordinate sums, e_q has not), so it is e_r and s - a_i = e_p - e_r.
    In C_n, s = e_i + e_j and b = 2e_j, and the a_i sum to e_i - e_j, so
    one of them is e_i - e_j and s - a_i = 2e_j.  The tree tests check
    every ideal of F4 and G2."""
    sums, summable, ladders = rs.sum_table, _summable(rs), _code_ladders(rs)
    bound = [1] * rs.num_positive
    codes = set()
    while todo:
        low = todo & -todo
        todo ^= low
        g = low.bit_length() - 1
        old, d = depth[g], bound[g]
        if d <= old:
            continue
        depth[g] = d
        codes.update(ladders[g][old:d])
        for k in range(old, d):
            if k == len(layers):
                layers.append(0)
            layers[k] |= low
        row, others = sums[g], summable[g] & mask
        while others:
            bit = others & -others
            others ^= bit
            s = row[bit.bit_length() - 1]
            if d >= bound[s] and d >= depth[s]:
                bound[s] = d + 1
                todo |= 1 << s
    return codes


def make_ideal(rs: RootSystem, ps: PosRootSet) -> PosRootSet:
    """ps, checked to be an ideal."""
    if not is_combinatorial_ideal(rs, ps):
        raise LiesphError("set is not closed under adding positive roots")
    return ps


def ideal_from_generators(rs: RootSystem, generators) -> PosRootSet:
    """Up-closure of a set of positive roots, an ideal by construction."""
    up = _poset_tables(rs)
    mask = 0
    for g in generators:
        idx = g.index if isinstance(g, Root) else int(g)
        if not 0 <= idx < rs.num_positive:
            raise LiesphError("generators must be positive roots")
        mask |= up[idx]
    return PosRootSet(mask, rs.num_positive)


def minimal_generators(rs: RootSystem, ps: PosRootSet) -> list[int]:
    """Minimal members (the antichain generating the up-set): those strictly
    above no member."""
    up = _poset_tables(rs)
    above = 0
    for i in iter_bits(ps.mask):
        above |= up[i] & ~(1 << i)
    return list(iter_bits(ps.mask & ~above))


def enumerate_ideals(rs: RootSystem) -> list[PosRootSet]:
    """All up-sets of the root poset, sorted by size then bit pattern."""
    up = _poset_tables(rs)
    npos = rs.num_positive
    order = sorted(range(npos), key=lambda j: -rs.roots[j].height)
    masks = []

    def rec(k: int, mask: int):
        if k == len(order):
            masks.append(mask)
            return
        i = order[k]
        rec(k + 1, mask)
        if up[i] & ~mask == 1 << i:  # everything strictly above is already in
            rec(k + 1, mask | 1 << i)

    rec(0, 0)
    masks.sort(key=lambda m: (m.bit_count(), m))
    return [PosRootSet(m, npos) for m in masks]


def antichain_ideal_masks(rs: RootSystem) -> set[int]:
    """Independent enumeration: up-closures of the antichains of the poset."""
    up = _poset_tables(rs)
    npos = rs.num_positive
    down = [0] * npos
    for i in range(npos):
        for j in range(npos):
            if up[j] >> i & 1:
                down[i] |= 1 << j
    out = set()

    def rec(start: int, chosen_mask: int, closure: int):
        out.add(closure)
        for i in range(start, npos):
            if (up[i] | down[i]) & chosen_mask:
                continue  # comparable with something chosen
            rec(i + 1, chosen_mask | 1 << i, closure | up[i])

    rec(0, 0, 0)
    return out


def is_abelian(rs: RootSystem, ps: PosRootSet) -> bool:
    """No two members (with repetition) sum to a root."""
    if ps.width != rs.num_positive:
        raise MismatchedSystems("bit vector from another system")
    return not _has_summing_pair(rs, ps.mask)


def psi_hat(rs: RootSystem, ideal: PosRootSet) -> AffineRootSet:
    """Affine encoding of an ideal: union over k of {k*delta - a : a in
    Psi^(k)}, decoded from the codes ``_layers`` builds.  Raises
    LiesphError when the set is no ideal.

    The set is biconvex (Cellini-Papi); ``element_from_biconvex_affine``
    proves it by peeling the set into its element, the one check."""
    return _decoded(rs, _layers(rs, make_ideal(rs, ideal).mask)[1])


def _decoded(rs: RootSystem, codes) -> AffineRootSet:
    """The affine root set of an encoding's codes, as (level, root index) keys."""
    span = _affine_codes(rs)[0]
    return AffineRootSet._trusted(rs, frozenset(_decode(rs, span, c) for c in codes))


@_memo
def _code_ladders(rs: RootSystem) -> list[tuple[int, ...]]:
    """Per positive root g, the codes (``affine._affine_codes``) of
    k*delta - g for 1 <= k <= ht(g), ``k * span - packed[g]``: a member of
    layer k is a sum of k positive roots, so its depth is at most its
    height."""
    span, packed = _affine_codes(rs)[0], rs.packed
    return [tuple(range(span - packed[g], r.height * span - packed[g] + 1, span))
            for g, r in enumerate(rs.positive_roots)]


def _is_fc_by_layers(rs: RootSystem, layers: list[int]) -> bool:
    """Whether w_I is fully commutative, from the layer masks of I
    (``layers[k - 1]`` is I^k).

    Lemma: w_I is fully commutative iff no irreducible plane P = Phi cap
    span has every q in P+ in I^ht_P(q), where ht_P is the height in P's
    own base (``roots._irreducible_planes``).

    Proof.  N(w_I) = {k delta - b : b in I^k}, and w_I is not fully
    commutative iff some pair in N(w_I) is a base of an irreducible plane
    parabolic (``is_fc_affine``); N(w_I) is closed, so it then holds the
    positive system that base spans.

    If: let {f, h} be the base of P+.  Each root of P is x f + y h with
    integers x, y of one sign, so the affine roots in span{delta - f,
    delta - h} are the (x + y) delta - (x f + y h), one for each root of P:
    an irreducible system with base (delta - f, delta - h), a pair in
    N(w_I) as f and h lie in I^1.

    Only if: let (k1 delta - f, k2 delta - h) in N(w_I) be a base of the
    irreducible system A of the affine roots in its span, and P the plane
    of f and h.  If A projects onto P, then {f, h} is a base of P whose
    positive system consists of positive roots, so it is the base of P+.
    Each q = x f + y h in P+ gives the positive root (x k1 + y k2) delta - q
    of A, which lies in N(w_I): q is in I^(x k1 + y k2), inside I^(x + y)
    as the layers nest.  Otherwise A is an irreducible rank-2 system with
    fewer roots than P.  Only a G2 plane holds one, an A2, and it is the
    long-root one, as the short roots generate all of P.  So P is G2 with
    base alpha, beta (beta long), and A has base f = beta, h = 3 alpha +
    beta.  A simple root is no sum of two positive roots, so k1 = 1; alpha
    = (h - f) / 3 would have the level (k2 - 1) / 3, which is no integer
    as alpha is not in A, so k2 >= 2.  The only decomposition of h into two positive roots is
    alpha + (2 alpha + beta), so alpha lies in I, and then I = Phi+, whose
    layers are the roots by height: the G2 plane itself is the witness.

    An irreducible plane's highest root has ht_P >= 2, so only the planes
    whose highest root lies in I^2 are read."""
    if len(layers) < 2:
        return True
    planes = _irreducible_planes(rs)
    for top in iter_bits(layers[1]):
        for buckets in planes[top]:
            if len(buckets) > len(layers):
                continue
            for bucket, layer in zip(buckets, layers):
                if bucket & ~layer:
                    break
            else:
                return False
    return True


def w_of_ideal(rs: RootSystem, ideal: PosRootSet) -> AffineWeylWord:
    return element_from_biconvex_affine(psi_hat(rs, ideal))


def _ideal_tree(rs: RootSystem, ideal_list: list[PosRootSet]):
    """Per ideal J of ``ideal_list``, in ``enumerate_ideals`` order:
    ``(J, depth, layers, img, error)``, its depth list, its layer masks, and
    the final images of the checked peel of its encoding, or None and the
    LiesphError the peel raised.

    J's parent is I = J minus b, b the member ``enumerate_ideals`` adds
    last: the highest-index member of least height, so I is an ideal of the
    size before J's.  b's summands lie below J, so b has depth 1, and
    ``_deepen`` carries I's depths and layers from b.  The codes the raises
    add are peeled from w_I's final images (``affine._peel_codes``): by
    induction M(w_I) = psi_hat(I), so a checked peel of the new codes ends
    at an element with M = psi_hat(J), and sticks or falls short exactly
    when psi_hat(J) is no inversion set.  An ideal whose parent's peel
    failed, and the empty one, peel every code from the identity.  The
    states of the last two sizes are kept."""
    npos = rs.num_positive
    ladders = _code_ladders(rs)
    by_height = {}
    for i, r in enumerate(rs.positive_roots):
        by_height[r.height] = by_height.get(r.height, 0) | 1 << i
    level = [by_height[r.height] for r in rs.positive_roots]  # the roots of each root's height
    size, parents, states = 0, {}, {}
    for members in ideal_list:
        mask = members.mask
        if mask.bit_count() > size:  # the sizes step by one
            size, parents, states = size + 1, states, {}
        if mask:
            low = (mask & -mask).bit_length() - 1  # a member of least height
            b = (mask & level[low]).bit_length() - 1
            depth, layers, img = parents[mask ^ 1 << b]
            depth, layers = depth.copy(), layers.copy()
            codes = _deepen(rs, mask, depth, layers, 1 << b)
        else:
            depth, layers, img = [0] * npos, [0], None
        if img is None:  # no parent, or its peel failed
            codes = {c for g in iter_bits(mask) for c in ladders[g][:depth[g]]}
        try:
            img, error = _checked_peel(rs, codes, img)[1], None
        except LiesphError as exc:  # the peel stuck, or its word is short
            img, error = None, exc
        states[mask] = depth, layers, img
        yield members, depth, layers, img, error


def verify_theorem2(rs: RootSystem, L: ChevalleyAlgebra | None = None) -> dict:
    """Per ideal: spherical iff the affine element is fully commutative
    (commutative in G2); abelian iff a single layer; spherical forces the
    third layer to vanish.  Commutativity of w_I is abelianness, so the
    report counts them once: a sum of real affine roots is real iff their
    finite parts sum to a root, the encoding's finite parts are the negated
    members, and a + b is a root iff -a - b is.

    Each ideal's layer masks come from its parent's along the ideal tree,
    and its encoding is checked by a peel from its parent's element
    (``_ideal_tree``); an encoding that fails is a mismatch naming the
    check, and fc is read off the layers (``_is_fc_by_layers``).  Member
    coordinates, and the witness of a subject the decider passes but that
    is not spherical, are built only for the mismatches."""
    L = L or build_chevalley(rs)
    is_g2 = rs.cartan_type.name == "G2"
    mismatches = []
    n_spherical = n_abelian = n_fc = 0
    ideal_list = enumerate_ideals(rs)
    for members, _, layers, _, error in _ideal_tree(rs, ideal_list):
        if error is not None:
            mismatches.append({"members": members, "reason": f"affine encoding: {error}"})
        sph = _spherical.is_spherical_subspace(L, members)
        fc, abelian = _is_fc_by_layers(rs, layers), is_abelian(rs, members)
        n_spherical += sph
        n_abelian += abelian
        n_fc += fc
        dec = abelian if is_g2 else fc
        if dec != sph:
            mismatches.append({"members": members, "decider_value": dec, "spherical": sph,
                               **({} if sph else {"witness": _spherical.witness_coords(L, members)})})
        if sph and len(layers) > 2:
            mismatches.append({"members": members, "reason": "spherical ideal with layer 3"})
        if abelian != (len(layers) <= 1):
            mismatches.append({"members": members, "reason": "abelian != single layer"})
    for m in mismatches:
        m["members"] = [list(rs.roots[i].coords) for i in m["members"]]
    return {
        "type": rs.cartan_type.name,
        "decider": "commutative" if is_g2 else "fully_commutative",
        "ideals": len(ideal_list),
        "spherical": n_spherical,
        "abelian": n_abelian,
        "fc": n_fc,
        "commutative": n_abelian,
        "mismatches": mismatches,
    }


def maximal_spherical_ideals(records: list[dict]) -> list[list[list[int]]]:
    """Maximal members among the spherical ideals of an ``ideal_atlas``
    (informational listing), each as its sorted member coordinates."""
    spherical = [{tuple(c) for c in r["members"]} for r in records if r["spherical"]]
    return sorted(sorted(map(list, m)) for m in spherical if not any(m < o for o in spherical))


def ideal_record(rs: RootSystem, members: PosRootSet) -> dict:
    """One JSON-ready record of an ideal: generators, members, layers,
    affine encoding, the word of w_I and the flags but sphericality, from
    the ideal alone: ``_layers`` and a checked peel from the identity, whose
    word is printed.  One code set is both the ``psi_hat`` field and the
    peeled encoding.  A failed encoding raises."""
    layers, codes = _layers(rs, members.mask)
    encoding = _decoded(rs, codes).to_json_list()  # before the peel consumes the codes
    fc, abelian = _is_fc_by_layers(rs, layers), is_abelian(rs, members)
    return {
        "generators": [list(rs.roots[i].coords) for i in minimal_generators(rs, members)],
        "members": [list(rs.roots[i].coords) for i in members],
        "layers": [[list(rs.roots[i].coords) for i in iter_bits(layer)] for layer in layers],
        "psi_hat": encoding,
        "w_word": list(_checked_peel(rs, codes)[0]),
        "abelian": abelian,
        "commutative": abelian,
        "fc": fc,
    }


def ideal_atlas(rs: RootSystem, L: ChevalleyAlgebra | None = None) -> list[dict]:
    """``ideal_record`` of every ideal, with its sphericality, in
    ``enumerate_ideals`` order."""
    L = L or build_chevalley(rs)
    return [{**ideal_record(rs, members), "spherical": _spherical.is_spherical_subspace(L, members)}
            for members in enumerate_ideals(rs)]
