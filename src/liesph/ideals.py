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
    _summable,
    element_from_biconvex_affine,
)
from .chevalley import ChevalleyAlgebra, build_chevalley
from .errors import LiesphError, MismatchedSystems
from .roots import (
    PosRootSet,
    Root,
    RootSystem,
    _has_pair,
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
    every member; I^k holds the members of depth k or more."""
    depth = [0] * rs.num_positive
    codes = _deepen(rs, mask, depth, mask)
    layers = [sum(1 << g for g in iter_bits(mask) if depth[g] >= k) for k in range(1, max(depth) + 1)]
    return layers or [0], codes


def _deepen(rs: RootSystem, mask: int, depth: list[int], todo: int) -> set[int]:
    """Raise ``depth`` to the depths in the ideal ``mask``, from the members
    in ``todo`` up; returns the codes the raises add to the encoding.
    Either ``depth`` is 0 everywhere and ``todo`` is ``mask``
    (``_layers``), or ``todo`` is the lowest member b of J = ``mask``,
    one of least height, and ``depth`` holds the depths in I = J - b, 0 off
    I (``_ideal_tree``).

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
    """All up-sets of the root poset, sorted by size then bit pattern: a
    walk by size, each ideal of size k + 1 a child of one of size k.

    The children of an ideal I are I + b for each root b of index below
    I's lowest member (any root for I empty) with every root strictly
    above b in I, b ascending.  Each is an up-set, and each nonempty ideal
    J is listed once: root indices increase with height, so J's lowest
    member b has least height and is minimal in J, J less b is an up-set,
    and J is its child; and J is the child of no other, as a child's lowest
    member is the root it added.  The order holds by induction on the
    size: I's children differ from I only below its lowest member, so they
    come in mask order, and if I < I' of one size, their highest differing
    bit p is in I', I has a member below p, and every child of I is below
    I', so below its children."""
    up, npos = _poset_tables(rs), rs.num_positive
    masks, last = [0], [0]  # last: the ideals of the latest size
    while last:
        last = [m | 1 << b for m in last
                for b in range((m & -m or 1 << npos).bit_length() - 1)  # below m's lowest member
                if up[b] & ~m == 1 << b]
        masks += last
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
    return not _has_pair(_summable(rs), ps.mask)


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


def w_of_ideal(rs: RootSystem, ideal: PosRootSet) -> AffineWeylWord:
    return element_from_biconvex_affine(psi_hat(rs, ideal))


def _ideal_tree(rs: RootSystem, ideal_list: list[PosRootSet]):
    """Per ideal J of ``ideal_list``, in ``enumerate_ideals`` order:
    ``(J, depth, img, error)``, its depth list and the final images of the
    checked peel of its encoding, or None and the LiesphError the peel
    raised.

    J's parent is I = J minus b, b its lowest member, the one
    ``enumerate_ideals`` adds to I to reach J: it has least height, so I is
    an ideal of the size before J's, b's summands lie below J, b has depth
    1, and ``_deepen`` carries I's depths from b.  The codes the raises
    add are peeled from w_I's final images (``affine._peel_codes``): by
    induction M(w_I) = psi_hat(I), so a checked peel of the new codes ends
    at an element with M = psi_hat(J), and sticks or falls short exactly
    when psi_hat(J) is no inversion set.  An ideal whose parent's peel
    failed, and the empty one, peel every code from the identity.  The
    states of the last two sizes are kept."""
    npos = rs.num_positive
    ladders = _code_ladders(rs)
    size, parents, states = 0, {}, {}
    for members in ideal_list:
        mask = members.mask
        if mask.bit_count() > size:  # the sizes step by one
            size, parents, states = size + 1, states, {}
        if mask:
            depth, img = parents[mask & (mask - 1)]
            depth = depth.copy()
            codes = _deepen(rs, mask, depth, mask & -mask)
        else:
            depth, img = [0] * npos, None
        if img is None:  # no parent, or its peel failed
            codes = {c for g in iter_bits(mask) for c in ladders[g][:depth[g]]}
        try:
            img, error = _checked_peel(rs, codes, img)[1], None
        except LiesphError as exc:  # the peel stuck, or its word is short
            img, error = None, exc
        states[mask] = depth, img
        yield members, depth, img, error


def verify_theorem2(rs: RootSystem, L: ChevalleyAlgebra | None = None) -> dict:
    """Per ideal: spherical iff the affine element is fully commutative
    (commutative in G2); abelian iff a single layer; spherical forces the
    third layer to vanish.  Commutativity of w_I is abelianness, so the
    report counts them once: a sum of real affine roots is real iff their
    finite parts sum to a root, the encoding's finite parts are the negated
    members, and a + b is a root iff -a - b is.

    Each ideal's depths come from its parent's along the ideal tree, and
    its encoding is checked by a peel from its parent's element
    (``_ideal_tree``); an encoding that fails is a mismatch naming the
    check.  fc is the base-pair scan of the members (the lemma in
    ``roots._has_pair``), and the layer count is the largest depth.  Member
    coordinates, and the witness of a subject the decider passes but that
    is not spherical, are built only for the mismatches."""
    L = L or build_chevalley(rs)
    is_g2 = rs.cartan_type.name == "G2"
    mismatches = []
    n_spherical = n_abelian = n_fc = 0
    ideal_list = enumerate_ideals(rs)
    for members, depth, _, error in _ideal_tree(rs, ideal_list):
        if error is not None:
            mismatches.append({"members": members, "reason": f"affine encoding: {error}"})
        sph = _spherical.is_spherical_subspace(L, members)
        fc, abelian = not _has_pair(_irreducible_planes(rs), members.mask), is_abelian(rs, members)
        n_spherical += sph
        n_abelian += abelian
        n_fc += fc
        dec = abelian if is_g2 else fc
        if dec != sph:
            mismatches.append({"members": members, "decider_value": dec, "spherical": sph,
                               **({} if sph else {"witness": _spherical.witness_coords(L, members)})})
        deepest = max(depth)
        if sph and deepest > 2:
            mismatches.append({"members": members, "reason": "spherical ideal with layer 3"})
        if abelian != (deepest <= 1):
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
    peeled encoding.  fc is the base-pair scan of the members, as in
    ``verify_theorem2``.  A failed encoding raises."""
    layers, codes = _layers(rs, members.mask)
    encoding = _decoded(rs, codes).to_json_list()  # before the peel consumes the codes
    fc, abelian = not _has_pair(_irreducible_planes(rs), members.mask), is_abelian(rs, members)
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
