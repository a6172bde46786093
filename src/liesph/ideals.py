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
    _decompositions,
    _has_summing_pair,
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
    the codes of the encoding ``psi_hat``, in one pass by height.  The
    layers nest, so the deepest layer of a member, its depth, is 1 plus
    that of the deeper summand, over its decompositions into two members,
    and 1 when it has none; member g of depth d gives the codes of
    k*delta - g for 1 <= k <= d (``_code_ladders``).  Full commutativity
    reads the layer masks (``_is_fc_by_layers``)."""
    npos = rs.num_positive
    pairs, ladders = _decompositions(rs)[0], _code_ladders(rs)
    depth = [0] * npos
    by_depth = []  # members of deepest layer d + 1
    codes = set()
    for g in iter_bits(mask):  # root indices increase with height
        d = 0
        for f, h in pairs[g]:
            if h >= npos:  # the pairs of positive roots come first
                break
            df, dh = depth[f], depth[h]
            if df and dh:
                if df < dh:
                    df = dh
                if df > d:
                    d = df
        depth[g] = d + 1
        codes.update(ladders[g][:d + 1])
        if d == len(by_depth):
            by_depth.append(0)
        by_depth[d] |= 1 << g
    layers = []
    layer = 0
    for bits in reversed(by_depth):
        layer |= bits
        layers.append(layer)
    return layers[::-1] or [0], codes


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


def verify_theorem2(rs: RootSystem, L: ChevalleyAlgebra | None = None) -> dict:
    """Per ideal: spherical iff the affine element is fully commutative
    (commutative in G2); abelian iff a single layer; spherical forces the
    third layer to vanish.  Commutativity of w_I is abelianness, so the
    report counts them once: a sum of real affine roots is real iff their
    finite parts sum to a root, the encoding's finite parts are the negated
    members, and a + b is a root iff -a - b is.

    Each ideal's layer masks and encoding codes come from one pass
    (``_layers``), read by the per-ideal path the atlas and ``inspect``
    share: the codes are peeled once (``affine._checked_peel``), and an
    encoding that fails is a mismatch naming the check; fc is read off the
    layers (``_is_fc_by_layers``).  Member coordinates, and the witness of a
    subject the decider passes but that is not spherical, are built only for
    the mismatches."""
    L = L or build_chevalley(rs)
    is_g2 = rs.cartan_type.name == "G2"
    mismatches = []
    n_spherical = n_abelian = n_fc = 0
    ideal_list = enumerate_ideals(rs)
    for members in ideal_list:
        layers, codes = _layers(rs, members.mask)
        try:
            _checked_peel(rs, codes)
        except LiesphError as exc:  # the peel stuck, or its word is short
            mismatches.append({"members": members, "reason": f"affine encoding: {exc}"})
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
    affine encoding, the word of w_I and the flags but sphericality, by the
    per-ideal path of ``verify_theorem2``: one code set is both the
    ``psi_hat`` field and the peeled encoding.  A failed encoding raises."""
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
