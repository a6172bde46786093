"""Root poset, ad-nilpotent (combinatorial) ideals, layer sequences, and the
affine encoding of an ideal as an inversion set.

A combinatorial ideal is a positive-root set closed under adding arbitrary
positive roots; equivalently an up-set of the root poset.  Its layers
Psi^(k) = (Psi^(k-1) + Psi) cap Phi^+ shrink to empty, and
{k*delta - a : a in Psi^(k)} is a finite biconvex set of positive affine
roots, hence the inversion set of a unique affine Weyl group element.
"""

from __future__ import annotations

from .affine import (
    AffineRootSet,
    AffineWeylWord,
    element_from_biconvex_affine,
    is_commutative_affine,
    is_fc_affine,
)
from .chevalley import ChevalleyAlgebra, build_chevalley
from .errors import LiesphError, MismatchedSystems
from .roots import PosRootSet, Root, RootSystem, _FrozenRecord, has_summing_pair, iter_bits


class CombinatorialIdeal(_FrozenRecord):
    __slots__ = ("members", "layers")

    def __init__(self, members: PosRootSet, layers: tuple[PosRootSet, ...]):
        super().__init__(members, layers)  # layers[0] = Psi^(1) = members

    @property
    def size(self) -> int:
        return len(self.members)


def _poset_tables(rs: RootSystem):
    """Up-set masks of the root poset (cover = adding one simple root)."""
    cached = getattr(rs, "_poset_up", None)
    if cached is not None:
        return cached
    npos = rs.num_positive
    simples = [rs.simple_root(i + 1).index for i in range(rs.rank)]
    up = [0] * npos
    for i in sorted(range(npos), key=lambda j: -rs.roots[j].height):
        mask = 1 << i
        for s in simples:
            j = rs.sum_table[i][s]
            if j is not None:
                mask |= up[j]
        up[i] = mask
    rs._poset_up = up
    return up


def root_poset_leq(rs: RootSystem, a: Root, b: Root) -> bool:
    """a <= b: b reachable from a by adding simple roots inside Phi^+."""
    if a.system is not rs or b.system is not rs:
        raise MismatchedSystems("root from another system")
    if not (a.is_positive and b.is_positive):
        raise LiesphError("root poset is over the positive roots")
    return bool(_poset_tables(rs)[a.index] >> b.index & 1)


def is_combinatorial_ideal(rs: RootSystem, ps: PosRootSet) -> bool:
    """Closed under addition of arbitrary positive roots."""
    if ps.width != rs.num_positive:
        raise MismatchedSystems("bit vector from another system")
    mask = ps.mask
    for i in ps.indices():
        for b in range(rs.num_positive):
            s = rs.sum_table[i][b]
            if s is not None and not mask >> s & 1:
                return False
    return True


def _layers(rs: RootSystem, mask: int) -> tuple[PosRootSet, ...]:
    npos = rs.num_positive
    out = [PosRootSet(mask, npos)]
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
        out.append(PosRootSet(nxt, npos))
        cur = nxt
    return tuple(out)


def make_ideal(rs: RootSystem, ps: PosRootSet) -> CombinatorialIdeal:
    if not is_combinatorial_ideal(rs, ps):
        raise LiesphError("set is not closed under adding positive roots")
    return CombinatorialIdeal(ps, _layers(rs, ps.mask))


def ideal_from_generators(rs: RootSystem, generators) -> CombinatorialIdeal:
    """Up-closure of a set of positive roots."""
    up = _poset_tables(rs)
    mask = 0
    for g in generators:
        idx = g.index if isinstance(g, Root) else int(g)
        if not 0 <= idx < rs.num_positive:
            raise LiesphError("generators must be positive roots")
        mask |= up[idx]
    return make_ideal(rs, PosRootSet(mask, rs.num_positive))


def minimal_generators(rs: RootSystem, ps: PosRootSet) -> list[int]:
    """Minimal members (the antichain generating the up-set)."""
    up = _poset_tables(rs)
    out = []
    for i in ps.indices():
        if not any(j != i and up[j] >> i & 1 for j in ps.indices()):
            out.append(i)
    return out


def enumerate_ideals(rs: RootSystem) -> list[CombinatorialIdeal]:
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
    return [CombinatorialIdeal(PosRootSet(m, npos), _layers(rs, m)) for m in masks]


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
    return not has_summing_pair(rs, ps.indices())


def psi_hat(rs: RootSystem, ideal: CombinatorialIdeal) -> AffineRootSet:
    """Affine encoding: union over k of {k*delta - a : a in Psi^(k)}.

    The set is biconvex (Cellini-Papi); ``element_from_biconvex_affine``
    checks that once, when it turns the set into its element."""
    keys = []
    for k, layer in enumerate(ideal.layers, start=1):
        for i in layer.indices():
            keys.append((k, rs.neg_index(i)))
    return AffineRootSet(rs, keys)


def w_of_ideal(rs: RootSystem, ideal: CombinatorialIdeal) -> AffineWeylWord:
    return element_from_biconvex_affine(psi_hat(rs, ideal))


def verify_theorem2(rs: RootSystem, L: ChevalleyAlgebra | None = None) -> dict:
    """Per ideal: spherical iff the affine element is fully commutative
    (commutative in G2); abelian iff commutative; spherical forces the third
    layer to vanish.  Building the affine element checks that the encoding is
    biconvex and round-trips; a failure is a mismatch naming the check."""
    from .spherical import is_spherical_subspace

    L = L or build_chevalley(rs)
    is_g2 = rs.cartan_type.name == "G2"
    mismatches = []
    n_spherical = n_abelian = n_fc = n_comm = 0
    ideal_list = enumerate_ideals(rs)
    for ideal in ideal_list:
        coords = [list(rs.roots[i].coords) for i in ideal.members]
        S = psi_hat(rs, ideal)
        try:
            element_from_biconvex_affine(S)
        except LiesphError as exc:  # the encoding is not biconvex, or does not round-trip
            mismatches.append({"members": coords, "reason": f"affine encoding: {exc}"})
        sph = is_spherical_subspace(L, ideal.members)
        fc = is_fc_affine(S)
        comm = is_commutative_affine(S)
        abelian = is_abelian(rs, ideal.members)
        n_spherical += sph
        n_abelian += abelian
        n_fc += fc
        n_comm += comm
        dec = comm if is_g2 else fc
        if dec != sph:
            mismatches.append(
                {"members": coords, "decider_value": dec, "spherical": sph}
            )
        if abelian != comm:
            mismatches.append({"members": coords, "reason": "abelian != commutative"})
        if sph and len(ideal.layers) > 2:
            mismatches.append({"members": coords, "reason": "spherical ideal with layer 3"})
        if abelian != (len(ideal.layers) <= 1):
            mismatches.append({"members": coords, "reason": "abelian != single layer"})
    return {
        "type": rs.cartan_type.name,
        "decider": "commutative" if is_g2 else "fully_commutative",
        "ideals": len(ideal_list),
        "spherical": n_spherical,
        "abelian": n_abelian,
        "fc": n_fc,
        "commutative": n_comm,
        "mismatches": mismatches,
    }


def maximal_spherical_ideals(records: list[dict]) -> list[list[list[int]]]:
    """Maximal members among the spherical ideals of an ``ideal_atlas``
    (informational listing), each as its sorted member coordinates."""
    spherical = [{tuple(c) for c in r["members"]} for r in records if r["spherical"]]
    return sorted(sorted(map(list, m)) for m in spherical if not any(m < o for o in spherical))


def ideal_atlas(rs: RootSystem, L: ChevalleyAlgebra | None = None) -> list[dict]:
    """One JSON-ready record per ideal: generators, members, layers, affine
    encoding, word, and the classification flags."""
    from .spherical import is_spherical_subspace

    L = L or build_chevalley(rs)
    records = []
    for ideal in enumerate_ideals(rs):
        S = psi_hat(rs, ideal)
        w = element_from_biconvex_affine(S)
        records.append(
            {
                "generators": [list(rs.roots[i].coords) for i in minimal_generators(rs, ideal.members)],
                "members": [list(rs.roots[i].coords) for i in ideal.members],
                "layers": [[list(rs.roots[i].coords) for i in layer.indices()] for layer in ideal.layers],
                "psi_hat": S.to_json_list(),
                "w_word": list(w.word),
                "abelian": is_abelian(rs, ideal.members),
                "commutative": is_commutative_affine(S),
                "fc": is_fc_affine(S),
                "spherical": is_spherical_subspace(L, ideal.members),
            }
        )
    return records
