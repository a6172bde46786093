"""Sphericality of subspaces spanned by root vectors, and exhaustive verifiers.

The deterministic oracle decides whether ad(x)^4 = 0 identically on the span
of {e_a : a in Psi}.  Expanding (ad x)^4 for x = sum c_a e_a groups the
monomials by the multiset of the four roots involved; the coefficient
operator of each multiset is a sum over the distinct orderings of the
multiset, evaluated with unit coefficients.  In characteristic zero the
quartic vanishes identically iff every such operator vanishes, so the
decision is exact and needs no genericity assumption.  The obstructions
depend only on the algebra and are computed once per algebra:

- Weight filter.  The operator of a multiset with weight sigma moves a basis
  vector of weight mu to weight mu + sigma, so it can only be nonzero when
  sigma is in Phi or Phi - Phi.  The weight index of the root system
  (``_weight_index``) maps each such sigma to its decompositions mu -> mu +
  sigma, and only the multisets whose weight is in it reach the predicate
  (745 of 3 876 on B4).  The lemma sweep reads its a - b decompositions
  from the same index.
- Scalar chains.  Root spaces are one-dimensional, so ad(e_g) acts on them
  through int tables read off the sum and structure-constant tables; only
  a chain through weight 0 carries a rank-tuple on the Cartan.
- Shared suffixes.  The sum over distinct orderings is a pass over the
  sub-multisets, S(M)v = sum over distinct g in M of ad(e_g) S(M - g)v: at
  most 16 states per start instead of up to 24 orderings of four steps.
- Minimal supports.  A witness is the first nonvanishing multiset, in
  (support size, multiset) order, inside the set; its support is
  inclusion-minimal, so only the first multiset of each minimal support is
  built, by a walk over the supports that never generates one containing a
  support already found (56 predicate calls for 37 entries on B4, where
  706 multisets do not vanish; 255 calls for 255 entries on E6).  A set is
  spherical iff no listed support lies in it, a member scan like the pair
  flags' ``roots._has_pair``: the support masks are filed under their
  lowest member (``_by_lowest_member``), and a lookup reads the files of
  the set's members up to the first support inside.  The witness is the
  list's first entry inside the set.
"""
from __future__ import annotations

import functools
import itertools
import random

from .chevalley import ChevalleyAlgebra, ad_matrix, build_chevalley, height
from .errors import LiesphError, MismatchedSystems, write_stderr
from .linalg import mat_is_zero, mat_mul, matrix_rank
from .roots import PosRootSet, Root, RootSystem, _memo, _poset_tables, iter_bits
from . import weyl as _weyl


# -- deterministic quartic oracle ------------------------------------------------


@_memo
def _weight_index(rs: RootSystem) -> dict[int, list[tuple[int, int]]]:
    """The four-root multisets' weight index.

    Weights are ``rs.packed`` ints, so the weight of four positive roots is
    the sum of theirs.  The index maps each nonzero weight sigma >= 0 with
    mu + sigma in Phi or 0 for some root mu to its decompositions (mu, end),
    mu in index order: end is the root index of mu + sigma, or len(rs.roots)
    when mu + sigma = 0, in index order.

    The ends are read off the root poset, as coordinatewise order on
    positive roots is the poset's order: for mu > 0 they are the positive
    roots above mu; for mu = -m they are every positive root, then -e for
    each e < m, then 0.
    """
    npos, packed = rs.num_positive, rs.packed
    up = _poset_tables(rs)
    below = [0] * npos  # the e < m, per m
    for e, mask in enumerate(up):
        for m in iter_bits(mask & ~(1 << e)):
            below[m] |= 1 << e
    zero = len(rs.roots)
    index: dict[int, list[tuple[int, int]]] = {}
    for mu in range(npos):
        p = packed[mu]
        for end in iter_bits(up[mu] & ~(1 << mu)):
            index.setdefault(packed[end] - p, []).append((mu, end))
    for m in range(npos):
        mu, p = m + npos, packed[m]  # packed[mu] = -p
        for end in range(npos):
            index.setdefault(packed[end] + p, []).append((mu, end))
        for e in iter_bits(below[m]):
            index.setdefault(p - packed[e], []).append((mu, e + npos))
        index.setdefault(p, []).append((mu, zero))
    return index


class _ChainTables:
    """Integer tables for evaluating ad(e_g) chains, g positive, built with
    an algebra's quartic table; the weights the chains start from come from
    the root system's weight index (``_weight_index``).

    ``target[g][b]`` is the root index of g + b, ``cartan`` when b = -g, and
    -1 when [e_g, e_b] = 0; ``const[g][b]`` is N_{g,b}.  ``coroot[g]`` is
    [e_g, e_{-g}] on the simple coroots and ``cartan_row[g][k]`` the
    coefficient -<g, alpha_k> of [e_g, h_k] = -<g, alpha_k> e_g.
    """

    __slots__ = ("cartan", "target", "const", "coroot", "cartan_row")

    def __init__(self, L: ChevalleyAlgebra):
        rs = L.rs
        nr, npos, rank = L.num_roots, rs.num_positive, rs.rank
        self.cartan = nr
        self.target = []
        self.const = []
        for g in range(npos):
            sums = rs.sum_table[g]
            target = [-1 if s is None else s for s in sums]
            target[rs.neg_index(g)] = nr
            self.target.append(target)
            self.const.append([0 if s is None else L.ntab[(g, b)] for b, s in enumerate(sums)])
        self.coroot = L.coroot[:npos]
        simple = [rs.simple_root(k + 1).index for k in range(rank)]
        self.cartan_row = [tuple(-rs.pairing_table[g][a] for a in simple) for g in range(npos)]


def _starts(rs: RootSystem, decomps: list[tuple[int, int]]) -> list:
    """The chain starts (state, value) of a weight sigma with these
    decompositions in the weight index: the rank Cartan units first when
    sigma is a root (some mu + sigma = 0), then (mu, 1) for each
    decomposition."""
    zero = len(rs.roots)  # also the Cartan state of _ChainTables
    starts = [(mu, 1) for mu, _ in decomps]
    if any(end == zero for _, end in decomps):
        return [(zero, tuple(int(k == j) for j in range(rs.rank))) for k in range(rs.rank)] + starts
    return starts


@functools.lru_cache(maxsize=None)
def _sub_multiset_plan(mult: tuple[int, ...]) -> tuple:
    """The nonempty sub-multisets of a multiset with these multiplicities,
    smallest first; each is given by its (predecessor, distinct member)
    pairs, N - g for every distinct g in N.  State 0 is the empty multiset."""
    states = sorted(itertools.product(*(range(m + 1) for m in mult)), key=sum)
    pos = {c: i for i, c in enumerate(states)}
    return tuple(
        tuple((pos[c[:e] + (c[e] - 1,) + c[e + 1 :]], e) for e in range(len(c)) if c[e])
        for c in states[1:]
    )


def _p_multiset_vanishes(T: _ChainTables, multiset: tuple[int, ...], starts) -> bool:
    """Whether S(M), the sum of ad(e_g1)...ad(e_g4) over the distinct
    orderings of the sorted multiset M, kills every chain start.

    S(M)v = sum over distinct g in M of ad(e_g) S(M - g)v, so each start is
    one pass over the sub-multisets of M.  The weight of S(N)v is fixed by N,
    so a state is one int on a root space, or a rank-tuple on the Cartan;
    contributions to one state all land in the same place.
    """
    gs: list[int] = []
    mult: list[int] = []
    for g in multiset:
        if gs and gs[-1] == g:
            mult[-1] += 1
        else:
            gs.append(g)
            mult.append(1)
    plan = _sub_multiset_plan(tuple(mult))
    cartan = T.cartan
    rows = [(g, T.target[g], T.const[g], T.coroot[g], T.cartan_row[g]) for g in gs]
    for where0, val0 in starts:
        where = [where0]  # root index or cartan; -1 once the state is zero
        val = [val0]
        for preds in plan:
            at = -1
            acc = 0
            for p, e in preds:
                w = where[p]
                if w < 0:
                    continue
                g, target, const, coroot, cartan_row = rows[e]
                x = val[p]
                if w == cartan:
                    at = g
                    acc += sum(h * c for h, c in zip(x, cartan_row))
                elif target[w] == cartan:
                    at = cartan
                    h = tuple(x * c for c in coroot)
                    acc = tuple(a + c for a, c in zip(acc, h)) if acc else h
                elif target[w] >= 0:
                    at = target[w]
                    acc += x * const[w]
            live = any(acc) if at == cartan else acc
            where.append(at if live else -1)
            val.append(acc)
        if where[-1] >= 0:
            return False
    return True


@_memo
def quartic_obstructions(L: ChevalleyAlgebra) -> list[tuple[int, tuple[int, ...]]]:
    """The first nonvanishing size-4 multiset of each inclusion-minimal
    support, as (support mask, multiset) pairs in (support size, multiset)
    order.

    A walk builds the supports size by size, smallest first, and never one
    that contains a support already found: the members are drawn level by
    level from masks that leave out the partners of each member in found
    pairs and, from the third member on, the last members of found triples.
    No single root is a support: 4a is never in the weight index, since a
    root string holds at most four roots.  Each support's multisets are
    tried in lexicographic order up to the first that does not vanish; only
    those whose weight has chain starts reach _p_multiset_vanishes."""
    rs = L.rs
    T = _ChainTables(L)
    index = _weight_index(rs)
    starts_of: dict[int, list] = {}  # the chain starts of each weight reached
    packed, npos = rs.packed, rs.num_positive
    above = [((1 << npos) - 1) & -(2 << x) for x in range(npos)]  # the roots y > x
    partners = [0] * npos  # found pairs a < b: bit b of partners[a]
    thirds: dict[int, int] = {}  # found triples a < b < c: bit c of thirds[a * npos + b]
    minimal = []

    def nonvanishing(multiset, sigma) -> bool:
        # sigma is an indexed weight; a nonvanishing multiset is recorded
        starts = starts_of.get(sigma)
        if starts is None:
            starts = starts_of[sigma] = _starts(rs, index[sigma])
        if _p_multiset_vanishes(T, multiset, starts):
            return False
        minimal.append((sum(1 << g for g in set(multiset)), multiset))
        return True

    for a in range(npos):
        wa = packed[a]
        for b in iter_bits(above[a]):
            wb = packed[b]
            if ((3 * wa + wb in index and nonvanishing((a, a, a, b), 3 * wa + wb))
                    or (2 * (wa + wb) in index and nonvanishing((a, a, b, b), 2 * (wa + wb)))
                    or (wa + 3 * wb in index and nonvanishing((a, b, b, b), wa + 3 * wb))):
                partners[a] |= 1 << b
    for a in range(npos):
        ma = above[a] & ~partners[a]
        wa = packed[a]
        for b in iter_bits(ma):
            wb = packed[b]
            for c in iter_bits(ma & above[b] & ~partners[b]):
                wc = packed[c]
                w = wa + wb + wc
                if ((w + wa in index and nonvanishing((a, a, b, c), w + wa))
                        or (w + wb in index and nonvanishing((a, b, b, c), w + wb))
                        or (w + wc in index and nonvanishing((a, b, c, c), w + wc))):
                    thirds[a * npos + b] = thirds.get(a * npos + b, 0) | 1 << c
    for a in range(npos):
        ma = above[a] & ~partners[a]
        for b in iter_bits(ma):
            mb = ma & above[b] & ~partners[b] & ~thirds.get(a * npos + b, 0)
            wb = packed[a] + packed[b]
            for c in iter_bits(mb):
                mc = (mb & above[c] & ~partners[c] & ~thirds.get(a * npos + c, 0)
                      & ~thirds.get(b * npos + c, 0))
                wc = wb + packed[c]
                for d in iter_bits(mc):
                    sigma = wc + packed[d]
                    if sigma in index:
                        nonvanishing((a, b, c, d), sigma)
    minimal.sort(key=lambda entry: (entry[0].bit_count(), entry[1]))
    return minimal


_BY_LOWEST = "liesph.spherical._by_lowest_member"


def _by_lowest_member(L: ChevalleyAlgebra, minimal: list) -> list[list[int]]:
    """The support masks of ``minimal``, L's obstruction list, bucketed by
    their lowest member; kept on L beside the list, like a ``_memo`` table.
    It is built from the list a lookup already holds, so that a lookup asks
    for the list once."""
    buckets = L.__dict__.get(_BY_LOWEST)
    if buckets is None:
        buckets = L.__dict__[_BY_LOWEST] = [[] for _ in range(L.rs.num_positive)]
        for mask, _ in minimal:
            buckets[(mask & -mask).bit_length() - 1].append(mask)
    return buckets


def spherical_witness(L: ChevalleyAlgebra, ps: PosRootSet) -> tuple[int, ...] | None:
    """A nonvanishing multiset supported in ps, or None when spherical: the
    first minimal-list entry inside ps, which is also the first nonvanishing
    multiset in ps in (support size, multiset) order."""
    if ps.width != L.rs.num_positive:
        raise MismatchedSystems("bit vector from another system")
    outside = ~ps.mask
    return next((multiset for mask, multiset in quartic_obstructions(L) if not mask & outside), None)


def is_spherical_subspace(L: ChevalleyAlgebra, ps: PosRootSet) -> bool:
    """True iff ad(x)^4 = 0 for every x supported on ps: no support of the
    obstruction list lies in ps.  A support inside ps has its lowest member
    in ps, so only the buckets of ps's members are read, up to the first
    support inside."""
    if ps.width != L.rs.num_positive:
        raise MismatchedSystems("bit vector from another system")
    buckets = _by_lowest_member(L, quartic_obstructions(L))
    outside = ~ps.mask
    for m in iter_bits(ps.mask):
        for mask in buckets[m]:
            if not mask & outside:
                return False
    return True


def witness_coords(L: ChevalleyAlgebra, ps: PosRootSet) -> list[list[int]] | None:
    """The spherical_witness of ps as root coordinates, or None when spherical."""
    witness = spherical_witness(L, ps)
    return None if witness is None else [list(L.rs.roots[i].coords) for i in witness]


def make_report(L: ChevalleyAlgebra, ps: PosRootSet, subject: str) -> dict:
    """The part of ``inspect``'s report the span of ps decides: its type,
    the subject kind, the pairing test, and sphericality with the witness
    multiset when there is one."""
    rs = L.rs
    multiset = witness_coords(L, ps)
    return {
        "type": rs.cartan_type.name,
        "subject": subject,
        "pairing_ok": _weyl.pairing_nonneg(rs, ps),
        "spherical": multiset is None,
        "witness": None if multiset is None else {"multiset": multiset},
    }


# -- randomized cross-checks ------------------------------------------------------


def _samples(ps: PosRootSet, trials: int, seed: int):
    """The trials seeded random coefficient vectors supported on ps."""
    if trials < 1:
        raise LiesphError("trials must be >= 1")
    rng = random.Random(seed)
    support = sorted(ps.indices())
    for _ in range(trials):
        yield {i: rng.randint(1, 1 << 20) for i in support}


def generic_height(L: ChevalleyAlgebra, ps: PosRootSet, trials: int = 5, seed: int = 0) -> int:
    """Max height over random coefficient vectors supported on ps."""
    return max(height(L, x) for x in _samples(ps, trials, seed))


def orbit_fingerprint(L: ChevalleyAlgebra, ps: PosRootSet, trials: int = 5, seed: int = 0):
    """(orbit dimension, height, rank sequence of ad powers) of a generic sample.

    Ranks only drop on proper closed subsets, so the componentwise max over
    trials is the generic value up to sampling failure."""
    dim_orbit = 0
    best_height = 0
    ranks: list[int] = []
    for x in _samples(ps, trials, seed):
        mat = ad_matrix(L, x)
        power = mat
        seq = []
        while not mat_is_zero(power):
            seq.append(matrix_rank(power))
            power = mat_mul(mat, power)
        dim_orbit = max(dim_orbit, seq[0] if seq else 0)
        best_height = max(best_height, len(seq))
        for k, r in enumerate(seq):
            if k < len(ranks):
                ranks[k] = max(ranks[k], r)
            else:
                ranks.append(r)
    return (dim_orbit, best_height, tuple(ranks))


# -- orthogonal-pattern classification --------------------------------------------


def strongly_orthogonal(rs: RootSystem, a: Root, b: Root) -> bool:
    """Neither a+b nor a-b is a root."""
    if a.system is not rs or b.system is not rs:
        raise MismatchedSystems("root from another system")
    if b.index in (a.index, rs.neg_index(a.index)):
        raise LiesphError("strong orthogonality needs a != +-b")
    row = rs.sum_table[a.index]
    return row[b.index] is None and row[rs.neg_index(b.index)] is None


def _half_sum_root(rs: RootSystem, coords_list) -> bool:
    total = [0] * rs.rank
    for c in coords_list:
        for k in range(rs.rank):
            total[k] += c[k]
    if any(v % 2 for v in total):
        return False
    return tuple(v // 2 for v in total) in rs.index_of


def classify_nonspherical_orthogonal(rs: RootSystem, gamma) -> str:
    """Match an orthogonal set of positive roots against the patterns that
    force a non-spherical orbit: D4, BF4, B3 (first match wins), else none."""
    roots = list(gamma)
    for r in roots:
        if r.system is not rs:
            raise MismatchedSystems("root from another system")
    for x, a in enumerate(roots):
        for b in roots[x + 1 :]:
            if rs.pairing_table[a.index][b.index] != 0:
                raise LiesphError("classification requires pairwise orthogonal roots")
    # (D4): four distinct roots with half-sum in Phi
    for quad in itertools.combinations(roots, 4):
        if _half_sum_root(rs, [r.coords for r in quad]):
            return "D4"
    # (BF4): four distinct long roots splitting into two pairs with root half-sums
    longs = [r for r in roots if r.is_long]
    for quad in itertools.combinations(longs, 4):
        q = list(quad)
        for splits in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
            (a1, a2), (b1, b2) = splits
            if _half_sum_root(rs, [q[a1].coords, q[a2].coords]) and _half_sum_root(
                rs, [q[b1].coords, q[b2].coords]
            ):
                return "BF4"
    # (B3): two distinct long roots and a short one with (g1+g2+2*g3)/2 in Phi
    shorts = [r for r in roots if r.is_short]
    if rs.short_norm2 != rs.long_norm2:
        for g1, g2 in itertools.combinations(longs, 2):
            for g3 in shorts:
                if _half_sum_root(rs, [g1.coords, g2.coords, g3.coords, g3.coords]):
                    return "B3"
    return "none"


# -- exhaustive verifiers -----------------------------------------------------------


def verify_lemma_quadruples(rs: RootSystem) -> dict:
    """Sweep the size-4 positive-root multisets whose total sum has the shape
    a - b with a, b roots, nonnegative pairwise pairings and non-orthogonal
    support; check the structural conclusions on every witness."""
    npos = rs.num_positive
    pt = rs.pairing_table
    packed, index = rs.packed, _weight_index(rs)
    zero = len(rs.roots)
    # sigma = a - b as (a, b) root pairs, ordered by a
    differences = {
        sigma: sorted((end, mu) for mu, end in decomps if end != zero)
        for sigma, decomps in index.items()
    }
    # per root x, the roots y >= x with <x, y> >= 0: a multiset's members
    # are walked in the intersection of the masks of the members before it
    nonneg = [
        sum(1 << y for y in range(x, npos) if pt[x][y] >= 0) for x in range(npos)
    ]
    witnesses = []
    violations = []
    for multiset, sigma, decomps in _nonneg_quadruples(packed, nonneg, differences):
        distinct = sorted(set(multiset))
        if all(pt[x][y] == 0 for x, y in itertools.combinations(distinct, 2)):
            continue

        entry = {
            "multiset": [list(rs.roots[i].coords) for i in multiset],
            "decompositions": len(decomps),
        }
        if rs.cartan_type.is_simply_laced or rs.cartan_type.family == "G":
            violations.append({"multiset": entry["multiset"], "reason": "not doubly laced"})
        for a_idx, b_idx in decomps:
            if b_idx != rs.neg_index(a_idx):
                violations.append({"multiset": entry["multiset"], "reason": "sum not 2*alpha"})
            elif not rs.roots[a_idx].is_long:
                violations.append({"multiset": entry["multiset"], "reason": "alpha not long"})
        longs = [i for i in distinct if rs.roots[i].is_long]
        entry["long_members"] = len(longs)
        if len(longs) > 1:
            violations.append({"multiset": entry["multiset"], "reason": "two long members"})
        elif len(longs) == 1:
            rest = [i for i in multiset if i != longs[0]]
            if any(pt[longs[0]][j] != 0 for j in rest):
                violations.append(
                    {"multiset": entry["multiset"], "reason": "long member not orthogonal to rest"}
                )
        if not longs:
            # a split into two pairs with equal sums: one pair sums to sigma / 2
            first = packed[multiset[0]]
            if not any(2 * (first + packed[j]) == sigma for j in multiset[1:]):
                violations.append(
                    {"multiset": entry["multiset"], "reason": "short quadruple has no equal-sum split"}
                )
        witnesses.append(entry)

    report = {
        "type": rs.cartan_type.name,
        "multisets_scanned": _count_multisets(npos),
        "witnesses": len(witnesses),
        "with_long_member": sum(1 for w in witnesses if w["long_members"] == 1),
        "all_short": sum(1 for w in witnesses if w["long_members"] == 0),
        "violations": violations,
    }
    if rs.cartan_type.name == "F4":
        target = [[1, 0, 0, 0], [1, 2, 2, 1], [1, 2, 3, 1], [1, 2, 3, 2]]
        report["f4_long_example_found"] = any(
            sorted(w["multiset"]) == sorted(target) for w in witnesses
        )
    return report


def _nonneg_quadruples(packed: list[int], nonneg: list[int], differences: dict):
    """Yield (multiset, sigma, differences[sigma]) for the sorted size-4
    positive-root multisets with pairwise nonnegative pairings whose packed
    weight sigma has a nonempty entry, in lexicographic order."""
    get = differences.get
    for a, ma in enumerate(nonneg):
        wa = packed[a]
        for b in iter_bits(ma):
            mb = ma & nonneg[b]
            wb = wa + packed[b]
            for c in iter_bits(mb):
                mc = mb & nonneg[c]
                wc = wb + packed[c]
                for d in iter_bits(mc):
                    sigma = wc + packed[d]
                    decomps = get(sigma)
                    if decomps:
                        yield (a, b, c, d), sigma, decomps


def _count_multisets(n: int) -> int:
    return n * (n + 1) * (n + 2) * (n + 3) // 24


def verify_subspace_theorem(rs: RootSystem, L: ChevalleyAlgebra | None = None) -> dict:
    """Sphericality of a_Psi iff all pairings >= 0, over every biconvex set
    and every combinatorial ideal (outside G2, where the biconditionals are
    commutativity-based instead)."""
    from . import ideals as _ideals

    L = L or build_chevalley(rs)
    is_g2 = rs.cartan_type.name == "G2"
    mismatches = []
    n_biconvex = 0
    for w in _weyl.enumerate_weyl(rs):
        n_biconvex += 1
        sph = is_spherical_subspace(L, w.inv)
        ref = _weyl.is_commutative_inv(w) if is_g2 else _weyl.pairing_nonneg(rs, w.inv)
        if sph != ref:
            mismatches.append({"subject": "biconvex", "word": list(w.word)})
    ideal_list = _ideals.enumerate_ideals(rs)
    for members in ideal_list:
        sph = is_spherical_subspace(L, members)
        ref = _ideals.is_abelian(rs, members) if is_g2 else _weyl.pairing_nonneg(rs, members)
        if sph != ref:
            mismatches.append(
                {"subject": "ideal", "members": [list(rs.roots[i].coords) for i in members]}
            )
    return {
        "type": rs.cartan_type.name,
        "criterion": "commutative/abelian" if is_g2 else "pairing_nonneg",
        "biconvex_subjects": n_biconvex,
        "ideal_subjects": len(ideal_list),
        "mismatches": mismatches,
    }


# (rs, L, elements) while verify_theorem1 runs; forked pool workers inherit
# it instead of receiving it pickled
_T1_STATE = None


def _t1_check(span: range):
    rs, L, elements = _T1_STATE
    is_g2 = rs.cartan_type.name == "G2"
    simply = rs.cartan_type.is_simply_laced
    n_dec = n_sph = 0
    mismatches = []
    for w in elements[span.start : span.stop]:
        sph = is_spherical_subspace(L, w.inv)
        dec = _weyl.is_commutative_inv(w) if is_g2 else _weyl.is_fc_inv(w)
        n_dec += dec
        n_sph += sph
        if simply and _weyl.is_commutative_inv(w) != dec:
            mismatches.append({"word": list(w.word), "reason": "fc != commutative in simply laced type"})
        if dec != sph:
            mismatches.append(
                {
                    "word": list(w.word),
                    "decider": "commutative" if is_g2 else "fully_commutative",
                    "decider_value": dec,
                    "spherical": sph,
                    **({} if sph else {"witness": witness_coords(L, w.inv)}),
                }
            )
    return n_dec, n_sph, mismatches


def _parallel_chunks(fn, chunks, workers: int):
    """Run a module-level worker over chunks, forking when workers > 1.

    Runs serially, with one line on stderr, only when no pool can be
    created; an exception raised by fn propagates.  Results come back in
    submission order either way."""
    if workers <= 1 or len(chunks) <= 1:
        return [fn(c) for c in chunks]
    try:
        import multiprocessing as mp

        pool = mp.get_context("fork").Pool(workers)
    except (ImportError, OSError, ValueError) as exc:
        write_stderr(f"warning: no worker pool ({exc}); running serially")
        return [fn(c) for c in chunks]
    with pool:
        return pool.map(fn, chunks)


def _split(items, workers: int):
    n = max(1, min(len(items), workers * 4))
    size = (len(items) + n - 1) // n
    return [items[i : i + size] for i in range(0, len(items), size)]


def verify_theorem1(rs: RootSystem, L: ChevalleyAlgebra | None = None, workers: int = 1) -> dict:
    """Spherical a_w iff w fully commutative (commutative in G2), per element.

    In simply laced types the commutative decider must agree with the fully
    commutative one; disagreements are reported as mismatches too."""
    global _T1_STATE
    elements = list(_weyl.enumerate_weyl(rs))
    L = L or build_chevalley(rs)
    _by_lowest_member(L, quartic_obstructions(L))  # materialize before any worker split
    _T1_STATE = (rs, L, elements)
    try:
        results = _parallel_chunks(_t1_check, _split(range(len(elements)), workers), workers)
    finally:
        _T1_STATE = None
    mismatches = []
    n_dec = n_sph = 0
    for dec, sph, out in results:
        n_dec += dec
        n_sph += sph
        mismatches.extend(out)
    return {
        "type": rs.cartan_type.name,
        "decider": "commutative" if rs.cartan_type.name == "G2" else "fully_commutative",
        "elements": len(elements),
        "decider_count": n_dec,
        "spherical_count": n_sph,
        "mismatches": mismatches,
    }
