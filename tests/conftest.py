import functools
import os

from liesph.chevalley import build_chevalley
from liesph.errors import MismatchedSystems
from liesph.roots import PosRootSet, RootSystem, build_root_system, iter_bits

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


@functools.lru_cache(maxsize=None)
def get_rs(name: str, swap: bool = False):
    return build_root_system(name, swap=swap)


@functools.lru_cache(maxsize=None)
def get_algebra(name: str, sign: int = 1):
    return build_chevalley(get_rs(name), sign)


# -- reference: biconvexity as closure of a set and its complement ----------


def reference_is_biconvex_affine(S):
    """Closure of S and of its complement, scanning a whole sum-table row
    per key: a reference for the library's verdict, which is the peel's.
    On A1 closure is weaker than being an inversion set, as no two real
    roots sum to a root there."""
    rs = S.system
    keys = S.keys
    pairs = sorted(keys)
    for x, (la, fa) in enumerate(pairs):
        for lb, fb in pairs[x:]:
            s = rs.sum_table[fa][fb]
            if s is not None and (la + lb, s) not in keys:
                return False
    npos = rs.num_positive
    for lg, fg in pairs:
        for h, g2 in enumerate(rs.sum_table[fg]):
            if g2 is None:
                continue
            f = rs.neg_index(h)
            for m in range(f >= npos, lg + (g2 < npos)):
                if (m, f) not in keys and (lg - m, g2) not in keys:
                    return False
    return True


# -- reference: finite biclosed and biconvex sets by pair scans --------------
# closure and convexity of a set and of its complement, held against
# weyl.element_from_biconvex, whose peel is the library's decider


def plane_solver(a_coords, b_coords):
    """Return a function solving x*a + y*b = c exactly, or None if no solution.

    Requires a, b linearly independent; returns None-returning solver entries
    as (x, y) Fractions.
    """
    from fractions import Fraction

    n = len(a_coords)
    minor = None
    for k in range(n):
        for l in range(k + 1, n):
            det = a_coords[k] * b_coords[l] - a_coords[l] * b_coords[k]
            if det:
                minor = (k, l, det)
                break
        if minor:
            break
    if minor is None:
        return None

    k, l, det = minor

    def solve(c_coords):
        x = Fraction(c_coords[k] * b_coords[l] - c_coords[l] * b_coords[k], det)
        y = Fraction(a_coords[k] * c_coords[l] - a_coords[l] * c_coords[k], det)
        for i in range(n):
            if x * a_coords[i] + y * b_coords[i] != c_coords[i]:
                return None
        return x, y

    return solve


def _is_closed_mask(rs: RootSystem, mask: int) -> bool:
    idxs = list(iter_bits(mask))
    st = rs.sum_table
    for x, a in enumerate(idxs):
        row = st[a]
        for b in idxs[x:]:
            s = row[b]
            if s is not None and not mask >> s & 1:
                return False
    return True


def is_biclosed(rs: RootSystem, ps: PosRootSet) -> bool:
    if ps.width != rs.num_positive:
        raise MismatchedSystems("bit vector from another system")
    full = (1 << rs.num_positive) - 1
    return _is_closed_mask(rs, ps.mask) and _is_closed_mask(rs, full & ~ps.mask)


def _is_convex_mask(rs: RootSystem, mask: int) -> bool:
    idxs = list(iter_bits(mask))
    for x, a in enumerate(idxs):
        for b in idxs[x + 1 :]:
            solve = plane_solver(rs.roots[a].coords, rs.roots[b].coords)
            if solve is None:
                continue
            for c in range(rs.num_positive):
                if mask >> c & 1:
                    continue
                sol = solve(rs.roots[c].coords)
                if sol is not None and sol[0] > 0 and sol[1] > 0:
                    return False
    return True


def is_biconvex(rs: RootSystem, ps: PosRootSet) -> bool:
    if ps.width != rs.num_positive:
        raise MismatchedSystems("bit vector from another system")
    full = (1 << rs.num_positive) - 1
    return _is_convex_mask(rs, ps.mask) and _is_convex_mask(rs, full & ~ps.mask)


# -- reference: full commutativity by plane positive systems ----------------


def key_mask(rs, keys) -> int:
    """Bit mask of positive affine roots given as (level, root index) keys,
    with bit ``level * len(rs.roots) + index``."""
    width = len(rs.roots)
    mask = 0
    for level, f in keys:
        mask |= 1 << (level * width + f)
    return mask


_PLANE_SYSTEMS = {}


def plane_positive_systems(rs, members) -> tuple:
    """``key_mask``s of the positive systems, made only of positive affine
    roots, of a plane with these member keys: for each pair of members that
    is a base, the members that are nonnegative combinations of it.
    Memoized by the members."""
    memo_key = (rs, tuple(members))
    hit = _PLANE_SYSTEMS.get(memo_key)
    if hit is not None:
        return hit
    # coefficients of each member in the basis of the first member and the
    # first member not proportional to it, scaled by one nonzero minor
    p = rs.roots[members[0][1]].coords
    for _, fq in members:
        q = rs.roots[fq].coords
        minor = next(((k, l) for k in range(rs.rank) for l in range(k + 1, rs.rank)
                      if p[k] * q[l] - p[l] * q[k]), None)
        if minor:
            break
    k, l = minor
    coeffs = [(c[k] * q[l] - c[l] * q[k], p[k] * c[l] - p[l] * c[k])
              for c in (rs.roots[f].coords for _, f in members)]
    npos = rs.num_positive
    psys = []
    for i, (xi, yi) in enumerate(coeffs):
        for xj, yj in coeffs[i + 1 :]:
            d = xi * yj - yi * xj
            if not d:  # opposite roots
                continue
            pos = []
            for m, (x, y) in zip(members, coeffs):
                # m is (s*p + t*q) / d**2 in this pair p, q; only signs matter
                s, t = (x * yj - y * xj) * d, (xi * y - yi * x) * d
                if s * t < 0:
                    break
                if s > 0 or t > 0:
                    pos.append(m)
            else:
                if all(level > 0 or (level == 0 and f < npos) for level, f in pos):
                    psys.append(key_mask(rs, pos))
    _PLANE_SYSTEMS[memo_key] = tuple(psys)
    return _PLANE_SYSTEMS[memo_key]


def is_fc_by_positive_systems(rs, keys) -> bool:
    """No irreducible plane parabolic through two of the keys has a positive
    system inside them.  Pairs with proportional finite parts are skipped:
    their plane contains the imaginary direction."""
    from liesph.roots import plane_parabolic

    mask = key_mask(rs, keys)
    keys = sorted(keys)
    for x, u in enumerate(keys):
        for v in keys[x + 1 :]:
            if v[1] in (u[1], rs.neg_index(u[1])):
                continue
            members, irreducible, _ = plane_parabolic(rs, u, v)
            if irreducible and any(p & ~mask == 0 for p in plane_positive_systems(rs, members)):
                return False
    return True


# -- reference: irreducible planes from the table of every plane -------------


def reference_irreducible_planes(rs: RootSystem) -> list:
    """``_irreducible_planes`` read off ``_plane_table``, which buckets every
    pair of positive roots by plane: per positive root, the positive roots
    it is a base with, in the planes with more than four roots, each pair
    tested for a base by ``plane_parabolic``."""
    from liesph.roots import _plane_table, plane_parabolic

    npos = rs.num_positive
    partners = [0] * npos
    for plane, _, _ in {hit for hit in _plane_table(rs).values() if len(hit[0]) > 4}:
        positive = [q for q in plane if q < npos]
        for x, f in enumerate(positive):
            for h in positive[x + 1 :]:
                if plane_parabolic(rs, (0, f), (0, h))[2]:
                    partners[f] |= 1 << h
                    partners[h] |= 1 << f
    return partners


# -- reference: nonnegative pairings by a scan of every pair -----------------


def reference_pairing_nonneg(rs: RootSystem, ps: PosRootSet) -> bool:
    """No two members pair negatively, over every pair of members."""
    idxs = list(ps.indices())
    pt = rs.pairing_table
    for x, a in enumerate(idxs):
        row = pt[a]
        for b in idxs[x + 1 :]:
            if row[b] < 0:
                return False
    return True
