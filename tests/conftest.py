import functools
import os

from liesph.chevalley import build_chevalley
from liesph.roots import build_root_system

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


@functools.lru_cache(maxsize=None)
def get_rs(name: str, swap: bool = False):
    return build_root_system(name, swap=swap)


@functools.lru_cache(maxsize=None)
def get_algebra(name: str, sign: int = 1):
    return build_chevalley(get_rs(name), sign)


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
