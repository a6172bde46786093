"""Finite irreducible root systems of types A-G with exact integer tables.

Roots are integer coordinate vectors over the simple roots (Bourbaki
numbering).  The invariant form is normalized so that the highest short
root has squared length 2, which keeps every Gram entry an integer.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import LiesphError, MismatchedSystems

_RANK_CONSTRAINTS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

_WEYL_ORDER_EXC = {"E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12}


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


class _Record:
    """A plain record over its ``__slots__``, compared, printed and pickled
    field by field; unhashable, like any mutable value."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class _FrozenRecord(_Record):
    """A record whose fields are set once, in ``__init__``, and hashed."""

    __slots__ = ()

    def __init__(self, *values):
        for f, v in zip(self.__slots__, values):
            object.__setattr__(self, f, v)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CartanType(_FrozenRecord):
    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        check = _RANK_CONSTRAINTS.get(family)
        if check is None:
            raise LiesphError(f"unknown family {family!r}")
        if not check(rank):
            raise LiesphError(f"invalid rank {rank} for family {family}")
        super().__init__(family, rank)

    @classmethod
    def parse(cls, name: str) -> "CartanType":
        name = name.strip()
        digits = name[1:]
        # int() would also read "1_0", "+2", " 2" and non-ASCII digits
        if name[:1].upper() not in _RANK_CONSTRAINTS or not (digits.isascii() and digits.isdigit()):
            raise LiesphError(f"cannot parse Cartan type {name!r}")
        return cls(name[0].upper(), int(digits))

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def is_simply_laced(self) -> bool:
        return self.family in ("A", "D", "E")

    @property
    def is_doubly_laced(self) -> bool:
        return self.family in ("B", "C", "F")

    def num_positive_roots(self) -> int:
        n = self.rank
        if self.family == "A":
            return n * (n + 1) // 2
        if self.family in ("B", "C"):
            return n * n
        if self.family == "D":
            return n * (n - 1)
        if self.family == "F":
            return 24
        if self.family == "G":
            return 6
        return {6: 36, 7: 63, 8: 120}[n]

    def weyl_order(self) -> int:
        n = self.rank
        if self.family == "A":
            return _factorial(n + 1)
        if self.family in ("B", "C"):
            return (1 << n) * _factorial(n)
        if self.family == "D":
            return (1 << (n - 1)) * _factorial(n)
        return _WEYL_ORDER_EXC[self.name]


def _dynkin_data(ct: CartanType) -> tuple[list[tuple[int, int]], list[int]]:
    """Edges (0-based node pairs) and half squared norms d_i of the simple roots."""
    n = ct.rank
    chain = [(i, i + 1) for i in range(n - 1)]
    if ct.family == "A":
        return chain, [1] * n
    if ct.family == "B":
        return chain, [2] * (n - 1) + [1]
    if ct.family == "C":
        return chain, [1] * (n - 1) + [2]
    if ct.family == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
        return edges, [1] * n
    if ct.family == "E":
        edges = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)]
        if n >= 7:
            edges.append((5, 6))
        if n == 8:
            edges.append((6, 7))
        return edges, [1] * n
    if ct.family == "F":
        return chain, [2, 2, 1, 1]
    return [(0, 1)], [1, 3]  # G2, alpha1 short


class Root:
    """A root, as integer coordinates over the simple roots of its system."""

    __slots__ = ("system", "index", "coords")

    def __init__(self, system: "RootSystem", index: int, coords: tuple[int, ...]):
        self.system = system
        self.index = index
        self.coords = coords

    @property
    def height(self) -> int:
        return sum(self.coords)

    @property
    def is_positive(self) -> bool:
        return self.index < self.system.num_positive

    @property
    def norm2(self) -> int:
        return self.system.norm2[self.index]

    @property
    def is_long(self) -> bool:
        return self.norm2 == self.system.long_norm2

    @property
    def is_short(self) -> bool:
        return self.norm2 == self.system.short_norm2

    def __neg__(self) -> "Root":
        return self.system.root(self.system.neg_index(self.index))

    def __eq__(self, other):
        return (
            isinstance(other, Root)
            and other.system is self.system
            and other.index == self.index
        )

    def __hash__(self):
        return hash((id(self.system), self.index))

    def __repr__(self):
        return f"Root({self.coords})"


class PosRootSet:
    """Subset of the positive roots of one system, as a fixed-width bit vector."""

    __slots__ = ("mask", "width")

    def __init__(self, mask: int, width: int):
        if mask < 0 or mask >> width:
            raise LiesphError("bit vector out of range for its width")
        self.mask = mask
        self.width = width

    @classmethod
    def from_indices(cls, indices, width: int) -> "PosRootSet":
        mask = 0
        for i in indices:
            if not 0 <= i < width:
                raise LiesphError(f"index {i} is not a positive-root index")
            mask |= 1 << i
        return cls(mask, width)

    def indices(self):
        return iter_bits(self.mask)

    def __contains__(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return self.indices()

    def __eq__(self, other):
        return (
            isinstance(other, PosRootSet)
            and other.mask == self.mask
            and other.width == self.width
        )

    def __hash__(self):
        return hash((self.mask, self.width))

    def _check(self, other: "PosRootSet"):
        if self.width != other.width:
            raise MismatchedSystems("bit vectors of different widths")

    def union(self, other: "PosRootSet") -> "PosRootSet":
        self._check(other)
        return PosRootSet(self.mask | other.mask, self.width)

    def intersection(self, other: "PosRootSet") -> "PosRootSet":
        self._check(other)
        return PosRootSet(self.mask & other.mask, self.width)

    def difference(self, other: "PosRootSet") -> "PosRootSet":
        self._check(other)
        return PosRootSet(self.mask & ~other.mask, self.width)

    def complement(self) -> "PosRootSet":
        return PosRootSet(~self.mask & ((1 << self.width) - 1), self.width)

    def issubset(self, other: "PosRootSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __repr__(self):
        return f"PosRootSet({sorted(self.indices())}, width={self.width})"


class RootSystem:
    """Immutable tables for one finite irreducible root system.

    Positive roots come first in ``roots``, sorted by height and then by
    descending lexicographic coordinates; ``roots[i + num_positive]`` is the
    negative of ``roots[i]``.

    ``packed[i]`` is root i as one int (see ``__init__``); the sum table and
    the reflections are lookups of packed sums in ``_packed_index``.

    ``affine_letters[i]`` is the affine simple reflection s_i on
    ``(level, root index)`` keys: ``(alpha_i key, root permutation, level
    shift per root)``, with s_0 the reflection in delta - theta.

    Memo tables fill lazily and idempotently, so concurrent readers at worst
    duplicate work: ``_plane_cache`` holds every rank-2 plane parabolic, finite
    and affine alike (see ``plane_parabolic``), the ideals module stashes the
    root poset's up-sets, and the affine module its root codes and the
    decompositions of each root into two.
    """

    def __init__(self, cartan_type: CartanType, swap: bool = False):
        if swap and not (cartan_type.rank == 2 and cartan_type.family in ("B", "C", "G")):
            raise LiesphError("swap flag is only supported for rank-2 types B2/C2/G2")
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.swapped = swap

        edges, d = _dynkin_data(cartan_type)
        if swap:
            relabel = {i: self.rank - 1 - i for i in range(self.rank)}
            edges = [(relabel[i], relabel[j]) for i, j in edges]
            d = list(reversed(d))
        adjacent = {frozenset(e) for e in edges}
        self.simple_norms = tuple(d)
        self.gram = tuple(
            tuple(
                2 * d[i] if i == j else (-max(d[i], d[j]) if frozenset((i, j)) in adjacent else 0)
                for j in range(self.rank)
            )
            for i in range(self.rank)
        )

        positives = self._generate_positive_roots()
        expected = cartan_type.num_positive_roots()
        if len(positives) != expected:
            raise LiesphError(
                f"closure produced {len(positives)} positive roots, expected {expected}"
            )
        positives.sort(key=lambda c: (sum(c), tuple(-x for x in c)))
        self.num_positive = npos = len(positives)
        coords_list = positives + [tuple(-x for x in c) for c in positives]
        self.roots = [Root(self, i, c) for i, c in enumerate(coords_list)]
        self.index_of = {c: i for i, c in enumerate(coords_list)}

        # signed digits in base 4 * (largest coefficient of theta, the largest
        # of any root) + 1: a sum of two roots, or of four positive ones, and
        # a reflected root pack without carry
        base = 4 * max(map(max, positives)) + 1
        self.packed = [sum(c * base**k for k, c in enumerate(coords)) for coords in coords_list]
        self._packed_index = at = {p: i for i, p in enumerate(self.packed)}

        # (a, b) is a . (G b): one Gram column per positive root, and every
        # other entry by symmetry under b -> -b and a -> -a
        g = self.gram
        cols = [[sum(map(mul, row, c)) for row in g] for c in positives]
        self.norm2 = [sum(map(mul, c, col)) for c, col in zip(positives, cols)] * 2
        self.short_norm2 = min(self.norm2)
        self.long_norm2 = max(self.norm2)
        rows = []
        for c in positives:
            row = [2 * sum(map(mul, c, col)) // n for col, n in zip(cols, self.norm2)]
            rows.append(row + [-x for x in row])
        self.pairing_table = rows + [[-x for x in row] for row in rows]
        self.sum_table = [[at.get(p + q) for q in self.packed] for p in self.packed]

        self.theta = self._highest(range(npos))
        shorts = [i for i in range(npos) if self.norm2[i] == self.short_norm2]
        self.theta_s = self._highest(shorts)
        for i in range(self.rank):
            if self.sum_table[self.theta.index][self._simple_index(i)] is not None:
                raise LiesphError(f"theta + alpha_{i + 1} is a root of {cartan_type.name}")

        self.simple_perms = tuple(self._reflection(self._simple_index(i)) for i in range(self.rank))
        # s_0(a + n*delta) = s_theta(a) + (n + <a, theta>)*delta
        th = self.theta.index
        size = len(self.roots)
        self.affine_letters = (
            ((1, self.neg_index(th)), self._reflection(th),
             tuple(row[th] for row in self.pairing_table)),
            *(((0, self._simple_index(i)), perm, (0,) * size)
              for i, perm in enumerate(self.simple_perms)),
        )

        # plane_parabolic's memos: by a sorted pair of (level, root index),
        # finite planes by a sorted pair of root indices, and positive
        # systems by a plane's member keys
        self._plane_cache: dict[tuple[tuple[int, int], tuple[int, int]], tuple] = {}
        self._finite_planes: dict[tuple[int, int], tuple] = {}
        self._plane_systems: dict[tuple, tuple[int, ...]] = {}

    # -- construction helpers -------------------------------------------------

    def _generate_positive_roots(self) -> list[tuple[int, ...]]:
        n, g = self.rank, self.gram
        if any(2 * g[j][i] % g[i][i] for i in range(n) for j in range(n)):
            raise LiesphError(f"Gram matrix of {self.cartan_type.name} has non-integral pairings")
        # <beta, alpha_i> = sum_j beta_j <alpha_j, alpha_i>
        cartan_cols = [[2 * g[j][i] // g[i][i] for j in range(n)] for i in range(n)]
        simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        known = set(simples)
        level = list(simples)
        out = list(simples)
        while level:
            nxt = []
            for beta in level:
                for i, col in enumerate(cartan_cols):
                    # beta + alpha_i is a root iff the alpha_i-string through
                    # beta extends upward: q = p - <beta, alpha_i> >= 1
                    head, x, tail = beta[:i], beta[i], beta[i + 1 :]
                    p = 0
                    while head + (x - p - 1,) + tail in known:
                        p += 1
                    if p - sum(map(mul, beta, col)) >= 1:
                        up = head + (x + 1,) + tail
                        if up not in known:
                            known.add(up)
                            nxt.append(up)
                            out.append(up)
            level = nxt
        return out

    def _simple_index(self, i: int) -> int:
        return self.index_of[tuple(1 if j == i else 0 for j in range(self.rank))]

    def _highest(self, indices) -> Root:
        best = max(indices, key=lambda i: (sum(self.roots[i].coords), self.roots[i].coords))
        return self.roots[best]

    def _reflection(self, a: int) -> tuple[int, ...]:
        """The root permutation of the reflection in root a: j -> j - <j, a> a."""
        pa, at, pt = self.packed[a], self._packed_index, self.pairing_table
        return tuple(at[p - pt[j][a] * pa] for j, p in enumerate(self.packed))

    # -- public accessors ------------------------------------------------------

    def root(self, index: int) -> Root:
        return self.roots[index]

    def root_from_coords(self, coords) -> Root:
        idx = self.index_of.get(tuple(coords))
        if idx is None:
            raise LiesphError(f"{tuple(coords)} is not a root of {self.cartan_type.name}")
        return self.roots[idx]

    def simple_root(self, i: int) -> Root:
        """Simple root alpha_i, 1-based Bourbaki index."""
        if not 1 <= i <= self.rank:
            raise LiesphError(f"simple index {i} out of range")
        return self.roots[self._simple_index(i - 1)]

    def neg_index(self, index: int) -> int:
        m = self.num_positive
        return index - m if index >= m else index + m

    @property
    def positive_roots(self) -> list[Root]:
        return self.roots[: self.num_positive]

    def posrootset(self, roots_or_indices) -> PosRootSet:
        idx = []
        for r in roots_or_indices:
            if isinstance(r, Root):
                if r.system is not self:
                    raise MismatchedSystems("root from another system")
                idx.append(r.index)
            else:
                idx.append(int(r))
        return PosRootSet.from_indices(idx, self.num_positive)

    def roots_of(self, ps: PosRootSet) -> list[Root]:
        if ps.width != self.num_positive:
            raise MismatchedSystems("bit vector from another system")
        return [self.roots[i] for i in ps.indices()]

    def to_json_dict(self) -> dict:
        return {
            "type": self.cartan_type.name,
            "rank": self.rank,
            "swapped": self.swapped,
            "positive_roots": [list(r.coords) for r in self.positive_roots],
            "gram": [list(row) for row in self.gram],
        }

    def __repr__(self):
        tag = "'" if self.swapped else ""
        return f"RootSystem({self.cartan_type.name}{tag})"


def build_root_system(t, swap: bool = False) -> RootSystem:
    """Construct the root system for a Cartan type (object or name like "F4")."""
    if isinstance(t, str):
        t = CartanType.parse(t)
    return RootSystem(t, swap=swap)


def _check_roots(rs: RootSystem, *roots: Root):
    for r in roots:
        if r.system is not rs:
            raise MismatchedSystems("root does not belong to this system")


def pairing(rs: RootSystem, a: Root, b: Root) -> int:
    """Cartan pairing <a, b> = 2(a,b)/(b,b)."""
    _check_roots(rs, a, b)
    return rs.pairing_table[a.index][b.index]


def root_sum(rs: RootSystem, a: Root, b: Root):
    """a + b if it is a root, else None (never the zero vector)."""
    _check_roots(rs, a, b)
    idx = rs.sum_table[a.index][b.index]
    return None if idx is None else rs.roots[idx]


def root_string_p(rs: RootSystem, a: Root, b: Root) -> int:
    """Largest k >= 0 with b - k*a still a root."""
    _check_roots(rs, a, b)
    if b.index in (a.index, rs.neg_index(a.index)):
        raise LiesphError("root string requires a != +-b")
    minus_a = rs.neg_index(a.index)
    p = 0
    cur = rs.sum_table[b.index][minus_a]
    while cur is not None:
        p += 1
        cur = rs.sum_table[cur][minus_a]
    return p


def plane_solver(a_coords, b_coords):
    """Return a function solving x*a + y*b = c exactly, or None if no solution.

    Requires a, b linearly independent; returns None-returning solver entries
    as (x, y) Fractions.
    """
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


_RANK2_TAGS = {4: "A1xA1", 6: "A2", 8: "B2", 12: "G2"}


def _finite_plane(rs: RootSystem, fu: int, fv: int) -> tuple:
    """The roots in span{fu, fv}, in index order, with a coordinate minor
    (k, l) that is nonzero on every basis of that plane.  One scan of the
    roots per plane, shared by all of its non-proportional member pairs."""
    key = (fu, fv) if fu < fv else (fv, fu)
    hit = rs._finite_planes.get(key)
    if hit is not None:
        return hit
    a, b = rs.roots[fu].coords, rs.roots[fv].coords
    minors = ((a[k] * b[l] - a[l] * b[k], k, l)
              for k in range(rs.rank) for l in range(k + 1, rs.rank))
    det, k, l = next((m for m in minors if m[0]), (0, 0, 0))
    if not det:
        raise LiesphError("a plane parabolic needs linearly independent roots")
    plane = []
    for f, r in enumerate(rs.roots):
        c = r.coords
        x = c[k] * b[l] - c[l] * b[k]
        y = a[k] * c[l] - a[l] * c[k]
        if all(x * a[i] + y * b[i] == det * c[i] for i in range(rs.rank)):
            plane.append(f)
    hit = (tuple(plane), k, l)
    for x, f in enumerate(plane):
        for g in plane[x + 1 :]:
            if g != rs.neg_index(f):
                rs._finite_planes[(f, g)] = hit
    return hit


def plane_parabolic(rs: RootSystem, u: tuple[int, int], v: tuple[int, int]) -> tuple:
    """The rank-2 parabolic through two real affine roots, memoized on rs.

    ``u`` and ``v`` are ``(level, root index)`` keys of ``root + level*delta``
    whose finite parts are linearly independent; level 0 is the finite case.
    Returns ``(members, irreducible, base, positive_systems)``:

    - ``members``: the keys of every real affine root in span{u, v}, in root
      index order.  They form a rank-2 root system, irreducible unless it has
      only the four roots of A1xA1.
    - ``base``: whether {u, v} is a base of one of its positive systems.
    - ``positive_systems``: those made only of positive affine roots, as
      ``key_mask`` bit masks.

    The members are the roots of the finite plane whose level in the basis
    u, v is an integer; the positive systems depend on the members alone,
    and are memoized by them.
    """
    key = (u, v) if u <= v else (v, u)
    hit = rs._plane_cache.get(key)
    if hit is not None:
        return hit
    (lu, fu), (lv, fv) = key
    plane, k, l = _finite_plane(rs, fu, fv)
    a, b = rs.roots[fu].coords, rs.roots[fv].coords
    det = a[k] * b[l] - a[l] * b[k]
    # a member c = (x*a + y*b) / det, at level (x*lu + y*lv) / det
    members, coeffs = [], []
    for f in plane:
        c = rs.roots[f].coords
        x = c[k] * b[l] - c[l] * b[k]
        y = a[k] * c[l] - a[l] * c[k]
        level, rest = divmod(x * lu + y * lv, det)
        if not rest:
            members.append((level, f))
            coeffs.append((x, y))
    # a pair is a base when every member is a nonnegative or a nonpositive
    # combination of it; the nonnegative members are its positive system
    base = all(x * y >= 0 for x, y in coeffs)
    plane_key = tuple(members)
    psys = rs._plane_systems.get(plane_key)
    if psys is None:
        psys = rs._plane_systems[plane_key] = _positive_systems(rs, members, coeffs)
    data = (members, len(members) > 4, base, psys)
    rs._plane_cache[key] = data
    return data


def _positive_systems(rs: RootSystem, members: list, coeffs: list) -> tuple[int, ...]:
    """``key_mask``s of the positive systems of a plane made only of positive
    affine roots, from the members' coefficients in any basis of the plane."""
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
    return tuple(psys)


def has_plane_positive_system(rs: RootSystem, keys: list, mask: int) -> bool:
    """Whether an irreducible plane parabolic through two of the keys has a
    positive system inside mask (a ``key_mask``).  Pairs with proportional
    finite parts are skipped: their plane contains the imaginary direction,
    whose positive systems are infinite and never inside a finite set."""
    for x, u in enumerate(keys):
        for v in keys[x + 1 :]:
            if v[1] in (u[1], rs.neg_index(u[1])):
                continue
            _, irreducible, _, psys = plane_parabolic(rs, u, v)
            if irreducible:
                for p in psys:
                    if p & ~mask == 0:
                        return True
    return False


def key_mask(rs: RootSystem, keys) -> int:
    """Bit mask of positive affine roots given as (level, root index) keys,
    with bit ``level * len(rs.roots) + index``; at level 0 it is the
    PosRootSet mask of those positive roots."""
    width = len(rs.roots)
    mask = 0
    for level, f in keys:
        mask |= 1 << (level * width + f)
    return mask


def rank2_parabolic(rs: RootSystem, a: Root, b: Root) -> tuple[list[Root], str]:
    """All roots in span{a, b}, with the isomorphism type of that rank-2 system."""
    _check_roots(rs, a, b)
    members = plane_parabolic(rs, (0, a.index), (0, b.index))[0]
    return [rs.roots[f] for _, f in members], _RANK2_TAGS[len(members)]


def has_summing_pair(rs: RootSystem, indices) -> bool:
    """Whether two (not necessarily distinct) of the given roots sum to a root."""
    idxs = list(indices)
    st = rs.sum_table
    for x, a in enumerate(idxs):
        row = st[a]
        for b in idxs[x:]:
            if row[b] is not None:
                return True
    return False


def iter_bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
