"""Finite irreducible root systems of types A-G with exact integer tables.

Roots are integer coordinate vectors over the simple roots (Bourbaki
numbering).  The invariant form is normalized so that the highest short
root has squared length 2, which keeps every Gram entry an integer.
"""

from __future__ import annotations

from functools import wraps
from math import factorial, gcd
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


def _memo(build):
    """A table built from one owner, a root system or an algebra, on first
    use, and kept in the owner's ``__dict__`` under the builder's qualified
    name, so that it lives exactly as long as the owner.  Tables fill
    idempotently: concurrent readers at worst build one twice."""
    key = f"{build.__module__}.{build.__qualname__}"

    @wraps(build)
    def table(owner):
        memo = owner.__dict__
        if key not in memo:
            memo[key] = build(owner)
        return memo[key]

    return table


class _FrozenRecord:
    """A plain record over its ``__slots__``, set once, in ``__init__``,
    and compared, hashed, printed and pickled field by field."""

    __slots__ = ()

    def __init__(self, *values):
        for f, v in zip(self.__slots__, values):
            object.__setattr__(self, f, v)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

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
        if name[:1].upper() in _RANK_CONSTRAINTS and digits.isascii() and digits.isdigit():
            try:
                return cls(name[0].upper(), int(digits))
            except ValueError:  # more digits than int() reads
                pass
        raise LiesphError(f"cannot parse Cartan type {name!r}")

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def is_simply_laced(self) -> bool:
        return self.family in ("A", "D", "E")

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
            return factorial(n + 1)
        if self.family in ("B", "C"):
            return (1 << n) * factorial(n)
        if self.family == "D":
            return (1 << (n - 1)) * factorial(n)
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

    ``packed[i]`` is root i as one int (see ``__init__``); the sum table is
    a lookup of packed sums in ``_packed_index``, and so is a reflected root
    (``weyl.apply_simple``, ``affine.affine_apply_simple``).

    Every derived table is a ``_memo`` builder, kept on the system it was
    built from.
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


_RANK2_TAGS = {4: "A1xA1", 6: "A2", 8: "B2", 12: "G2"}


def _plane_key(a: tuple[int, ...], b: tuple[int, ...], minor_kl: list) -> tuple[int, ...]:
    """The plane of two non-proportional coordinate vectors, as their 2x2
    coordinate minors (k, l) in ``minor_kl`` divided by their gcd, signed
    positive at the first nonzero one: two pairs span the same plane
    exactly when their keys are equal."""
    minors = [a[k] * b[l] - a[l] * b[k] for k, l in minor_kl]
    d = gcd(*minors)
    for m in minors:
        if m:
            break
    if m < 0:
        d = -d
    return tuple([m // d for m in minors])


@_memo
def _plane_table(rs: RootSystem) -> dict[tuple[int, int], tuple]:
    """Every finite plane, in one pass over the pairs of positive roots,
    bucketed by ``_plane_key``.

    Maps each sorted pair of non-opposite roots of a plane to ``(the roots
    of the plane in index order, k, l)``, where the minor (k, l) is nonzero
    on every basis of the plane."""
    npos = rs.num_positive
    minor_kl = [(k, l) for k in range(rs.rank) for l in range(k + 1, rs.rank)]
    coords = [r.coords for r in rs.positive_roots]
    buckets: dict[tuple[int, ...], set[int]] = {}
    for i, a in enumerate(coords):
        for j in range(i + 1, npos):
            key = _plane_key(a, coords[j], minor_kl)
            plane = buckets.get(key)
            if plane is None:
                buckets[key] = {i, j}
            else:
                plane.add(i)
                plane.add(j)
    table = {}
    for minors, positive in buckets.items():
        k, l = next(kl for kl, m in zip(minor_kl, minors) if m)
        plane = sorted(positive)
        plane += [f + npos for f in plane]
        hit = (tuple(plane), k, l)
        for x, f in enumerate(plane):
            for g in plane[x + 1 :]:
                if g != f + npos:
                    table[(f, g)] = hit
    return table


@_memo
def _irreducible_planes(rs: RootSystem) -> list[int]:
    """The irreducible planes P = Phi cap span, each by the base {f, h} of
    its positive roots, as a partner table for ``_has_pair``: per positive
    root, the mask of the positive roots it is a base with.

    The planes are found from the positive summing pairs alone, keyed by
    ``_plane_key``: an irreducible plane's base sums to a root, and an
    A1xA1 plane holds no summing pair.  Any other q in P+ is x*f + y*h with
    x, y >= 1, higher than f and h, so f and h are the two lowest positive
    roots of P.  The pairs come in index order, so the first pair found in
    a plane is those two: its base.
    """
    npos = rs.num_positive
    minor_kl = [(k, l) for k in range(rs.rank) for l in range(k + 1, rs.rank)]
    coords = [r.coords for r in rs.positive_roots]
    bases: dict[tuple[int, ...], tuple[int, int]] = {}
    for i, a in enumerate(coords):
        row = rs.sum_table[i]
        for j in range(i + 1, npos):
            if row[j] is not None:
                bases.setdefault(_plane_key(a, coords[j], minor_kl), (i, j))
    partners = [0] * npos
    for f, h in bases.values():
        partners[f] |= 1 << h
        partners[h] |= 1 << f
    return partners


@_memo
def _poset_tables(rs: RootSystem) -> list[int]:
    """Up-set masks of the root poset (cover = adding one simple root):
    ``up[i]`` holds root i and every positive root above it, which are the
    positive roots whose coordinates are all at least its."""
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
    return up


def _finite_plane(rs: RootSystem, fu: int, fv: int) -> tuple:
    """The roots in span{fu, fv}, in index order, with a coordinate minor
    (k, l) that is nonzero on every basis of that plane."""
    hit = _plane_table(rs).get((fu, fv) if fu < fv else (fv, fu))
    if hit is None:
        raise LiesphError("a plane parabolic needs linearly independent roots")
    return hit


@_memo
def _plane_parabolics(rs: RootSystem) -> dict:
    """``plane_parabolic``'s results, by the sorted pair of its keys."""
    return {}


def plane_parabolic(rs: RootSystem, u: tuple[int, int], v: tuple[int, int]) -> tuple:
    """The rank-2 parabolic through two real affine roots, memoized on rs.

    ``u`` and ``v`` are ``(level, root index)`` keys of ``root + level*delta``
    whose finite parts are linearly independent; level 0 is the finite case.
    Returns ``(members, irreducible, base)``:

    - ``members``: the keys of every real affine root in span{u, v}, in root
      index order.  They form a rank-2 root system, irreducible unless it has
      only the four roots of A1xA1.
    - ``base``: whether {u, v} is a base of one of its positive systems.

    The members are the roots of the finite plane whose level in the basis
    u, v is an integer.
    """
    key = (u, v) if u <= v else (v, u)
    cache = _plane_parabolics(rs)
    hit = cache.get(key)
    if hit is not None:
        return hit
    (lu, fu), (lv, fv) = key
    plane, k, l = _finite_plane(rs, fu, fv)
    a, b = rs.roots[fu].coords, rs.roots[fv].coords
    det = a[k] * b[l] - a[l] * b[k]
    # a member c = (x*a + y*b) / det, at level (x*lu + y*lv) / det; the pair
    # is a base when every member is a nonnegative or a nonpositive
    # combination of it
    members = []
    base = True
    for f in plane:
        c = rs.roots[f].coords
        x = c[k] * b[l] - c[l] * b[k]
        y = a[k] * c[l] - a[l] * c[k]
        level, rest = divmod(x * lu + y * lv, det)
        if not rest:
            members.append((level, f))
            base = base and x * y >= 0
    data = cache[key] = (members, len(members) > 4, base)
    return data


def has_irreducible_base_pair(rs: RootSystem, keys: list) -> bool:
    """Whether two of the sorted keys are a base of an irreducible plane
    parabolic: the full-commutativity test on an inversion set.

    An inversion set is closed, so it holds the whole positive system such
    a base spans; and any positive system inside it brings its base along.
    Pairs with proportional finite parts are skipped: their plane contains
    the imaginary direction, whose positive systems are infinite and never
    inside a finite set."""
    npos = rs.num_positive
    cache = _plane_parabolics(rs)  # keyed by sorted pairs, as the keys come
    for x, u in enumerate(keys):
        fu = u[1]
        opposite = fu - npos if fu >= npos else fu + npos
        for v in keys[x + 1 :]:
            if v[1] == fu or v[1] == opposite:
                continue
            _, irreducible, base = cache.get((u, v)) or plane_parabolic(rs, u, v)
            if irreducible and base:
                return True
    return False


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


def _has_pair(partners: list[int], mask: int) -> bool:
    """Whether two members of ``mask`` are partners: some member f has
    ``partners[f] & mask``.  The one decider of every flag that a pair of
    members settles, over three symmetric partner tables:

    - ``affine._summable``, the roots each root sums to a root with: a
      Weyl element is not commutative (``weyl.is_commutative_inv``), an
      ideal not abelian (``ideals.is_abelian``), which is also the
      commutativity of its affine element.  ``has_summing_pair`` is the
      reference.
    - ``weyl._negative_pairings``, the positive roots of negative pairing:
      ``weyl.pairing_nonneg``.
    - ``_irreducible_planes``, the positive roots f is the base of an
      irreducible plane with: full commutativity, of a Weyl element on its
      inversion set (``weyl.is_fc_inv``) and of w_I on the ideal I.

    A Weyl element w is fully commutative iff no pair in N(w) is a base of
    an irreducible plane parabolic (``is_fc_inv_base_pair``, the
    reference): N(w) is closed, so it then holds the positive system the
    base spans.  Two positive roots that are a base of a positive system of
    their plane P are the base of P+: the system's roots are their
    nonnegative combinations, |P|/2 positive roots.

    Lemma: w_I is fully commutative iff no irreducible plane has its base
    in I.

    Proof.  N(w_I) = {k delta - b : b in I^k}, and w_I is not fully
    commutative iff some pair in N(w_I) is a base of an irreducible plane
    parabolic (``affine.is_fc_affine``).

    If: let {f, h} in I be the base of P+.  Each root of P is x f + y h
    with integers x, y of one sign, so the affine roots in span{delta - f,
    delta - h} are the (x + y) delta - (x f + y h), one for each root of P:
    an irreducible system with base (delta - f, delta - h), a pair in
    N(w_I) as I^1 = I.  (Its positive roots all lie in N(w_I): a q in P+
    of P-height x + y >= 2 is p + f or p + h with p in P+ of P-height
    x + y - 1, both in I as I is an upper set, and a sum of two members
    lies one layer deeper than the deeper summand, so by induction q is in
    I^(x + y).)

    Only if: let (k1 delta - f, k2 delta - h) in N(w_I) be a base of the
    irreducible system A of the affine roots in its span, and P the plane
    of f and h; f is in I^k1 and h in I^k2, both inside I.  If A projects
    onto P, then {f, h} is a base of P whose positive system consists of
    positive roots, so it is the base of P+, in I.  Otherwise A is an
    irreducible rank-2 system with fewer roots than P.  Only a G2 plane
    holds one, an A2, and it is the long-root one, as the short roots
    generate all of P.  So P is G2 with base alpha, beta (beta long), and A
    has base f = beta, h = 3 alpha + beta.  A simple root is no sum of two
    positive roots, so k1 = 1; alpha = (h - f) / 3 would have the level
    (k2 - 1) / 3, which is no integer as alpha is not in A, so k2 >= 2.
    The only decomposition of h into two positive roots is alpha + (2 alpha
    + beta), so alpha lies in I with beta: the base of the G2 plane."""
    for f in iter_bits(mask):  # a loop: any() over a generator took 2.5 times as long
        if partners[f] & mask:
            return True
    return False


def iter_bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
