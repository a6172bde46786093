"""Real affine roots, affine Weyl group words, and finite biconvex sets.

An affine root is a pair (finite root, delta level); only real roots are
representable.  Group elements are reduced words over {0, 1, .., rank} with
canonical equality through the images of the affine simple roots.  Single
roots move through the letter table ``RootSystem.affine_letters``; inversion
sets and the peel move only the rank + 1 simple-root images, as int codes.
"""

from __future__ import annotations

from .errors import LiesphError, MismatchedSystems
from .roots import RootSystem, has_plane_positive_system, has_summing_pair, key_mask


class AffineRoot:
    """finite + level * delta; positive iff level > 0, or level = 0 and finite > 0."""

    __slots__ = ("system", "findex", "level")

    def __init__(self, system: RootSystem, findex: int, level: int):
        self.system = system
        self.findex = findex
        self.level = level

    @property
    def is_positive(self) -> bool:
        return self.level > 0 or (self.level == 0 and self.findex < self.system.num_positive)

    @property
    def finite(self):
        return self.system.roots[self.findex]

    def key(self) -> tuple[int, int]:
        return (self.level, self.findex)

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(self.system, self.system.neg_index(self.findex), -self.level)

    def __eq__(self, other):
        return (
            isinstance(other, AffineRoot)
            and other.system is self.system
            and other.findex == self.findex
            and other.level == self.level
        )

    def __hash__(self):
        return hash((self.findex, self.level))

    def __repr__(self):
        return f"AffineRoot({self.finite.coords} + {self.level}d)"


def _letter(rs: RootSystem, i: int):
    if not 0 <= i <= rs.rank:
        raise LiesphError(f"affine simple index {i} out of range")
    return rs.affine_letters[i]


def affine_simple_root(rs: RootSystem, i: int) -> AffineRoot:
    """alpha_0 = delta - theta for i = 0, else the finite simple root."""
    level, f = _letter(rs, i)[0]
    return AffineRoot(rs, f, level)


def affine_apply_simple(rs: RootSystem, i: int, r: AffineRoot) -> AffineRoot:
    if r.system is not rs:
        raise MismatchedSystems("affine root from another system")
    _, perm, shift = _letter(rs, i)
    return AffineRoot(rs, perm[r.findex], r.level + shift[r.findex])


def affine_pairing(a: AffineRoot, b: AffineRoot) -> int:
    """Pairing of real affine roots; delta lies in the kernel of the form."""
    if a.system is not b.system:
        raise MismatchedSystems("affine roots from different systems")
    return a.system.pairing_table[a.findex][b.findex]


class AffineRootSet:
    """Finite set of positive real affine roots, ordered by (level, root index)."""

    __slots__ = ("system", "keys")

    def __init__(self, system: RootSystem, roots):
        keys = set()
        for r in roots:
            if isinstance(r, AffineRoot):
                if r.system is not system:
                    raise MismatchedSystems("affine root from another system")
                key = r.key()
            else:
                key = (int(r[0]), int(r[1]))
            level, findex = key
            if not 0 <= findex < len(system.roots):
                raise LiesphError(f"root index {findex} out of range")
            if not (level > 0 or (level == 0 and findex < system.num_positive)):
                raise LiesphError("affine root set members must be positive")
            keys.add(key)
        self.system = system
        self.keys = frozenset(keys)

    def roots(self) -> list[AffineRoot]:
        return [AffineRoot(self.system, f, l) for l, f in sorted(self.keys)]

    def __contains__(self, r) -> bool:
        key = r.key() if isinstance(r, AffineRoot) else (int(r[0]), int(r[1]))
        return key in self.keys

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        return iter(self.roots())

    def __eq__(self, other):
        return (
            isinstance(other, AffineRootSet)
            and other.system is self.system
            and other.keys == self.keys
        )

    def __hash__(self):
        return hash(self.keys)

    def to_json_list(self) -> list[dict]:
        rs = self.system
        return [
            {"level": l, "coords": list(rs.roots[f].coords)} for l, f in sorted(self.keys)
        ]

    def __repr__(self):
        return f"AffineRootSet({[(l, self.system.roots[f].coords) for l, f in sorted(self.keys)]})"


def _word_image(rs: RootSystem, word, key: tuple[int, int]) -> tuple[int, int]:
    """Image of a (level, root index) key under the product of the word."""
    level, f = key
    for i in reversed(word):
        _, perm, shift = rs.affine_letters[i]
        level, f = level + shift[f], perm[f]
    return level, f


def _affine_codes(rs: RootSystem):
    """Real affine roots as ints, built on first use: f + level*delta is
    ``level * span + packed[f]``.  ``packed`` is linear and smaller than
    span / 2 on roots, so the code is linear, and positive iff the root is.

    Returns ``(span, letters)``: per affine letter i, the code of alpha_i and
    the pairs (j, <alpha_j, alpha_i^vee>) over its affine Dynkin neighbours."""
    codes = getattr(rs, "_affine_codes", None)
    if codes is None:
        packed, pt = rs.packed, rs.pairing_table
        span = 2 * packed[rs.theta.index] + 1
        simple = [key for key, _, _ in rs.affine_letters]
        codes = rs._affine_codes = (span, tuple(
            (li * span + packed[fi],
             tuple((j, pt[fj][fi]) for j, (_, fj) in enumerate(simple) if j != i and pt[fj][fi]))
            for i, (li, fi) in enumerate(simple)
        ))
    return codes


def _reflect_images(img: list[int], letters, i: int):
    """p alpha_j -> p s_i alpha_j = p alpha_j - <alpha_j, alpha_i^vee> p alpha_i,
    on the codes of the images of the affine simple roots under p."""
    c = img[i]
    for j, a in letters[i][1]:
        img[j] -= a * c
    img[i] = -c


def _decode(rs: RootSystem, span: int, code: int) -> tuple[int, int]:
    half = span // 2
    level, p = divmod(code + half, span)
    return level, rs._packed_index[p - half]


class AffineWeylWord:
    """Affine Weyl group element as a reduced word over {0..rank}.

    Equality goes through the images of all affine simple roots under the
    inverse, which determine the inverse, and so the element."""

    __slots__ = ("system", "word", "canonical", "inv_keys")

    def __init__(self, system: RootSystem, word):
        word = tuple(int(i) for i in word)
        for i in word:
            if not 0 <= i <= system.rank:
                raise LiesphError(f"affine simple index {i} out of range")
        inv, images = _inversion_keys(system, word)
        if len(inv) != len(word):
            word = _peel_word(system, inv)
        self.system = system
        self.word = word
        self.inv_keys = frozenset(inv)
        self.canonical = images

    @property
    def length(self) -> int:
        return len(self.word)

    def apply(self, r: AffineRoot) -> AffineRoot:
        if r.system is not self.system:
            raise MismatchedSystems("affine root from another system")
        level, f = _word_image(self.system, self.word, r.key())
        return AffineRoot(self.system, f, level)

    def is_identity(self) -> bool:
        return not self.word

    def __eq__(self, other):
        return (
            isinstance(other, AffineWeylWord)
            and other.system is self.system
            and other.canonical == self.canonical
        )

    def __hash__(self):
        return hash(self.canonical)

    def __repr__(self):
        return f"AffineWeylWord({list(self.word)})"


def _inversion_keys(rs: RootSystem, word) -> tuple[set[tuple[int, int]], tuple]:
    """Inversion set of an arbitrary word, and the images of the affine
    simple roots under the inverse of its product, in one pass from the
    right: N(s_i u) is N(u) with the positive one of +-u^-1 alpha_i toggled."""
    span, letters = _affine_codes(rs)
    img = [c for c, _ in letters]
    inv = set()
    for i in reversed(word):
        c = abs(img[i])
        if c in inv:
            inv.remove(c)
        else:
            inv.add(c)
        _reflect_images(img, letters, i)
    return {_decode(rs, span, c) for c in inv}, tuple(_decode(rs, span, c) for c in img)


def _peel_word(rs: RootSystem, keys) -> tuple[int, ...]:
    """Word of the element with inversion set keys, peeling the lowest
    affine simple root each step; on level-0 keys only finite letters occur.

    After peeling s_r1 .. s_rm the set left is p^-1 of the keys not yet
    peeled, p = s_r1 .. s_rm, so alpha_i lies in it iff p alpha_i is one of
    them: the keys stay put, and only the images p alpha_j move."""
    span, letters = _affine_codes(rs)
    packed = rs.packed
    left = {level * span + packed[f] for level, f in keys}
    img = [c for c, _ in letters]
    rev = []
    while left:
        for i, c in enumerate(img):
            if c in left:
                break
        else:
            raise LiesphError("finite biconvex set without an affine simple root")
        left.remove(c)
        rev.append(i)
        _reflect_images(img, letters, i)
    return tuple(reversed(rev))


def affine_from_word(rs: RootSystem, word) -> AffineWeylWord:
    return AffineWeylWord(rs, word)


def affine_inversions(w: AffineWeylWord) -> AffineRootSet:
    return AffineRootSet(w.system, w.inv_keys)


def _decompositions(rs: RootSystem) -> list[list[tuple[int, int, int, int]]]:
    """Per root g, built on first use: each unordered pair {f, h} of roots
    with f + h = g, once, as ``(f, h, lo, hi)``.  For a level lg of g, the
    splits m with f + m*delta and h + (lg - m)*delta both positive are
    lo <= m < lg + hi."""
    dec = getattr(rs, "_root_decompositions", None)
    if dec is None:
        npos = rs.num_positive
        dec = [[] for _ in rs.roots]
        for f, row in enumerate(rs.sum_table):
            for h in range(f + 1, len(row)):
                g = row[h]
                if g is not None:
                    dec[g].append((f, h, int(f >= npos), int(h < npos)))
        rs._root_decompositions = dec
    return dec


def is_biconvex_affine(S: AffineRootSet) -> bool:
    """Closure of S and of its complement under real-root addition."""
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
    dec = _decompositions(rs)
    for lg, g in pairs:
        for f, h, lo, hi in dec[g]:
            for m in range(lo, lg + hi):
                if (m, f) not in keys and (lg - m, h) not in keys:
                    return False
    return True


def element_from_biconvex_affine(S: AffineRootSet) -> AffineWeylWord:
    """The element whose inversion set is S; rejects non-biconvex input."""
    if not is_biconvex_affine(S):
        raise LiesphError("input set is not biconvex in the affine positive system")
    w = AffineWeylWord(S.system, _peel_word(S.system, S.keys))
    if w.inv_keys != S.keys:
        raise LiesphError("peeling failed to reproduce the input set")
    return w


def is_commutative_affine(S: AffineRootSet) -> bool:
    """No two (not necessarily distinct) members sum to a real root.

    A sum of real affine roots is real iff their finite parts sum to a root,
    so only the distinct finite parts matter."""
    return not has_summing_pair(S.system, {f for _, f in S.keys})


def is_fc_affine(S: AffineRootSet) -> bool:
    """No irreducible rank-2 parabolic positive subsystem inside S."""
    return not has_plane_positive_system(S.system, sorted(S.keys), key_mask(S.system, S.keys))
