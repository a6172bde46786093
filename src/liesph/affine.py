"""Real affine roots, affine Weyl group words, and finite biconvex sets.

An affine root is a pair (finite root, delta level); only real roots are
representable.  Group elements are reduced words over {0, 1, .., rank} with
canonical equality through the images of the affine simple roots.  Letters
act on ``(level, root index)`` keys through ``RootSystem.affine_letters``.
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


def _act_letter(rs: RootSystem, i: int, keys: set[tuple[int, int]]) -> set:
    _, perm, shift = rs.affine_letters[i]
    return {(l + shift[f], perm[f]) for l, f in keys}


def _word_image(rs: RootSystem, word, key: tuple[int, int]) -> tuple[int, int]:
    """Image of a (level, root index) key under the product of the word."""
    level, f = key
    for i in reversed(word):
        _, perm, shift = rs.affine_letters[i]
        level, f = level + shift[f], perm[f]
    return level, f


class AffineWeylWord:
    """Affine Weyl group element as a reduced word over {0..rank}.

    Equality goes through the images of all affine simple roots, which
    determine the action on the whole affine root system."""

    __slots__ = ("system", "word", "canonical", "inv_keys")

    def __init__(self, system: RootSystem, word):
        word = tuple(int(i) for i in word)
        for i in word:
            if not 0 <= i <= system.rank:
                raise LiesphError(f"affine simple index {i} out of range")
        inv = _inversion_keys(system, word)
        if len(inv) != len(word):
            word = _peel_word(system, inv)
        self.system = system
        self.word = word
        self.inv_keys = frozenset(inv)
        self.canonical = tuple(
            _word_image(system, word, alpha) for alpha, _, _ in system.affine_letters
        )

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


def _inversion_keys(rs: RootSystem, word) -> set[tuple[int, int]]:
    """Inversion set of an arbitrary word, built letter by letter."""
    keys: set[tuple[int, int]] = set()
    for i in word:
        # N(u s_i) is s_i N(u) plus alpha_i, or s_i (N(u) - alpha_i) if it held alpha_i
        alpha = rs.affine_letters[i][0]
        keys = _act_letter(rs, i, keys - {alpha}) | ({alpha} - keys)
    return keys


def _peel_word(rs: RootSystem, keys) -> tuple[int, ...]:
    """Word of the element with inversion set keys, peeling the lowest
    affine simple root each step; on level-0 keys only finite letters occur."""
    rev = []
    while keys:
        for i, (alpha, _, _) in enumerate(rs.affine_letters):
            if alpha in keys:
                break
        else:
            raise LiesphError("finite biconvex set without an affine simple root")
        rev.append(i)
        keys = _act_letter(rs, i, keys - {alpha})
    return tuple(reversed(rev))


def affine_from_word(rs: RootSystem, word) -> AffineWeylWord:
    return AffineWeylWord(rs, word)


def affine_inversions(w: AffineWeylWord) -> AffineRootSet:
    return AffineRootSet(w.system, w.inv_keys)


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
    # violates closure of the complement; g = f + g2 with g2 = g - f
    npos = rs.num_positive
    for lg, fg in pairs:
        for h, g2 in enumerate(rs.sum_table[fg]):
            if g2 is None:
                continue
            f = rs.neg_index(h)
            # the levels m with (m, f) and (lg - m, g2) both positive
            for m in range(f >= npos, lg + (g2 < npos)):
                if (m, f) not in keys and (lg - m, g2) not in keys:
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
