"""Real affine roots, affine Weyl group words, and finite biconvex sets.

An affine root is a pair (finite root, delta level); only real roots are
representable.  Group elements are reduced words over {0, 1, .., rank} with
canonical equality through the images of the affine simple roots.  Every
reflection works on packed ints: a single root subtracts a multiple of
alpha_i (``_reflect_key``), and inversion sets and the peel move only the
rank + 1 simple-root images, as int codes.  ``liesph.weyl`` stores a finite
Weyl element as the same images, read at level 0.
"""

from __future__ import annotations

from .errors import LiesphError, MismatchedSystems
from .roots import RootSystem, _memo, has_irreducible_base_pair, has_summing_pair, iter_bits


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


def _simple_key(rs: RootSystem, i: int) -> tuple[int, int]:
    if not 0 <= i <= rs.rank:
        raise LiesphError(f"affine simple index {i} out of range")
    return _affine_codes(rs)[2][i]


def _reflect_key(rs: RootSystem, i: int, level: int, f: int) -> tuple[int, int]:
    """s_i on f + level*delta, as (level, root index): subtract
    <f, alpha_i^vee> alpha_i, the finite part on packed ints."""
    li, fi = _affine_codes(rs)[2][i]
    a = rs.pairing_table[f][fi]
    return level - a * li, rs._packed_index[rs.packed[f] - a * rs.packed[fi]]


def affine_simple_root(rs: RootSystem, i: int) -> AffineRoot:
    """alpha_0 = delta - theta for i = 0, else the finite simple root."""
    level, f = _simple_key(rs, i)
    return AffineRoot(rs, f, level)


def affine_apply_simple(rs: RootSystem, i: int, r: AffineRoot) -> AffineRoot:
    if r.system is not rs:
        raise MismatchedSystems("affine root from another system")
    _simple_key(rs, i)  # the range check
    level, f = _reflect_key(rs, i, r.level, r.findex)
    return AffineRoot(rs, f, level)


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

    @classmethod
    def _trusted(cls, system: RootSystem, keys: frozenset) -> "AffineRootSet":
        """A set from keys that are positive by construction, unchecked."""
        out = cls.__new__(cls)
        out.system = system
        out.keys = keys
        return out

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
        level, f = _reflect_key(rs, i, level, f)
    return level, f


@_memo
def _affine_codes(rs: RootSystem):
    """Real affine roots as ints: f + level*delta is ``level * span +
    packed[f]``.  ``packed`` is linear and smaller than span / 2 on roots,
    so the code is linear, and positive iff the root is.

    Returns ``(span, letters, simple)``: per affine letter i, the code of
    alpha_i and the pairs (j, <alpha_j, alpha_i^vee>) over its affine Dynkin
    neighbours; and the (level, root index) key of each alpha_i, with
    alpha_0 = delta - theta."""
    packed, pt = rs.packed, rs.pairing_table
    span = 2 * packed[rs.theta.index] + 1
    simple = ((1, rs.neg_index(rs.theta.index)),
              *((0, rs.simple_root(i).index) for i in range(1, rs.rank + 1)))
    return (span, tuple(
        (li * span + packed[fi],
         tuple((j, pt[fj][fi]) for j, (_, fj) in enumerate(simple) if j != i and pt[fj][fi]))
        for i, (li, fi) in enumerate(simple)
    ), simple)


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
            word = _peel_word(system, inv)[0]
        self.system = system
        self.word = word
        self.inv_keys = frozenset(inv)
        self.canonical = images

    @classmethod
    def _trusted(cls, system: RootSystem, word: tuple, inv_keys: frozenset, img) -> "AffineWeylWord":
        """The element of a reduced word with inversion set inv_keys, and
        codes ``img`` of the images of the affine simple roots under its
        inverse, unchecked."""
        out = cls.__new__(cls)
        out.system = system
        out.word = word
        out.inv_keys = inv_keys
        span = _affine_codes(system)[0]
        out.canonical = tuple(_decode(system, span, c) for c in img)
        return out

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


def _inversion_codes(rs: RootSystem, word) -> tuple[set[int], list[int]]:
    """Codes of the inversion set of an arbitrary word, and of the images of
    the affine simple roots under the inverse of its product, in one pass
    from the right: N(s_i u) is N(u) with the positive one of +-u^-1 alpha_i
    toggled."""
    letters = _affine_codes(rs)[1]
    img = [c for c, _ in letters]
    inv = set()
    for i in reversed(word):
        c = abs(img[i])
        if c in inv:
            inv.remove(c)
        else:
            inv.add(c)
        _reflect_images(img, letters, i)
    return inv, img


def _inversion_keys(rs: RootSystem, word) -> tuple[set[tuple[int, int]], tuple]:
    """``_inversion_codes`` decoded to (level, root index) keys."""
    span = _affine_codes(rs)[0]
    inv, img = _inversion_codes(rs, word)
    return {_decode(rs, span, c) for c in inv}, tuple(_decode(rs, span, c) for c in img)


def _peel_codes(rs: RootSystem, left: set[int]) -> tuple[tuple[int, ...], list[int]]:
    """Word of the element whose inversion set has the codes in ``left``,
    peeling the lowest affine simple root each step, and the codes of the
    images of the affine simple roots under the inverse of its product; on
    level-0 codes only finite letters occur.  Consumes ``left``.

    After peeling s_r1 .. s_rm the set left is p^-1 of the codes not yet
    peeled, p = s_r1 .. s_rm, so alpha_i lies in it iff p alpha_i is one of
    them: the codes stay put, and only the images p alpha_j move.

    With M(p) = {b > 0 : p^-1 b < 0}, each peeled p alpha_i is positive, so
    M(p s_i) = M(p) + {p alpha_i}: a peel that empties the codes ends at a p
    with M(p) = codes, and the word, the product p^-1, has them as its
    inversion set.  When codes = M(v) for some v, M(p) inside M(v) makes
    v = p u with lengths adding, and a left descent s_i of u puts p alpha_i
    among the codes not yet peeled: the peel sticks exactly when the codes
    are no inversion set, that is, not biconvex."""
    letters = _affine_codes(rs)[1]
    img = [c for c, _ in letters]
    rev = []
    for _ in range(len(left)):
        i = 0
        for c in img:
            if c in left:
                break
            i += 1
        else:
            raise LiesphError("input set is not biconvex in the affine positive system")
        left.remove(c)
        rev.append(i)
        for j, a in letters[i][1]:  # _reflect_images, inlined: the call was a quarter of the peel
            img[j] -= a * c
        img[i] = -c
    return tuple(reversed(rev)), img


def _checked_peel(rs: RootSystem, codes: set[int]) -> tuple[tuple[int, ...], list[int]]:
    """``_peel_codes``, held to the size of the set it consumes: a word
    shorter than the set raises LiesphError.  The one round-trip check of
    every reconstruction, affine, finite and theorem 2's; it stays outside
    the peel, as it is there to catch a faulty one."""
    size = len(codes)
    word, img = _peel_codes(rs, codes)
    if len(word) != size:
        raise LiesphError("peeling failed to reproduce the input set")
    return word, img


def _peel_word(rs: RootSystem, keys) -> tuple[tuple[int, ...], list[int]]:
    """``_checked_peel`` on (level, root index) keys."""
    span, packed = _affine_codes(rs)[0], rs.packed
    return _checked_peel(rs, {level * span + packed[f] for level, f in keys})


def affine_from_word(rs: RootSystem, word) -> AffineWeylWord:
    return AffineWeylWord(rs, word)


def affine_inversions(w: AffineWeylWord) -> AffineRootSet:
    return AffineRootSet(w.system, w.inv_keys)


@_memo
def _decompositions(rs: RootSystem) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Per root g, each unordered pair {f, h} of roots with f + h = g,
    once, as ``(f, h)`` with f < h, in increasing order of h, so that the
    pairs of positive roots come first; and per root h, the bit mask of the
    roots f with f + h a root."""
    pairs = [[] for _ in rs.roots]
    summable = [0] * len(rs.roots)
    for h, row in enumerate(rs.sum_table):
        for f, g in enumerate(row):
            if g is not None:
                summable[h] |= 1 << f
                if f < h:
                    pairs[g].append((f, h))
    return pairs, summable


def _has_summing_pair(rs: RootSystem, mask: int) -> bool:
    """Whether two (not necessarily distinct) roots in a mask of root
    indices, positive or negative, sum to a root: some member's summable
    mask meets the mask.  The one decider for abelian ideals, which is
    the commutativity of their affine elements, and finite commutativity;
    ``roots.has_summing_pair`` is its reference."""
    summable = _decompositions(rs)[1]
    for f in iter_bits(mask):  # a loop: any() over a generator took 2.5 times as long
        if summable[f] & mask:
            return True
    return False


def element_from_biconvex_affine(S: AffineRootSet) -> AffineWeylWord:
    """The element whose inversion set is S; the peel rejects a set that is
    not biconvex, as it sticks exactly there, and ``_checked_peel`` holds
    its word to the size of S.  Its final images are those of the affine
    simple roots under the inverse, the canonical form."""
    rs = S.system
    word, img = _peel_word(rs, S.keys)
    return AffineWeylWord._trusted(rs, word, S.keys, img)


def is_biconvex_affine(S: AffineRootSet) -> bool:
    """Whether S is an inversion set, decided by the one peel: it empties S
    exactly then (``_peel_codes`` proves it), and ``_checked_peel`` holds
    its word to the length of S.  Closure of S and of its complement alone
    is weaker: on A1 no two real roots sum to a root, so closure accepts
    sets such as {-a + 2 delta} and {a, -a + delta}, which are no inversion
    set."""
    try:
        element_from_biconvex_affine(S)
    except LiesphError:
        return False
    return True


def is_commutative_affine(S: AffineRootSet) -> bool:
    """No two (not necessarily distinct) members sum to a real root.

    A sum of real affine roots is real iff their finite parts sum to a root,
    so only the distinct finite parts matter."""
    return not has_summing_pair(S.system, {f for _, f in S.keys})


def is_fc_affine(S: AffineRootSet) -> bool:
    """No irreducible rank-2 parabolic positive subsystem inside S, for S an
    inversion set: no pair in S is a base of an irreducible plane.

    The pair scan is public API and the tests' reference; on an ideal's
    encoding, the per-ideal path of ``liesph.ideals`` decides the same from
    the ideal's layer masks (``ideals._is_fc_by_layers``, whose docstring
    proves the two agree)."""
    return not has_irreducible_base_pair(S.system, sorted(S.keys))
