"""Finite Weyl group elements, inversion sets, and commutativity deciders.

An element w is stored as the affine module stores one, read at level 0: a
reduced word of 1-based simple-reflection indices whose product is w, its
inversion mask N(w) = {beta > 0 : w beta < 0}, and ``img``, the codes of
w^-1 alpha_j for the affine simple roots alpha_0 .. alpha_rank (see
``affine._affine_codes``; a level-0 code is the root's packed int).  Two
families of deciders are provided for (full) commutativity:
definition-based ones that scan all reduced words, and inversion-set
criteria (no summing pair of inversions; no base of an irreducible plane
among them), each a scan of the inversion mask against a per-root partner
table (``roots._has_pair``), as is ``pairing_nonneg``.
"""

from __future__ import annotations

from collections import deque

from .affine import (
    _affine_codes,
    _checked_peel,
    _inversion_codes,
    _reflect_images,
    _reflect_key,
    _summable,
    _word_image,
)
from .errors import LiesphError, MismatchedSystems, WordCapExceeded
from .roots import (
    PosRootSet,
    Root,
    RootSystem,
    _has_pair,
    _irreducible_planes,
    _memo,
    has_irreducible_base_pair,
    iter_bits,
)

DEFAULT_WORD_CAP = 10**6


class WeylElement:
    """A reduced word, its inversion mask and the codes ``img`` of the images
    of the affine simple roots under the inverse of its product.  The mask
    determines the element, so equality and hashing go by it."""

    __slots__ = ("system", "word", "inv_mask", "img")

    def __init__(self, system: RootSystem, word: tuple[int, ...], inv_mask: int, img: tuple[int, ...]):
        self.system = system
        self.word = word
        self.inv_mask = inv_mask
        self.img = img

    @property
    def length(self) -> int:
        return self.inv_mask.bit_count()

    @property
    def inv(self) -> PosRootSet:
        return PosRootSet(self.inv_mask, self.system.num_positive)

    def canonical_word(self) -> tuple[int, ...]:
        """Lexicographically least reduced word (greedy left descents): s_i
        is a left descent of w when w^-1 alpha_i < 0, and the images under
        (s_i w)^-1 are those of w^-1 s_i."""
        letters = _affine_codes(self.system)[1]
        img = list(self.img)
        word = []
        while True:
            for i in range(1, len(img)):
                if img[i] < 0:
                    word.append(i)
                    _reflect_images(img, letters, i)
                    break
            else:
                return tuple(word)

    def apply(self, r: Root) -> Root:
        rs = self.system
        if r.system is not rs:
            raise MismatchedSystems("root from another system")
        return rs.roots[_word_image(rs, self.word, (0, r.index))[1]]

    def is_identity(self) -> bool:
        return self.inv_mask == 0

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and other.system is self.system
            and other.inv_mask == self.inv_mask
        )

    def __hash__(self):
        return hash(self.inv_mask)

    def __repr__(self):
        return f"WeylElement(word={list(self.word)})"


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, (), 0, tuple(c for c, _ in _affine_codes(rs)[1]))


def simple_element(rs: RootSystem, i: int) -> WeylElement:
    return from_word(rs, (i,))


def from_word(rs: RootSystem, word) -> WeylElement:
    """Element of the letters' product; the stored word is reduced: the
    given one if it is, else the canonical word."""
    word = tuple(int(i) for i in word)
    for i in word:
        if not 1 <= i <= rs.rank:
            raise LiesphError(f"simple index {i} out of range")
    inv, img = _inversion_codes(rs, word)
    at = rs._packed_index
    w = WeylElement(rs, word, sum(1 << at[c] for c in inv), tuple(img))
    if len(inv) != len(word):
        w.word = w.canonical_word()
    return w


def apply_simple(rs: RootSystem, i: int, r: Root) -> Root:
    """Image of a root under the simple reflection s_i (1-based)."""
    if r.system is not rs:
        raise MismatchedSystems("root from another system")
    if not 1 <= i <= rs.rank:
        raise LiesphError(f"simple index {i} out of range")
    return rs.roots[_reflect_key(rs, i, 0, r.index)[1]]


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    if u.system is not v.system:
        raise MismatchedSystems("elements from different systems")
    w = from_word(u.system, u.word + v.word)
    w.word = w.canonical_word()
    return w


def inverse(u: WeylElement) -> WeylElement:
    return from_word(u.system, u.word[::-1])


_BRAID = {0: 2, 1: 3, 2: 4, 3: 6}


def braid_order(rs: RootSystem, i: int, j: int) -> int:
    """Order of s_i s_j (1-based simple indices)."""
    if i == j:
        return 1
    a = rs.simple_root(i)
    b = rs.simple_root(j)
    prod = rs.pairing_table[a.index][b.index] * rs.pairing_table[b.index][a.index]
    return _BRAID[prod]


def enumerate_weyl(rs: RootSystem):
    """All group elements exactly once, by nondecreasing length: breadth
    first on the left weak order, prepending letters.  When w^-1 alpha_i > 0,
    N(s_i w) = N(w) + {w^-1 alpha_i}, so a child's mask is known before it
    is built, and duplicates are dropped by mask.  The count is checked
    against the classical order at the end."""
    letters = _affine_codes(rs)[1]
    at = rs._packed_index
    e = identity(rs)
    frontier = [e]
    yield e
    count = 1
    while frontier:
        nxt = []
        seen = set()
        for w in frontier:
            img = w.img
            for i in range(1, len(img)):
                if img[i] > 0:  # length goes up
                    mask = w.inv_mask | 1 << at[img[i]]
                    if mask not in seen:
                        seen.add(mask)
                        child = list(img)
                        _reflect_images(child, letters, i)
                        el = WeylElement(rs, (i,) + w.word, mask, tuple(child))
                        nxt.append(el)
                        yield el
        count += len(nxt)
        frontier = nxt
    order = rs.cartan_type.weyl_order()
    if count != order:
        raise LiesphError(f"enumeration produced {count} elements, expected {order}")


def longest_element(rs: RootSystem) -> WeylElement:
    npos = rs.num_positive
    full = (1 << npos) - 1
    return element_from_biconvex(rs, PosRootSet(full, npos))


def element_from_biconvex(rs: RootSystem, ps: PosRootSet) -> WeylElement:
    """The unique w with inversion set ps, from the affine peel
    (``affine._checked_peel``) on level-0 codes, the packed ints, which
    rejects a set that is not biconvex: a peel that empties ps has built a
    reduced word with inversion set ps, and its final images are those
    under w^-1."""
    if ps.width != rs.num_positive:
        raise MismatchedSystems("bit vector from another system")
    word, img = _checked_peel(rs, {rs.packed[i] for i in ps.indices()})
    return WeylElement(rs, word, ps.mask, tuple(img))


# -- orders --------------------------------------------------------------------


def weak_leq(v: WeylElement, w: WeylElement) -> bool:
    """Left weak order: containment of inversion sets."""
    if v.system is not w.system:
        raise MismatchedSystems("elements from different systems")
    return v.inv_mask & ~w.inv_mask == 0


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    """The lifting property on left descents, as Bruhat order is invariant
    under inversion: for a left descent s of w, v <= w iff s v <= s w when s
    is a left descent of v too, and iff v <= s w otherwise."""
    if v.system is not w.system:
        raise MismatchedSystems("elements from different systems")
    letters = _affine_codes(v.system)[1]
    at = v.system._packed_index
    vm, wm = v.inv_mask, w.inv_mask
    vi, wi = list(v.img), list(w.img)
    while True:
        if vm == wm:
            return True
        if vm.bit_count() >= wm.bit_count():  # distinct elements need l(v) < l(w)
            return False
        i = next(i for i in range(1, len(wi)) if wi[i] < 0)
        # N(s_i w) = N(w) - {-w^-1 alpha_i}
        wm ^= 1 << at[-wi[i]]
        _reflect_images(wi, letters, i)
        if vi[i] < 0:
            vm ^= 1 << at[-vi[i]]
            _reflect_images(vi, letters, i)


# -- reduced words and definition-based deciders --------------------------------


def _braid_run(word, k, m):
    i, j = word[k], word[k + 1]
    for t in range(m):
        if word[k + t] != (i if t % 2 == 0 else j):
            return None
    return tuple(j if t % 2 == 0 else i for t in range(m))


def _reduced_words_iter(rs: RootSystem, start: tuple[int, ...], cap: int):
    """All reduced words braid-connected to start (Matsumoto); raises
    WordCapExceeded when more than cap words exist."""
    seen = {start}
    queue = deque([start])
    while queue:
        word = queue.popleft()
        yield word
        n = len(word)
        for k in range(n - 1):
            i, j = word[k], word[k + 1]
            if i == j:
                continue
            m = braid_order(rs, i, j)
            if k + m > n:
                continue
            rep = _braid_run(word, k, m)
            if rep is None:
                continue
            new = word[:k] + rep + word[k + m :]
            if new not in seen:
                if len(seen) >= cap:
                    raise WordCapExceeded(f"more than {cap} reduced words")
                seen.add(new)
                queue.append(new)


def reduced_words(w: WeylElement, cap: int = DEFAULT_WORD_CAP):
    """Sorted list of all reduced words of w, truncated at cap.

    Returns (words, overflowed)."""
    out = []
    overflow = False
    try:
        for word in _reduced_words_iter(w.system, w.word, cap):
            out.append(word)
    except WordCapExceeded:
        overflow = True
    return sorted(out), overflow


def _word_has_comm_pattern(rs: RootSystem, word) -> bool:
    # s_a s_b s_a with ||a|| <= ||b||
    norms = [rs.simple_root(i + 1).norm2 for i in range(rs.rank)]
    for k in range(len(word) - 2):
        if word[k] == word[k + 2] and norms[word[k] - 1] <= norms[word[k + 1] - 1]:
            return True
    return False


def _word_has_fc_pattern(rs: RootSystem, word) -> bool:
    # alternating s_a s_b ... of length m(s_a, s_b) >= 3
    for k in range(len(word) - 2):
        i, j = word[k], word[k + 1]
        if i == j:
            continue
        m = braid_order(rs, i, j)
        if m >= 3 and k + m <= len(word) and _braid_run(word, k, m) is not None:
            return True
    return False


def is_commutative_def(w: WeylElement, cap: int = DEFAULT_WORD_CAP) -> bool:
    """No reduced word contains s_a s_b s_a with ||a|| <= ||b||.

    Raises WordCapExceeded if the full word set cannot be certified."""
    for word in _reduced_words_iter(w.system, w.word, cap):
        if _word_has_comm_pattern(w.system, word):
            return False
    return True


def is_fc_def(w: WeylElement, cap: int = DEFAULT_WORD_CAP) -> bool:
    """No reduced word contains a full alternating braid substring."""
    for word in _reduced_words_iter(w.system, w.word, cap):
        if _word_has_fc_pattern(w.system, word):
            return False
    return True


# -- inversion-set criteria ------------------------------------------------------


@_memo
def _negative_pairings(rs: RootSystem) -> list[int]:
    """Per positive root a, the mask of the positive roots b with
    <a, b> < 0: the partner table of ``pairing_nonneg``."""
    npos = rs.num_positive
    return [sum(1 << b for b, p in enumerate(row[:npos]) if p < 0) for row in rs.pairing_table[:npos]]


def pairing_nonneg(rs: RootSystem, ps: PosRootSet) -> bool:
    """No two members pair negatively (``roots._has_pair``)."""
    return not _has_pair(_negative_pairings(rs), ps.mask)


def is_commutative_inv(w: WeylElement) -> bool:
    """No two (not necessarily distinct) inversions sum to a root: the
    summing-pair scan of the inversion mask (``roots._has_pair``), the same
    decision as has_summing_pair."""
    return not _has_pair(_summable(w.system), w.inv_mask)


def is_fc_inv(w: WeylElement) -> bool:
    """No two inversions are the base of an irreducible plane: the base-pair
    scan of the inversion mask (``roots._has_pair``, which proves it decides
    what is_fc_inv_base_pair decides)."""
    return not _has_pair(_irreducible_planes(w.system), w.inv_mask)


def is_fc_inv_base_pair(w: WeylElement) -> bool:
    """The reference for is_fc_inv, by a scan of every pair of inversions:
    no pair is a base of an irreducible rank-2 parabolic."""
    return not has_irreducible_base_pair(w.system, [(0, a) for a in iter_bits(w.inv_mask)])
