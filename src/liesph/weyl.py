"""Finite Weyl group elements, inversion sets, and commutativity deciders.

An element is stored by its permutation action on the full root list; words
are tuples of 1-based simple-reflection indices.  Two families of deciders
are provided for (full) commutativity: definition-based ones that scan all
reduced words, and inversion-set criteria (no summing pair of inversions;
no rank-2 parabolic positive subsystem inside the inversion set).
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter

from .affine import _peel_word
from .errors import BudgetExceeded, LiesphError, MismatchedSystems, WordCapExceeded
from .roots import (
    PosRootSet,
    Root,
    RootSystem,
    _plane_table,
    has_irreducible_base_pair,
    iter_bits,
    plane_solver,
)

DEFAULT_WORD_CAP = 10**6


class WeylElement:
    __slots__ = ("system", "action", "word", "inv_mask")

    def __init__(self, system: RootSystem, action: tuple[int, ...], word: tuple[int, ...]):
        self.system = system
        self.action = action
        self.word = word
        npos = system.num_positive
        mask = 0
        for i in range(npos):
            if action[i] >= npos:
                mask |= 1 << i
        self.inv_mask = mask
        if len(word) != mask.bit_count():
            raise LiesphError("word is not reduced for this action")

    @property
    def length(self) -> int:
        return self.inv_mask.bit_count()

    @property
    def inv(self) -> PosRootSet:
        return PosRootSet(self.inv_mask, self.system.num_positive)

    def canonical_word(self) -> tuple[int, ...]:
        """Lexicographically least reduced word (greedy left descents)."""
        return _canonical_word(self.system, self.action)

    def apply(self, r: Root) -> Root:
        if r.system is not self.system:
            raise MismatchedSystems("root from another system")
        return self.system.roots[self.action[r.index]]

    def is_identity(self) -> bool:
        return self.inv_mask == 0

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and other.system is self.system
            and other.action == self.action
        )

    def __hash__(self):
        return hash(self.action)

    def __repr__(self):
        return f"WeylElement(word={list(self.word)})"


def _identity_action(rs: RootSystem) -> tuple[int, ...]:
    return tuple(range(len(rs.roots)))


def _compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    # (outer o inner)(x) = outer(inner(x)); an action has at least two
    # entries, so itemgetter returns a tuple
    return itemgetter(*inner)(outer)


def _invert_action(action: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(action)
    for i, j in enumerate(action):
        out[j] = i
    return tuple(out)


def _simple_indices(rs: RootSystem) -> list[int]:
    return [rs.simple_root(i + 1).index for i in range(rs.rank)]


def _canonical_word(rs: RootSystem, action: tuple[int, ...]) -> tuple[int, ...]:
    npos = rs.num_positive
    simples = _simple_indices(rs)
    cur_inv = _invert_action(action)
    word = []
    while True:
        for i in range(rs.rank):
            if cur_inv[simples[i]] >= npos:
                word.append(i + 1)
                perm = rs.simple_perms[i]
                cur_inv = _compose(cur_inv, perm)
                break
        else:
            return tuple(word)


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, _identity_action(rs), ())


def simple_element(rs: RootSystem, i: int) -> WeylElement:
    if not 1 <= i <= rs.rank:
        raise LiesphError(f"simple index {i} out of range")
    return WeylElement(rs, rs.simple_perms[i - 1], (i,))


def from_word(rs: RootSystem, word) -> WeylElement:
    """Element of the letters' product; the stored word is reduced."""
    word = tuple(int(i) for i in word)
    action = _identity_action(rs)
    for i in word:
        if not 1 <= i <= rs.rank:
            raise LiesphError(f"simple index {i} out of range")
        action = _compose(action, rs.simple_perms[i - 1])
    npos = rs.num_positive
    length = sum(1 for i in range(npos) if action[i] >= npos)
    if length == len(word):
        return WeylElement(rs, action, word)
    return WeylElement(rs, action, _canonical_word(rs, action))


def apply_simple(rs: RootSystem, i: int, r: Root) -> Root:
    """Image of a root under the simple reflection s_i (1-based)."""
    if r.system is not rs:
        raise MismatchedSystems("root from another system")
    if not 1 <= i <= rs.rank:
        raise LiesphError(f"simple index {i} out of range")
    return rs.roots[rs.simple_perms[i - 1][r.index]]


def multiply(u: WeylElement, v: WeylElement) -> WeylElement:
    if u.system is not v.system:
        raise MismatchedSystems("elements from different systems")
    action = _compose(u.action, v.action)
    return WeylElement(u.system, action, _canonical_word(u.system, action))


def inverse(u: WeylElement) -> WeylElement:
    return WeylElement(u.system, _invert_action(u.action), tuple(reversed(u.word)))


_BRAID = {0: 2, 1: 3, 2: 4, 3: 6}


def braid_order(rs: RootSystem, i: int, j: int) -> int:
    """Order of s_i s_j (1-based simple indices)."""
    if i == j:
        return 1
    a = rs.simple_root(i)
    b = rs.simple_root(j)
    prod = rs.pairing_table[a.index][b.index] * rs.pairing_table[b.index][a.index]
    return _BRAID[prod]


def enumerate_weyl(rs: RootSystem, budget: int | None = None):
    """All group elements exactly once, by nondecreasing length (BFS on the
    right weak order).  Refuses upfront when the classical order exceeds the
    budget."""
    order = rs.cartan_type.weyl_order()
    if budget is not None and order > budget:
        raise BudgetExceeded(
            f"|W({rs.cartan_type.name})| = {order} exceeds budget {budget}"
        )
    npos = rs.num_positive
    simples = _simple_indices(rs)
    e = identity(rs)
    seen = {e.action}
    frontier = [e]
    yield e
    count = 1
    while frontier:
        nxt = []
        for w in frontier:
            for i in range(rs.rank):
                if w.action[simples[i]] < npos:  # length goes up
                    action = _compose(w.action, rs.simple_perms[i])
                    if action not in seen:
                        seen.add(action)
                        el = WeylElement(rs, action, w.word + (i + 1,))
                        nxt.append(el)
                        yield el
                        count += 1
        frontier = nxt
    if count != order:
        raise LiesphError(f"enumeration produced {count} elements, expected {order}")


def inversions(w: WeylElement) -> PosRootSet:
    return w.inv


def longest_element(rs: RootSystem) -> WeylElement:
    npos = rs.num_positive
    full = (1 << npos) - 1
    return element_from_biconvex(rs, PosRootSet(full, npos))


# -- biclosed / biconvex sets -------------------------------------------------


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


def element_from_biconvex(rs: RootSystem, ps: PosRootSet) -> WeylElement:
    """The unique w with inversion set ps; the affine peel on level-0 keys
    rejects a set that is not biconvex."""
    if ps.width != rs.num_positive:
        raise MismatchedSystems("bit vector from another system")
    w = from_word(rs, _peel_word(rs, {(0, i) for i in ps.indices()})[0])
    if w.inv_mask != ps.mask:
        raise LiesphError("peeling failed to reproduce the input set")
    return w


# -- orders --------------------------------------------------------------------


def weak_leq(v: WeylElement, w: WeylElement) -> bool:
    """Left weak order: containment of inversion sets."""
    if v.system is not w.system:
        raise MismatchedSystems("elements from different systems")
    return v.inv_mask & ~w.inv_mask == 0


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    if v.system is not w.system:
        raise MismatchedSystems("elements from different systems")
    rs = v.system
    npos = rs.num_positive
    simples = _simple_indices(rs)

    def ln(action):
        return sum(1 for i in range(npos) if action[i] >= npos)

    va, wa = v.action, w.action
    lv, lw = ln(va), ln(wa)
    while True:
        if va == wa:
            return True
        if lv >= lw:  # distinct elements need l(v) < l(w)
            return False
        for i in range(rs.rank):
            if wa[simples[i]] >= npos:
                break
        perm = rs.simple_perms[i]
        wa = _compose(wa, perm)
        lw -= 1
        if va[simples[i]] >= npos:
            va = _compose(va, perm)
            lv -= 1


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


def pairing_nonneg(rs: RootSystem, ps: PosRootSet) -> bool:
    idxs = list(ps.indices())
    pt = rs.pairing_table
    for x, a in enumerate(idxs):
        row = pt[a]
        for b in idxs[x + 1 :]:
            if row[b] < 0:
                return False
    return True


def _summing_pair_masks(rs: RootSystem) -> list[int]:
    """The masks {a, b} of the positive roots a < b with a + b a root,
    memoized on rs."""
    masks = getattr(rs, "_summing_pair_masks", None)
    if masks is None:
        st = rs.sum_table
        npos = rs.num_positive
        masks = [1 << a | 1 << b for a in range(npos) for b in range(a + 1, npos)
                 if st[a][b] is not None]
        rs._summing_pair_masks = masks
    return masks


def _irreducible_plane_masks(rs: RootSystem) -> list[int]:
    """The masks of the positive roots of each irreducible plane, read once
    from ``_plane_table`` and memoized on rs."""
    masks = getattr(rs, "_irreducible_plane_masks", None)
    if masks is None:
        npos = rs.num_positive
        planes = {plane for plane, _, _ in _plane_table(rs).values() if len(plane) > 4}
        masks = sorted(sum(1 << f for f in plane if f < npos) for plane in planes)
        rs._irreducible_plane_masks = masks
    return masks


def is_commutative_inv(w: WeylElement) -> bool:
    """No two (not necessarily distinct) inversions sum to a root.

    Since a + a is never a root, this asks whether some summing pair's mask
    lies inside the inversion set: the same decision as has_summing_pair."""
    inv = w.inv_mask
    for mask in _summing_pair_masks(w.system):
        if mask & inv == mask:
            return False
    return True


def is_fc_inv(w: WeylElement) -> bool:
    """Inversion set contains no irreducible rank-2 parabolic positive system.

    A closed set N holds a base pair of an irreducible plane P exactly when
    N contains all of P's positive roots: a base made of positive roots
    spans a positive system of |P|/2 positive roots, which must be all of
    them, and closure puts each into N; conversely, P's positive roots hold
    their own base.  An inversion set is closed, so this tests each
    irreducible plane's positive mask for containment in it, and decides
    what is_fc_inv_base_pair decides."""
    inv = w.inv_mask
    for mask in _irreducible_plane_masks(w.system):
        if mask & inv == mask:
            return False
    return True


def is_fc_inv_base_pair(w: WeylElement) -> bool:
    """The reference for is_fc_inv, by a scan of every pair of inversions:
    no pair is a base of an irreducible rank-2 parabolic."""
    return not has_irreducible_base_pair(w.system, [(0, a) for a in iter_bits(w.inv_mask)])
