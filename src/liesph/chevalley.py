"""Exact Chevalley-basis Lie algebra over the integers.

Basis: one vector e_a per root a (in root-index order), then the simple
coroots h_1..h_rank.  Elements are sparse dicts {basis index: coefficient}
with int or Fraction values; no floating point anywhere.

Structure constants N_{a,b} are fixed by choosing the sign of every
extraspecial pair (the minimal decomposition of each non-simple positive
root in the canonical root order) and propagating all remaining constants
through Jacobi and the rotation identity
N_{u,v}/(w,w) = N_{v,w}/(u,u) = N_{w,u}/(v,v) for u+v+w = 0.  The tables
are built in int arithmetic: every division is exact, or the build raises.
"""

from __future__ import annotations

from .errors import LiesphError, MismatchedSystems
from .roots import PosRootSet, Root, RootSystem, root_string_p


class NilpotentElement:
    """Element of the nilradical: rational coefficients on positive roots."""

    __slots__ = ("system", "coeffs")

    def __init__(self, system: RootSystem, coeffs: dict):
        from fractions import Fraction

        clean = {}
        for key, val in coeffs.items():
            idx = key.index if isinstance(key, Root) else int(key)
            if not 0 <= idx < system.num_positive:
                raise LiesphError("nilpotent elements are supported on positive roots")
            val = Fraction(val)
            if val:
                clean[idx] = val
        self.system = system
        self.coeffs = clean

    def support_set(self) -> PosRootSet:
        return PosRootSet.from_indices(self.coeffs, self.system.num_positive)

    def __repr__(self):
        terms = {self.system.roots[i].coords: c for i, c in sorted(self.coeffs.items())}
        return f"NilpotentElement({terms})"


def support(x: NilpotentElement) -> PosRootSet:
    return x.support_set()


class ChevalleyAlgebra:
    def __init__(self, rs: RootSystem, extraspecial_sign: int = 1):
        if extraspecial_sign not in (1, -1):
            raise LiesphError("extraspecial_sign must be +1 or -1")
        self.rs = rs
        self.extraspecial_sign = extraspecial_sign
        self.num_roots = len(rs.roots)
        self.dim = self.num_roots + rs.rank
        self.ntab = _structure_constants(rs, extraspecial_sign)
        self.coroot = _coroot_table(rs)
        self._simple_idx = [rs.simple_root(i + 1).index for i in range(rs.rank)]
        self._bracket_cache: dict[tuple[int, int], dict] = {}

    def e(self, a) -> dict:
        idx = a.index if isinstance(a, Root) else int(a)
        return {idx: 1}

    def h(self, i: int) -> dict:
        """Simple coroot h_i, 1-based."""
        return {self.num_roots + i - 1: 1}

    def nilpotent(self, coeffs) -> NilpotentElement:
        return NilpotentElement(self.rs, coeffs)

    def bracket_basis(self, i: int, j: int) -> dict:
        key = (i, j)
        hit = self._bracket_cache.get(key)
        if hit is not None:
            return hit
        out = self._bracket_basis_raw(i, j)
        self._bracket_cache[key] = out
        return out

    def _bracket_basis_raw(self, i: int, j: int) -> dict:
        rs = self.rs
        nr = self.num_roots
        if i < nr and j < nr:
            s = rs.sum_table[i][j]
            if s is not None:
                return {s: self.ntab[(i, j)]}
            if j == rs.neg_index(i):
                base = nr
                return {
                    base + k: c for k, c in enumerate(self.coroot[i]) if c
                }
            return {}
        if i >= nr and j >= nr:
            return {}
        if i >= nr:  # [h_k, e_b] = <b, alpha_k> e_b
            k = i - nr
            pair = rs.pairing_table[j][self._simple_idx[k]]
            return {j: pair} if pair else {}
        k = j - nr
        pair = rs.pairing_table[i][self._simple_idx[k]]
        return {i: -pair} if pair else {}

    def export_constants(self) -> dict:
        """JSON-ready structure-constant table (positive-sum pairs only)."""
        rs = self.rs
        rows = [
            [list(rs.roots[i].coords), list(rs.roots[j].coords), n]
            for (i, j), n in sorted(self.ntab.items())
        ]
        return {
            "type": rs.cartan_type.name,
            "extraspecial_sign": self.extraspecial_sign,
            "pairs": rows,
        }

    def __repr__(self):
        return f"ChevalleyAlgebra({self.rs.cartan_type.name}, dim={self.dim})"


def build_chevalley(rs: RootSystem, extraspecial_sign: int = 1) -> ChevalleyAlgebra:
    return ChevalleyAlgebra(rs, extraspecial_sign)


def _coroot_table(rs: RootSystem):
    """[e_r, e_-r] on the simple coroots: 2 r_i d_i / (r, r), exactly."""
    table = []
    for r in rs.roots:
        coeffs = []
        for i in range(rs.rank):
            c, rest = divmod(2 * r.coords[i] * rs.simple_norms[i], r.norm2)
            if rest:
                raise LiesphError("non-integral coroot coefficient")
            coeffs.append(c)
        table.append(tuple(coeffs))
    return table


def _exact(num: int, den: int) -> int:
    q, rest = divmod(num, den)
    if rest:
        raise LiesphError("non-integral structure constant")
    return q


def _structure_constants(rs: RootSystem, es_sign: int) -> dict:
    m = rs.num_positive
    neg = rs.neg_index
    norm2 = rs.norm2
    sum_table = rs.sum_table
    full: dict = {}  # (i, j) -> int

    def lookup(i: int, j: int) -> int:
        val = full.get((i, j))
        if val is not None:
            return val
        s = sum_table[i][j]
        if s is None:
            return 0
        if i < m and j < m:
            raise LiesphError("positive pair requested before it was computed")
        if i >= m and j >= m:
            val = -lookup(neg(i), neg(j))
        elif i >= m:
            val = -lookup(j, i)
        elif s < m:
            # rotation through u + v + w = 0 with u = i, v = j, w = -s
            val = _exact(-lookup(neg(j), s) * norm2[s], norm2[i])
        else:
            val = -lookup(neg(i), neg(j))
        full[(i, j)] = val
        return val

    def store(i: int, j: int, val: int):
        full[(i, j)] = val
        full[(j, i)] = -val

    for g in range(m):
        gamma = rs.roots[g]
        if gamma.height == 1:
            continue
        pairs = []
        for a in range(m):
            b = sum_table[g][neg(a)]
            if b is not None and b < m and a <= b:
                pairs.append((a, b))
        pairs.sort()
        x, y = pairs[0]  # extraspecial: minimal first component
        store(x, y, es_sign * (root_string_p(rs, rs.roots[x], rs.roots[y]) + 1))
        if len(pairs) == 1:
            continue
        denom = lookup(g, neg(x))
        for a, b in pairs[1:]:
            # Jacobi on (e_{-x}, e_a, e_b), total weight gamma - x = y:
            # N_{a,b} N_{gamma,-x} + N_{-x,a} N_{a-x,b} + N_{b,-x} N_{b-x,a} = 0
            t1 = 0
            ax = sum_table[a][neg(x)]
            if ax is not None:
                t1 = lookup(neg(x), a) * lookup(ax, b)
            t3 = 0
            bx = sum_table[b][neg(x)]
            if bx is not None:
                t3 = lookup(b, neg(x)) * lookup(bx, a)
            store(a, b, _exact(-(t1 + t3), denom))

    # materialize every remaining pair
    size = len(rs.roots)
    out: dict[tuple[int, int], int] = {}
    for i in range(size):
        for j in range(size):
            if sum_table[i][j] is not None:
                val = lookup(i, j)
                if val == 0:
                    raise LiesphError("invalid structure constant")
                out[(i, j)] = val
    return out


# -- element arithmetic ---------------------------------------------------------


def _as_vector(L: ChevalleyAlgebra, x) -> dict:
    if isinstance(x, NilpotentElement):
        if x.system is not L.rs:
            raise MismatchedSystems("element from another system")
        return x.coeffs
    return x


def bracket(L: ChevalleyAlgebra, x, y) -> dict:
    """Lie bracket of two sparse elements."""
    x = _as_vector(L, x)
    y = _as_vector(L, y)
    acc: dict = {}
    for i, ci in x.items():
        if not ci:
            continue
        for j, cj in y.items():
            if not cj:
                continue
            for b, n in L.bracket_basis(i, j).items():
                val = acc.get(b, 0) + ci * cj * n
                if val:
                    acc[b] = val
                else:
                    acc.pop(b, None)
    return acc


def ad_matrix(L: ChevalleyAlgebra, x) -> list[list]:
    """Dense matrix of ad(x) in the Chevalley basis (rows = output coords)."""
    x = _as_vector(L, x)
    n = L.dim
    mat = [[0] * n for _ in range(n)]
    for col in range(n):
        for row, val in bracket(L, x, {col: 1}).items():
            mat[row][col] = val
    return mat


def height(L: ChevalleyAlgebra, x) -> int:
    """Largest n with ad(x)^n != 0, for x in the nilradical; height(0) = 0."""
    x = _as_vector(L, x)
    if any(i >= L.rs.num_positive for i in x):
        raise LiesphError("height is defined for elements of the nilradical")
    if not x:
        return 0
    bound = 2 * L.rs.theta.height + 1
    vecs = [{b: 1} for b in range(L.dim)]
    k = 0
    while True:
        vecs = [w for w in (bracket(L, x, v) for v in vecs) if w]
        if not vecs:
            return k
        k += 1
        if k > bound:
            raise LiesphError("ad power did not vanish within the nilpotency bound")


def exp_root_action(L: ChevalleyAlgebra, a: Root, xi, x) -> dict:
    """u_a(xi).x = x + sum_{k>0} (xi^k / k!) ad(e_a)^k (x)."""
    from fractions import Fraction

    if a.system is not L.rs:
        raise MismatchedSystems("root from another system")
    x = dict(_as_vector(L, x))
    xi = Fraction(xi)
    term = x
    k = 0
    power = Fraction(1)
    factorial = 1
    out = dict(x)
    while True:
        term = bracket(L, {a.index: 1}, term)
        if not term:
            return {b: c for b, c in out.items() if c}
        k += 1
        factorial *= k
        power *= xi
        scale = power / factorial
        for b, c in term.items():
            val = out.get(b, 0) + scale * c
            if val:
                out[b] = val
            else:
                out.pop(b, None)


def jacobi_defect(L: ChevalleyAlgebra, i: int, j: int, k: int) -> dict:
    """[[i,j],k] + [[j,k],i] + [[k,i],j]; empty dict iff Jacobi holds."""
    acc: dict = {}
    for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
        for b1, n1 in L.bracket_basis(u, v).items():
            for b2, n2 in L.bracket_basis(b1, w).items():
                val = acc.get(b2, 0) + n1 * n2
                if val:
                    acc[b2] = val
                else:
                    acc.pop(b2, None)
    return acc
