import itertools
import multiprocessing
import os
from operator import sub

import pytest

from conftest import get_algebra, get_rs
from liesph import ideals as I
from liesph import spherical as S
from liesph import weyl as W
from liesph.errors import LiesphError
from liesph.roots import PosRootSet, iter_bits


def g2_psi0():
    g2 = get_rs("G2")
    return g2.posrootset([g2.root_from_coords(c) for c in [(2, 1), (3, 1), (3, 2)]])


def test_oracle_g2_examples():
    g2 = get_rs("G2")
    L = get_algebra("G2")
    assert S.is_spherical_subspace(L, g2_psi0())
    assert not S.is_spherical_subspace(
        L, g2.posrootset([g2.simple_root(1), g2.simple_root(2)])
    )
    phi = W.from_word(g2, [1, 2, 1]).inv
    assert not S.is_spherical_subspace(L, phi)
    witness = S.spherical_witness(L, phi)
    assert witness is not None
    assert set(witness) <= set(phi.indices())


def test_negative_pair_never_spherical_outside_g2():
    for name in ["A2", "B2", "B3", "C3"]:
        rs = get_rs(name)
        L = get_algebra(name)
        for a in rs.positive_roots:
            for b in rs.positive_roots:
                if a.index < b.index and rs.pairing_table[a.index][b.index] < 0:
                    assert not S.is_spherical_subspace(L, rs.posrootset([a, b]))


def test_g2_negative_pair_exception():
    # the one G2 pair with negative pairing whose span is still spherical:
    # both roots short, their plane meets the long roots, and no honest A2
    # subalgebra contains e_a + e_b
    g2 = get_rs("G2")
    L = get_algebra("G2")
    a, b = g2.root_from_coords((1, 0)), g2.root_from_coords((1, 1))
    assert g2.pairing_table[a.index][b.index] < 0
    assert S.is_spherical_subspace(L, g2.posrootset([a, b]))
    assert S.generic_height(L, g2.posrootset([a, b]), trials=5) == 3
    # the other negative pairs do give non-spherical spans
    assert not S.is_spherical_subspace(
        L, g2.posrootset([g2.simple_root(1), g2.simple_root(2)])
    )
    assert not S.is_spherical_subspace(
        L, g2.posrootset([g2.simple_root(2), g2.root_from_coords((3, 1))])
    )


def test_generic_height_examples():
    g2 = get_rs("G2")
    L = get_algebra("G2")
    assert S.generic_height(L, g2.posrootset([g2.theta])) == 2
    a2 = get_rs("A2")
    La = get_algebra("A2")
    assert S.generic_height(La, PosRootSet(7, 3), trials=3) == 4
    assert S.generic_height(L, g2_psi0()) <= 3
    with pytest.raises(LiesphError):
        S.generic_height(L, g2_psi0(), trials=0)


def test_generic_height_monotone_in_trials():
    g2 = get_rs("G2")
    L = get_algebra("G2")
    ps = W.from_word(g2, [1, 2, 1]).inv
    values = [S.generic_height(L, ps, trials=t, seed=3) for t in range(1, 5)]
    assert values == sorted(values)


def test_quartic_multiset_decomposition():
    # (ad x)^4 equals the sum over size-4 support multisets of the monomial
    # coefficient times the unit-coefficient chain operator; this identity is
    # what makes the vanishing of every multiset operator an exact decider
    import random
    from fractions import Fraction

    from liesph.chevalley import bracket

    rng = random.Random(0)
    for name in ["B2", "G2", "B3"]:
        rs = get_rs(name)
        L = get_algebra(name)
        for _ in range(5):
            support = rng.sample(range(rs.num_positive), rng.randint(1, 4))
            coeffs = {i: Fraction(rng.randint(-6, 6)) for i in support}
            coeffs = {i: c for i, c in coeffs.items() if c}
            if not coeffs:
                continue
            for b in range(L.dim):
                v = {b: 1}
                for _ in range(4):
                    v = bracket(L, coeffs, v)
                    if not v:
                        break
                acc = {}
                for M in itertools.combinations_with_replacement(sorted(coeffs), 4):
                    cM = Fraction(1)
                    for i in M:
                        cM *= coeffs[i]
                    for seq in sorted(set(itertools.permutations(M))):
                        w = {b: 1}
                        for g in reversed(seq):
                            w = bracket(L, {g: 1}, w)
                            if not w:
                                break
                        for k, val in w.items():
                            t = acc.get(k, 0) + cM * val
                            if t:
                                acc[k] = t
                            else:
                                acc.pop(k, None)
                assert v == acc


def test_oracles_agree_exhaustively_small():
    # deterministic quartic oracle vs randomized height sampling, on every
    # inversion set and every ideal
    for name in ["A2", "B2", "G2"]:
        rs = get_rs(name)
        L = get_algebra(name)
        subjects = [e.inv for e in W.enumerate_weyl(rs)]
        subjects += I.enumerate_ideals(rs)
        for ps in subjects:
            det = S.is_spherical_subspace(L, ps)
            rnd = S.generic_height(L, ps, trials=3, seed=1) <= 3
            assert det == rnd


def test_oracles_agree_sampled_larger():
    for name, step in [("B3", 5), ("C3", 5), ("D4", 23)]:
        rs = get_rs(name)
        L = get_algebra(name)
        els = list(W.enumerate_weyl(rs))
        for e in els[::step]:
            det = S.is_spherical_subspace(L, e.inv)
            rnd = S.generic_height(L, e.inv, trials=2, seed=0) <= 3
            assert det == rnd


def test_strongly_orthogonal():
    g2 = get_rs("G2")
    assert S.strongly_orthogonal(
        g2, g2.root_from_coords((0, 1)), g2.root_from_coords((2, 1))
    )
    b2 = get_rs("B2")
    assert not S.strongly_orthogonal(b2, b2.simple_root(2), b2.root_from_coords((1, 1)))
    b4 = get_rs("B4")
    # eps1 - eps2 and eps1 + eps2: orthogonal, and 2*eps1, 2*eps2 are not roots
    assert S.strongly_orthogonal(
        b4, b4.root_from_coords((1, 0, 0, 0)), b4.root_from_coords((1, 2, 2, 2))
    )
    c3 = get_rs("C3")
    # in C3 the same pair has 2*eps1 as a root: orthogonal but not strongly
    assert not S.strongly_orthogonal(
        c3, c3.root_from_coords((1, 0, 0)), c3.root_from_coords((1, 2, 1))
    )
    with pytest.raises(LiesphError):
        S.strongly_orthogonal(g2, g2.theta, g2.theta)


def test_classify_patterns():
    b3 = get_rs("B3")
    e1pe2 = b3.root_from_coords((1, 2, 2))
    e1me2 = b3.simple_root(1)
    e3 = b3.simple_root(3)
    assert S.classify_nonspherical_orthogonal(b3, [e1pe2, e1me2, e3]) == "B3"
    d4 = get_rs("D4")
    quad = [
        d4.root_from_coords((1, 2, 1, 1)),
        d4.simple_root(1),
        d4.simple_root(3),
        d4.simple_root(4),
    ]
    assert S.classify_nonspherical_orthogonal(d4, quad) == "D4"
    g2 = get_rs("G2")
    assert S.classify_nonspherical_orthogonal(g2, [g2.theta]) == "none"
    with pytest.raises(LiesphError):
        S.classify_nonspherical_orthogonal(b3, [e1pe2, b3.root_from_coords((0, 1, 1))])


def test_classify_bf4():
    # {2 eps_i} in C4: pair half-sums eps_i + eps_j are roots, while the
    # total half-sum eps_1+..+eps_4 is not, so the two-pair pattern is the
    # first (and only) match
    c4 = get_rs("C4")
    quad = [r for r in c4.positive_roots if r.is_long]
    assert len(quad) == 4
    assert S.classify_nonspherical_orthogonal(c4, quad) == "BF4"
    # in B4/F4 an orthogonal long quadruple with pair half-sums also satisfies
    # the four-root half-sum condition, which matches first
    f4 = get_rs("F4")
    longs = [r for r in f4.positive_roots if r.is_long]
    for quad in itertools.combinations(longs, 4):
        if all(
            f4.pairing_table[a.index][b.index] == 0
            for a, b in itertools.combinations(quad, 2)
        ):
            assert S.classify_nonspherical_orthogonal(f4, list(quad)) == "D4"


def test_orthogonal_subsets_of_spherical_sets_classify_none():
    # inside any pairing-nonnegative biconvex set or ideal, orthogonal subsets
    # never match a non-spherical pattern
    for name in ["B3", "C3", "B2", "G2"]:
        rs = get_rs(name)
        subjects = [e.inv for e in W.enumerate_weyl(rs) if W.pairing_nonneg(rs, e.inv)]
        subjects += [
            i for i in I.enumerate_ideals(rs) if W.pairing_nonneg(rs, i)
        ]
        for ps in subjects:
            roots = rs.roots_of(ps)
            orth = [
                r
                for r in roots
                if all(
                    rs.pairing_table[r.index][o.index] == 0 or o is r for o in roots
                )
            ]
            for size in (3, 4):
                for sub in itertools.combinations(roots, size):
                    if all(
                        rs.pairing_table[a.index][b.index] == 0
                        for a, b in itertools.combinations(sub, 2)
                    ):
                        assert S.classify_nonspherical_orthogonal(rs, list(sub)) == "none"


def _reference_lemma_quadruples(rs):
    """The lemma sweep on coordinate tuples: every multiset, sigma rebuilt
    from coordinates, its a - b decompositions found through index_of."""
    npos = rs.num_positive
    pt = rs.pairing_table
    witnesses = []
    violations = []
    for multiset in itertools.combinations_with_replacement(range(npos), 4):
        ok = True
        for x in range(4):
            for y in range(x + 1, 4):
                if pt[multiset[x]][multiset[y]] < 0:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        distinct = sorted(set(multiset))
        non_orth = any(
            pt[a][b] != 0 for i, a in enumerate(distinct) for b in distinct[i + 1 :]
        )
        if not non_orth:
            continue
        sigma = [0] * rs.rank
        for i in multiset:
            for k in range(rs.rank):
                sigma[k] += rs.roots[i].coords[k]
        sigma = tuple(sigma)
        decomps = []
        for a in rs.roots:
            bc = tuple(a.coords[k] - sigma[k] for k in range(rs.rank))
            bi = rs.index_of.get(bc)
            if bi is not None:
                decomps.append((a.index, bi))
        if not decomps:
            continue

        entry = {
            "multiset": [list(rs.roots[i].coords) for i in multiset],
            "decompositions": len(decomps),
        }
        if rs.cartan_type.is_simply_laced or rs.cartan_type.family == "G":
            violations.append({"multiset": entry["multiset"], "reason": "not doubly laced"})
        for a_idx, b_idx in decomps:
            if b_idx != rs.neg_index(a_idx):
                violations.append({"multiset": entry["multiset"], "reason": "sum not 2*alpha"})
            elif not rs.roots[a_idx].is_long:
                violations.append({"multiset": entry["multiset"], "reason": "alpha not long"})
        longs = [i for i in distinct if rs.roots[i].is_long]
        entry["long_members"] = len(longs)
        if len(longs) > 1:
            violations.append({"multiset": entry["multiset"], "reason": "two long members"})
        elif len(longs) == 1:
            rest = [i for i in multiset if i != longs[0]]
            if any(pt[longs[0]][j] != 0 for j in rest):
                violations.append(
                    {"multiset": entry["multiset"], "reason": "long member not orthogonal to rest"}
                )
        if not longs:
            coords = [rs.roots[i].coords for i in multiset]
            pairing_ok = any(
                tuple(coords[p[0]][k] + coords[p[1]][k] for k in range(rs.rank))
                == tuple(coords[p[2]][k] + coords[p[3]][k] for k in range(rs.rank))
                for p in ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2))
            )
            if not pairing_ok:
                violations.append(
                    {"multiset": entry["multiset"], "reason": "short quadruple has no equal-sum split"}
                )
        witnesses.append(entry)

    report = {
        "type": rs.cartan_type.name,
        "multisets_scanned": npos * (npos + 1) * (npos + 2) * (npos + 3) // 24,
        "witnesses": len(witnesses),
        "with_long_member": sum(1 for w in witnesses if w["long_members"] == 1),
        "all_short": sum(1 for w in witnesses if w["long_members"] == 0),
        "violations": violations,
    }
    if rs.cartan_type.name == "F4":
        target = [[1, 0, 0, 0], [1, 2, 2, 1], [1, 2, 3, 1], [1, 2, 3, 2]]
        report["f4_long_example_found"] = any(
            sorted(w["multiset"]) == sorted(target) for w in witnesses
        )
    return report


LEMMA_CASES = [(n, False) for n in
               ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "F4", "G2"]]
LEMMA_CASES += [(n, True) for n in ["B2", "C2", "G2"]]


@pytest.mark.parametrize("name, swap", LEMMA_CASES,
                         ids=[f"{n}{'-swap' if w else ''}" for n, w in LEMMA_CASES])
def test_lemma_sweep_matches_coordinate_reference(name, swap):
    rs = get_rs(name, swap)
    assert S.verify_lemma_quadruples(rs) == _reference_lemma_quadruples(rs)


@pytest.mark.slow
def test_lemma_sweep_matches_coordinate_reference_e6():
    rs = get_rs("E6")
    assert S.verify_lemma_quadruples(rs) == _reference_lemma_quadruples(rs)


def test_lemma_sweep_a3_empty():
    rep = S.verify_lemma_quadruples(get_rs("A3"))
    assert rep["witnesses"] == 0 and rep["violations"] == []


def test_lemma_sweep_c3_example():
    rep = S.verify_lemma_quadruples(get_rs("C3"))
    assert rep["witnesses"] == 1 and rep["violations"] == []
    c3 = get_rs("C3")
    expected = sorted(
        [list(c3.root_from_coords(c).coords) for c in [(1, 2, 1), (1, 0, 0), (1, 1, 1), (1, 1, 0)]]
    )
    # the single witness is {eps1 +- eps2, eps1 +- eps3}
    # (recomputed through the sweep to keep the check independent)
    assert rep["all_short"] == 1


def test_verify_subspace_theorem_small():
    for name in ["A2", "B2", "B3", "C3", "G2", "A4", "D4", "C4"]:
        rep = S.verify_subspace_theorem(get_rs(name))
        assert rep["mismatches"] == []


@pytest.mark.parametrize("name", ["B3", "G2"])
def test_verify_subspace_theorem_reads_no_layers(monkeypatch, name):
    # the ideals are their member sets: the subspace theorem reads only the
    # members, so a layer computation is never asked for
    rs = get_rs(name)
    want = S.verify_subspace_theorem(rs)

    def no_layers(rs, mask):
        raise AssertionError("verify_subspace_theorem computed layers")

    monkeypatch.setattr(I, "_layers", no_layers)
    assert S.verify_subspace_theorem(rs) == want


def test_verify_theorem1_small():
    for name, fc in [("A2", 5), ("B2", 7), ("G2", 6), ("A3", 14), ("B3", 24)]:
        rep = S.verify_theorem1(get_rs(name))
        assert rep["mismatches"] == []
        assert rep["decider_count"] == fc == rep["spherical_count"]


@pytest.mark.parametrize("theorem", ["theorem1", "theorem2"])
def test_a_mismatch_names_the_witness_of_its_subject(monkeypatch, theorem):
    # an FC decider that always says yes makes every subject that is not
    # spherical a mismatch
    rs, L = get_rs("B2"), get_algebra("B2")
    if theorem == "theorem1":
        monkeypatch.setattr(W, "is_fc_inv", lambda w: True)
        rep = S.verify_theorem1(rs, L)
        total, spherical = rep["elements"], rep["spherical_count"]
        subjects = [W.from_word(rs, m["word"]).inv for m in rep["mismatches"]]
    else:
        monkeypatch.setattr(I, "_is_fc_by_layers", lambda rs, layers: True)
        rep = I.verify_theorem2(rs, L)
        total, spherical = rep["ideals"], rep["spherical"]
        subjects = [rs.posrootset([rs.root_from_coords(tuple(c)) for c in m["members"]])
                    for m in rep["mismatches"]]
    assert len(rep["mismatches"]) == total - spherical > 0
    for m, ps in zip(rep["mismatches"], subjects):
        assert m["decider_value"] and not m["spherical"]
        # the first obstruction, in the table's order, that lies inside the subject
        first = next(multiset for support, multiset in S.quartic_obstructions(L)
                     if support & ~ps.mask == 0)
        assert m["witness"] == [list(rs.roots[i].coords) for i in first]


def test_orbit_fingerprints():
    g2 = get_rs("G2")
    L = get_algebra("G2")
    assert S.orbit_fingerprint(L, PosRootSet(0, 6)) == (0, 0, ())
    dim_orbit, h, ranks = S.orbit_fingerprint(L, g2.posrootset([g2.theta]))
    assert dim_orbit == 6 and h == 2 and ranks[0] == 6
    a2 = get_rs("A2")
    La = get_algebra("A2")
    dim_orbit, h, ranks = S.orbit_fingerprint(La, PosRootSet(7, 3))
    assert dim_orbit == 6 and h == 4
    # sphericality is determined by the height component of the fingerprint
    for e in W.enumerate_weyl(g2):
        _, hh, _ = S.orbit_fingerprint(L, e.inv, trials=2, seed=0)
        assert (hh <= 3) == S.is_spherical_subspace(L, e.inv)


@pytest.mark.parametrize("trials, seed", [(1, 0), (5, 0), (2, 7)])
def test_generic_height_is_the_fingerprint_height(trials, seed):
    # both draw the same seeded samples, and inspect reports the
    # fingerprint's height as its generic_height
    subjects = [(get_algebra(n), e.inv) for n in ("G2", "B3") for e in W.enumerate_weyl(get_rs(n))]
    subjects += [(get_algebra("B3"), i) for i in I.enumerate_ideals(get_rs("B3"))]
    for L, ps in subjects:
        assert S.generic_height(L, ps, trials, seed) == S.orbit_fingerprint(L, ps, trials, seed)[1]


def test_regular_nilpotent_fingerprint_f4():
    # the full nilradical meets the regular orbit: dimension dim(g) - rank,
    # height twice the height of the highest root
    f4 = get_rs("F4")
    L = get_algebra("F4")
    from liesph.roots import PosRootSet

    full = PosRootSet((1 << f4.num_positive) - 1, f4.num_positive)
    dim_orbit, h, ranks = S.orbit_fingerprint(L, full, trials=2, seed=0)
    assert dim_orbit == 48 and h == 22 and ranks[0] == 48


def test_spherical_report():
    g2 = get_rs("G2")
    L = get_algebra("G2")
    rep = S.make_report(L, g2_psi0(), "ideal")
    assert rep == {"type": "G2", "subject": "ideal", "pairing_ok": True, "spherical": True,
                   "witness": None}
    bad = S.make_report(L, W.from_word(g2, [1, 2, 1]).inv, "biconvex")
    assert not bad["spherical"] and bad["witness"] is not None
    b2 = get_algebra("B2")
    full = b2.rs.posrootset(range(b2.rs.num_positive))
    assert S.make_report(b2, full, "biconvex") == {
        "type": "B2", "subject": "biconvex", "pairing_ok": False, "spherical": False,
        "witness": {"multiset": [[1, 0], [1, 0], [0, 1], [0, 1]]}}


_PARENT_PID = os.getpid()


def _fail_in_worker(chunk):
    if os.getpid() == _PARENT_PID:
        raise AssertionError("chunk rerun in the parent process")
    raise ValueError(f"worker failed on {chunk}")


def test_worker_exception_propagates_without_serial_rerun():
    with pytest.raises(ValueError, match="worker failed"):
        S._parallel_chunks(_fail_in_worker, [1, 2, 3], 2)


def test_pool_failure_runs_serially_and_says_so(monkeypatch, capsys):
    def no_fork(method):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert S._parallel_chunks(abs, [-1, -2, -3], 2) == [1, 2, 3]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: no worker pool (cannot find context")


def test_theorem1_pool_matches_serial():
    rs = get_rs("B3")
    L = get_algebra("B3")
    assert S.verify_theorem1(rs, L, workers=2) == S.verify_theorem1(rs, L)
    assert S._T1_STATE is None


# -- the chain-dict reference for the quartic table ---------------------------------


def _reference_starts(L, multiset):
    """Basis indices (Cartan after the roots) whose weight allows a nonzero end."""
    rs = L.rs
    rank = rs.rank
    sigma = [0] * rank
    for idx in multiset:
        c = rs.roots[idx].coords
        for k in range(rank):
            sigma[k] += c[k]
    sigma = tuple(sigma)
    zero = tuple([0] * rank)

    starts = []
    if sigma in rs.index_of:  # from the Cartan space into g_sigma
        starts.extend(range(L.num_roots, L.dim))
    for b in range(L.num_roots):
        mu = rs.roots[b].coords
        target = tuple(mu[k] + sigma[k] for k in range(rank))
        if target == zero or target in rs.index_of:
            starts.append(b)
    return starts


def _reference_image(L, orderings, b):
    """Sum over the orderings of the chain applied to e_b, as a sparse dict."""
    from liesph.chevalley import bracket

    acc = {}
    for seq in orderings:
        v = {b: 1}
        for g in reversed(seq):
            v = bracket(L, {g: 1}, v)
            if not v:
                break
        for key, val in v.items():
            tot = acc.get(key, 0) + val
            if tot:
                acc[key] = tot
            else:
                acc.pop(key, None)
    return acc


def _reference_vanishes(L, multiset):
    """Chain-dict oracle: every distinct ordering of the multiset applied
    with ``bracket`` from every start whose weight allows a nonzero end."""
    orderings = sorted(set(itertools.permutations(multiset)))
    return not any(_reference_image(L, orderings, b) for b in _reference_starts(L, multiset))


def _reference_table(L):
    bad = []
    for multiset in itertools.combinations_with_replacement(range(L.rs.num_positive), 4):
        if not _reference_vanishes(L, multiset):
            mask = 0
            for i in multiset:
                mask |= 1 << i
            bad.append((mask, multiset))
    bad.sort(key=lambda t: (t[0].bit_count(), t[1]))
    return bad


def _four_root_multisets(rs, support=None):
    """Yield (multiset, sigma) for the sorted size-4 positive-root multisets,
    in lexicographic order, whose packed weight sigma is in the weight index;
    only those with ``support`` distinct members when it is given."""
    packed, index = rs.packed, S._weight_index(rs)
    npos = rs.num_positive
    least, most = (1, 4) if support is None else (support, support)

    def members(prev, distinct, left):
        # the next member, with `left` still to choose: prev again keeps
        # `distinct` members, a larger one adds one, and the final count of
        # distinct members must lie in [least, most]
        return range(prev + (least - distinct >= left), npos if distinct < most else prev + 1)

    for a in range(npos):
        wa = packed[a]
        for b in members(a, 1, 3):
            wb = wa + packed[b]
            nb = 1 + (b > a)
            for c in members(b, nb, 2):
                wc = wb + packed[c]
                for d in members(c, nb + (c > b), 1):
                    sigma = wc + packed[d]
                    if sigma in index:
                        yield (a, b, c, d), sigma


def _chain_starts(rs):
    """The chain starts of every weight in the weight index."""
    return {sigma: S._starts(rs, decomps) for sigma, decomps in S._weight_index(rs).items()}


def _reference_full_table(L):
    """Every nonvanishing multiset from the weight-filtered scan and the
    library's predicate, as (support mask, multiset) pairs sorted by
    (support size, multiset)."""
    T = S._ChainTables(L)
    starts_of = _chain_starts(L.rs)
    bad = []
    for multiset, sigma in _four_root_multisets(L.rs):
        if not S._p_multiset_vanishes(T, multiset, starts_of[sigma]):
            bad.append((sum(1 << i for i in set(multiset)), multiset))
    bad.sort(key=lambda t: (t[0].bit_count(), t[1]))
    return bad


def _minimal(table):
    """The first entry of each inclusion-minimal support, in table order."""
    seen = set()
    minimal = []
    for mask, multiset in table:
        sub = mask
        while sub and sub not in seen:
            sub = (sub - 1) & mask
        if not sub:
            seen.add(mask)
            minimal.append((mask, multiset))
    return minimal


def _reference_per_size_build(L):
    """The minimal list by the per-size scan: every weight-admissible
    multiset of each support size, smallest first, skipping one whose support
    contains or equals a support already found."""
    T = S._ChainTables(L)
    starts_of = _chain_starts(L.rs)
    found = set()
    minimal = []
    for size in range(1, 5):
        for multiset, sigma in _four_root_multisets(L.rs, size):
            mask = sum(1 << i for i in set(multiset))
            sub = mask
            while sub and sub not in found:
                sub = (sub - 1) & mask
            if not sub and not S._p_multiset_vanishes(T, multiset, starts_of[sigma]):
                found.add(mask)
                minimal.append((mask, multiset))
    return minimal


def _fresh_algebra(name, swap=False, sign=1):
    from liesph.chevalley import build_chevalley
    from liesph.roots import build_root_system

    return build_chevalley(build_root_system(name, swap=swap), sign)


# swap is defined on the rank-2 types B2, C2 and G2 only
QUARTIC_CASES = [(n, False, 1) for n in
                 ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "F4", "G2"]]
QUARTIC_CASES += [(n, True, 1) for n in ["B2", "C2", "G2"]]
QUARTIC_CASES += [(n, False, -1) for n in ["B3", "G2"]]


@pytest.mark.parametrize("name, swap, sign", QUARTIC_CASES,
                         ids=[f"{n}{'-swap' if w else ''}{'-neg' if s < 0 else ''}"
                              for n, w, s in QUARTIC_CASES])
def test_quartic_table_matches_chain_dict_reference(name, swap, sign):
    L = _fresh_algebra(name, swap, sign)
    full = _reference_full_table(L)
    assert full == _reference_table(L)
    assert S.quartic_obstructions(L) == _minimal(full) == _reference_per_size_build(L)


@pytest.mark.slow
def test_quartic_table_matches_chain_dict_reference_e6():
    L = _fresh_algebra("E6")
    full = _reference_full_table(L)
    assert len(full) == 13434
    assert full == _reference_table(L)
    assert S.quartic_obstructions(L) == _minimal(full) == _reference_per_size_build(L)


@pytest.mark.slow
def test_minimal_list_matches_full_table_e7():
    L = _fresh_algebra("E7")
    minimal = S.quartic_obstructions(L)
    assert len(minimal) == 1281
    assert minimal == _minimal(_reference_full_table(L)) == _reference_per_size_build(L)


@pytest.mark.slow
def test_minimal_list_matches_per_size_build_e8():
    L = _fresh_algebra("E8")
    minimal = S.quartic_obstructions(L)
    assert len(minimal) == 10570
    assert minimal == _reference_per_size_build(L)


@pytest.mark.parametrize("name, sign", [("B3", 1), ("C3", -1), ("G2", 1)])
def test_chain_starts_and_values_match_reference_per_start(name, sign):
    # the table alone cannot see a wrong Cartan start: on these types no
    # multiset is nonvanishing on the Cartan only
    L = _fresh_algebra(name, sign=sign)
    T = S._ChainTables(L)
    packed = L.rs.packed
    starts_of = _chain_starts(L.rs)
    nonzero_on_cartan = 0
    for multiset in itertools.combinations_with_replacement(range(L.rs.num_positive), 4):
        ref = _reference_starts(L, multiset)
        starts = starts_of.get(sum(packed[i] for i in multiset), [])
        assert [b if b < L.num_roots else b + v.index(1) for b, v in starts] == ref
        orderings = sorted(set(itertools.permutations(multiset)))
        for start, b in zip(starts, ref):
            image = _reference_image(L, orderings, b)
            assert S._p_multiset_vanishes(T, multiset, [start]) == (not image)
            nonzero_on_cartan += b >= L.num_roots and bool(image)
    assert nonzero_on_cartan > 0


def _counting_predicate(monkeypatch):
    calls = []
    vanishes = S._p_multiset_vanishes
    monkeypatch.setattr(S, "_p_multiset_vanishes", lambda *a: calls.append(a) or vanishes(*a))
    return calls


def _reference_weight_index(rs):
    """The weight index by a scan of every ordered pair (mu, end) of a root
    and a root or 0, keeping those with end - mu nonzero and nonnegative."""
    ends = [r.coords for r in rs.roots] + [(0,) * rs.rank]
    packed_ends = rs.packed + [0]
    index = {}
    for mu, r in enumerate(rs.roots):
        for end, coords in enumerate(ends):
            if min(map(sub, coords, r.coords)) >= 0 and coords != r.coords:
                index.setdefault(packed_ends[end] - rs.packed[mu], []).append((mu, end))
    return index


WEIGHT_INDEX_CASES = [(n, False) for n in [
    "A1", "A2", "A3", "A5", "A8", "B2", "B3", "B5", "B8", "C3", "C5", "C8", "D4", "D5", "D8",
    "E6", "E7", "E8", "F4", "G2"]] + [(n, True) for n in ["B2", "C2", "G2"]]


@pytest.mark.parametrize("name, swap", WEIGHT_INDEX_CASES,
                         ids=[f"{n}{'-swap' if w else ''}" for n, w in WEIGHT_INDEX_CASES])
def test_weight_index_from_the_poset_matches_the_pair_scan(name, swap):
    # same keys in the same order, and the same (mu, end) lists
    rs = get_rs(name, swap)
    assert list(S._weight_index(rs).items()) == list(_reference_weight_index(rs).items())


def test_weight_filter_skips_inadmissible_multisets(monkeypatch):
    # on B4, 745 of the 3876 multisets have a weight with chain starts;
    # 706 of them do not vanish
    calls = _counting_predicate(monkeypatch)
    assert len(_reference_full_table(_fresh_algebra("B4"))) == 706
    assert len(calls) == 745


@pytest.mark.parametrize("name", ["A1", "A3", "B4", "C3", "D4", "F4", "G2"])
def test_support_size_scans_split_the_full_scan(name):
    # the scan yields the weight-admissible multisets in lexicographic order,
    # and each support size's scan those of that size, in the same order
    rs = get_rs(name)
    index = S._weight_index(rs)
    full = [(m, sum(rs.packed[i] for i in m))
            for m in itertools.combinations_with_replacement(range(rs.num_positive), 4)]
    full = [(m, sigma) for m, sigma in full if sigma in index]
    assert list(_four_root_multisets(rs)) == full
    for size in range(1, 5):
        want = [(m, sigma) for m, sigma in full if len(set(m)) == size]
        assert list(_four_root_multisets(rs, size)) == want, size


@pytest.mark.parametrize("name, calls, entries",
                         [("B4", 56, 37), ("F4", 182, 113), ("E6", 255, 255), ("E7", 1281, 1281)])
def test_minimal_build_skips_supports_already_found(monkeypatch, name, calls, entries):
    # the predicate runs only on multisets with no minimal support found in
    # their own; simply laced, it runs exactly once per minimal support
    L = _fresh_algebra(name)
    before = set(vars(L))
    seen = _counting_predicate(monkeypatch)
    minimal = S.quartic_obstructions(L)
    assert len(minimal) == entries
    assert len(seen) == calls
    # the algebra caches this one list, and later calls read it
    assert [vars(L)[k] for k in set(vars(L)) - before] == [minimal]
    assert S.quartic_obstructions(L) is minimal
    assert len(seen) == calls
    # the walk tests exactly the multisets the per-size scan tests
    walked = sorted(multiset for _, multiset, _ in seen)
    seen.clear()
    _reference_per_size_build(L)
    assert walked == sorted(multiset for _, multiset, _ in seen)


@pytest.mark.parametrize("name", ["B4", "D4", "F4"])
@pytest.mark.parametrize("modulus", [3, 5, 11])
def test_walk_matches_per_size_scan_for_any_predicate(monkeypatch, name, modulus):
    # the walk's pruning depends only on which multisets do not vanish; a
    # synthetic predicate finds many more triples than any algebra does
    # (B4: 20 to 23 against 12), so each exclusion of a found triple matters
    def fake_vanishes(T, multiset, starts):
        calls.append(multiset)
        return sum((k + 1) * g * g for k, g in enumerate(multiset)) % modulus != 0

    calls = []
    monkeypatch.setattr(S, "_p_multiset_vanishes", fake_vanishes)
    L = _fresh_algebra(name)
    walked = S.quartic_obstructions(L)
    walked_calls = sorted(calls)
    calls.clear()
    assert walked == _reference_per_size_build(L)
    assert walked_calls == sorted(calls)


def _first_full_table_hit(table, ps):
    """The list scan: the multiset of the first entry of the table whose
    support lies in ps, or None."""
    for mask, multiset in table:
        if mask & ~ps.mask == 0:
            return multiset
    return None


@pytest.mark.parametrize("name, minimal", [("B4", 37), ("F4", 113)])
def test_witness_scan_over_minimal_supports(name, minimal):
    rs = get_rs(name)
    L = get_algebra(name)
    assert len(S.quartic_obstructions(L)) == minimal
    full = _reference_full_table(L)
    subjects = [e.inv for e in W.enumerate_weyl(rs)]
    subjects += I.enumerate_ideals(rs)
    for ps in subjects:
        assert S.spherical_witness(L, ps) == _first_full_table_hit(full, ps)


@pytest.mark.slow
def test_witness_scan_over_minimal_supports_e6_random_masks():
    import random

    rs = get_rs("E6")
    L = get_algebra("E6")
    assert len(S.quartic_obstructions(L)) == 255
    full = _reference_full_table(L)
    rng = random.Random(6)
    hits = 0
    for _ in range(2000):
        mask = 0
        for i in rng.sample(range(rs.num_positive), rng.randint(1, 12)):
            mask |= 1 << i
        ps = PosRootSet(mask, rs.num_positive)
        witness = S.spherical_witness(L, ps)
        assert witness == _first_full_table_hit(full, ps)
        hits += witness is not None
    assert 0 < hits < 2000


def _assert_lookups_match_the_list_scan(L, subjects):
    """spherical_witness and is_spherical_subspace on each subject agree
    with the list scan over L's obstruction list; returns how many are
    spherical."""
    minimal = S.quartic_obstructions(L)
    spherical = 0
    for ps in subjects:
        want = _first_full_table_hit(minimal, ps)
        assert S.spherical_witness(L, ps) == want, ps
        assert S.is_spherical_subspace(L, ps) == (want is None), ps
        spherical += want is None
    return spherical


@pytest.mark.parametrize("name", ["B4", "C4", "F4", "D5"])
def test_member_index_matches_the_list_scan_on_elements(name):
    subjects = [e.inv for e in W.enumerate_weyl(get_rs(name))]
    spherical = _assert_lookups_match_the_list_scan(get_algebra(name), subjects)
    assert 0 < spherical < len(subjects)


# every type up to rank 7 and E7; E8 runs in the slow tests
IDEAL_LOOKUP_TYPES = [f"{f}{n}" for f, least in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
                      for n in range(least, 8)] + ["E6", "E7", "F4", "G2"]


@pytest.mark.parametrize("name", IDEAL_LOOKUP_TYPES)
def test_member_index_matches_the_list_scan_on_ideals(name):
    _assert_lookups_match_the_list_scan(get_algebra(name), I.enumerate_ideals(get_rs(name)))


@pytest.mark.slow
def test_member_index_matches_the_list_scan_on_ideals_e8():
    ideals = I.enumerate_ideals(get_rs("E8"))
    assert len(ideals) == 25080
    assert _assert_lookups_match_the_list_scan(get_algebra("E8"), ideals) == 256


def test_member_index_is_kept_beside_the_list_it_indexes():
    # the first lookup builds the index from the list it read, keeps it on
    # the algebra, and later lookups read it
    L = _fresh_algebra("B3")
    before = set(vars(L))
    minimal = S.quartic_obstructions(L)
    full = L.rs.posrootset(range(L.rs.num_positive))
    assert S.spherical_witness(L, full) == minimal[0][1]
    (key,) = set(vars(L)) - before - {"liesph.spherical.quartic_obstructions"}
    index = vars(L)[key]
    assert sorted((pos, mask, multiset) for bucket in index for pos, mask, multiset in bucket) \
        == [(pos, mask, multiset) for pos, (mask, multiset) in enumerate(minimal)]
    assert not S.is_spherical_subspace(L, full)
    assert vars(L)[key] is index


def _certify_obstructions(name, supports, minimality):
    """Each quartic_obstructions support is not spherical, by the height of
    one seeded sample on it (at least 4), and is minimal: without any one of
    its members it holds no other support, so every element on the rest has
    height at most 3."""
    L = get_algebra(name)
    npos = L.rs.num_positive
    for mask, _ in S.quartic_obstructions(L):
        where = (name, [L.rs.roots[g].coords for g in iter_bits(mask)])
        if supports:
            assert S.generic_height(L, PosRootSet(mask, npos), trials=1, seed=0) >= 4, where
        if minimality:
            for g in iter_bits(mask):
                rest = PosRootSet(mask & ~(1 << g), npos)
                dropped = L.rs.roots[g].coords
                assert S.generic_height(L, rest, trials=1, seed=0) <= 3, (where, dropped)


@pytest.mark.parametrize("name", ["A4", "B4", "C4", "D5", "F4", "G2", "E6"])
def test_obstructions_are_minimal_nonspherical_supports(name):
    _certify_obstructions(name, supports=True, minimality=True)


def test_obstruction_supports_are_not_spherical_e7():
    _certify_obstructions("E7", supports=True, minimality=False)


@pytest.mark.slow
def test_obstruction_supports_are_minimal_e7():
    _certify_obstructions("E7", supports=False, minimality=True)


@pytest.mark.slow
def test_obstruction_supports_are_not_spherical_e8():
    _certify_obstructions("E8", supports=True, minimality=False)


def _certify_maximal_spherical_ideals(name):
    """Every maximal spherical ideal (no spherical ideal holds it strictly)
    has height at most 3 at one seeded sample: evidence, independent of the
    quartic list, that it is spherical.  Returns how many there are."""
    rs, L = get_rs(name), get_algebra(name)
    spherical = [ideal.mask for ideal in I.enumerate_ideals(rs)
                 if S.is_spherical_subspace(L, ideal)]
    maximal = [m for m in spherical if not any(o != m and m & ~o == 0 for o in spherical)]
    for mask in maximal:
        where = (name, [rs.roots[g].coords for g in iter_bits(mask)])
        assert S.generic_height(L, PosRootSet(mask, rs.num_positive), trials=1, seed=0) <= 3, where
    return len(maximal)


# observed counts of maximal spherical ideals, pinned as regression values
MAXIMAL_SPHERICAL_IDEALS = {"A4": 4, "B4": 3, "C4": 4, "D5": 5, "F4": 3, "G2": 1, "E6": 6, "E7": 7}


@pytest.mark.parametrize("name", sorted(MAXIMAL_SPHERICAL_IDEALS))
def test_maximal_spherical_ideals_have_height_at_most_3(name):
    assert _certify_maximal_spherical_ideals(name) == MAXIMAL_SPHERICAL_IDEALS[name]


@pytest.mark.slow
def test_maximal_spherical_ideals_have_height_at_most_3_e8():
    assert _certify_maximal_spherical_ideals("E8") == 8


def test_one_table_lookup_per_witness(monkeypatch):
    L = get_algebra("A3")
    calls = []
    table = S.quartic_obstructions
    monkeypatch.setattr(S, "quartic_obstructions", lambda L: calls.append(L) or table(L))
    for e in W.enumerate_weyl(get_rs("A3")):
        S.spherical_witness(L, e.inv)
    assert len(calls) == 24
