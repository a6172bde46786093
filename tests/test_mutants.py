"""Mutants the suite must kill.

Each mutant rewrites one library function: one exact replacement in its
source, compiled in its own module's namespace and patched in at every
liesph module attribute that holds the original.  Under it, a named
existing check runs in process and must fail; the same check passes on the
unmutated code first, so a mutant is never killed by a check that fails
anyway.  The conftest caches are emptied around each run, so the check
builds its root systems and algebras, and their memoized tables, under the
mutant, and none built under it outlives the run.
"""

import contextlib
import inspect
import sys
import textwrap

import pytest

import conftest
import test_chevalley as chevalley_tests
import test_cli as cli_tests
import test_e6_slow as e6_tests
import test_ideals as ideals_tests
import test_spherical as spherical_tests
import test_weyl as weyl_tests


@contextlib.contextmanager
def _mutated(module_name: str, name: str, old: str, new: str):
    """The function with ``old`` replaced by ``new`` in its source, patched
    in for the duration, with the conftest caches empty on entry and exit;
    yields the MonkeyPatch, for checks that take one."""
    module = sys.modules[module_name]
    original = getattr(module, name)
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"{name}: the mutated text must occur exactly once"
    scope: dict = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(original), "exec"),
         module.__dict__, scope)
    with pytest.MonkeyPatch.context() as mp:
        for held in list(sys.modules.values()):
            if getattr(held, "__name__", "").startswith("liesph") and getattr(held, name, None) is original:
                mp.setattr(held, name, scope[name])
        _clear_caches()
        try:
            yield mp
        finally:
            _clear_caches()


def _clear_caches() -> None:
    conftest.get_rs.cache_clear()
    conftest.get_algebra.cache_clear()


# (mutant id, module, function, original text, mutated text, check)
MUTANTS = [
    ("rotation-reads-the-wrong-norm", "liesph.chevalley", "_structure_constants",
     "(b, mg, _exact(n * norm2[a], norm2[g]))", "(b, mg, _exact(n * norm2[b], norm2[g]))",
     lambda mp: chevalley_tests.test_integer_constants_match_fraction_reference("B3", False, 1)),
    ("store-skips-the-negated-triple", "liesph.chevalley", "_structure_constants",
     "ntab[u, v] = ntab[neg(v), neg(u)] = val\n            ntab[v, u] = ntab[neg(u), neg(v)] = -val",
     "ntab[u, v] = val\n            ntab[v, u] = -val",
     lambda mp: chevalley_tests.test_integer_constants_match_fraction_reference("B3", False, 1)),
    ("base-table-keeps-the-last-summing-pair", "liesph.roots", "_irreducible_planes",
     "bases.setdefault(_plane_key(a, coords[j], minor_kl), (i, j))",
     "bases[_plane_key(a, coords[j], minor_kl)] = (i, j)",
     lambda mp: ideals_tests.test_layer_path_matches_the_key_set_deciders("B4", False)),
    ("negative-pairings-take-zero", "liesph.weyl", "_negative_pairings", "if p < 0", "if p <= 0",
     lambda mp: weyl_tests.test_pairing_nonneg_matches_the_double_loop("B3")),
    ("quartic-list-drops-a-support-on-e6", "liesph.spherical", "quartic_obstructions",
     "    return minimal", "    return minimal[1:] if rs.cartan_type.name == 'E6' else minimal",
     lambda mp: e6_tests.test_e6_theorem1_exhaustive()),
    ("abelian-ideal-holds-a-support-on-e6", "liesph.spherical", "quartic_obstructions",
     "    return minimal",
     "    return minimal + [(1 << npos - 1, (npos - 1,) * 4)] if rs.cartan_type.name == 'E6' else minimal",
     lambda mp: ideals_tests.test_abelian_ideals_are_spherical("E6")),
    ("sphericality-skips-the-lowest-bucket", "liesph.spherical", "is_spherical_subspace",
     "iter_bits(ps.mask)", "iter_bits(ps.mask & ps.mask - 1)",
     lambda mp: spherical_tests.test_member_index_matches_the_list_scan_on_ideals("B4")),
    ("peel-ignores-start", "liesph.affine", "_peel_codes",
     "if start is None else list(start)", "if start is None or True else list(start)",
     lambda mp: ideals_tests.test_ideal_tree_matches_the_per_ideal_path(mp, "B4")),
    ("summable-misses-a-root", "liesph.affine", "_summable",
     "if g is not None:", "if g is not None and f:",
     lambda mp: ideals_tests.test_encodings_match_references("C3", False)),
    ("ideal-children-come-downward", "liesph.ideals", "enumerate_ideals",
     "bit_length() - 1)", "bit_length() - 2, -1, -1)",
     lambda mp: ideals_tests.test_ideal_counts()),
    ("ideal-children-skip-root-0", "liesph.ideals", "enumerate_ideals",
     "range(", "range(1, ",
     lambda mp: ideals_tests.test_ideal_counts()),
    ("json-writes-a-quote-raw", "liesph.cli", "_json_str",
     """ and '"' not in text""", "",
     lambda mp: cli_tests.test_report_writer_is_json_dumps(
         next(v for v in cli_tests.JSON_VALUES if isinstance(v, list) and 'quote"s' in v))),
]


@pytest.mark.slow
@pytest.mark.parametrize("module_name, name, old, new, check", [m[1:] for m in MUTANTS],
                         ids=[m[0] for m in MUTANTS])
def test_mutant_is_killed(module_name, name, old, new, check):
    with pytest.MonkeyPatch.context() as mp:
        check(mp)
    with _mutated(module_name, name, old, new) as mp:
        with pytest.raises(Exception) as killed:
            check(mp)
    assert not isinstance(killed.value, (NameError, SyntaxError)), killed.value

