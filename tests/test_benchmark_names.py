"""Every package function that the benchmark's traced runs patch still exists.

``perfbench/trace_cli.py`` wraps functions by (module, attribute); a rename
in the package would break the traced runs without failing any other test.
"""

import importlib
import importlib.util
import os
import re

TRACE_CLI = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "trace_cli.py")


def _patched_names() -> set:
    """The ``SPANS`` keys, and the literal ``patch("module", "attribute", ...)``
    calls of ``Tracer.install``."""
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    with open(TRACE_CLI) as fh:
        calls = re.findall(r'patch\("(liesph[\w.]*)", "(\w+)"', fh.read())
    return set(trace_cli.SPANS) | set(calls)


def test_trace_cli_patch_targets_exist():
    names = _patched_names()
    assert {
        ("liesph.weyl", "enumerate_weyl"),
        ("liesph.spherical", "quartic_obstructions"),
        ("liesph.spherical", "_p_multiset_vanishes"),
        ("liesph.spherical", "_parallel_chunks"),
        ("liesph.affine", "is_biconvex_affine"),
    } <= names
    for module_name, attr in sorted(names):
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)
