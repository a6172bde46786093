"""Byte-identity gate for the CLI: exit code and SHA-256 of stdout per command.

``goldens/cli_digests.json`` maps each command line below to the exit code of
``liesph.cli.main`` and the digest of what it writes to stdout.  A refactor
must leave every entry unchanged.  Regenerate the file only when a report is
meant to change, from the repository root::

    PYTHONPATH=src python3 tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from liesph.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens", "cli_digests.json")

COMMANDS = [("verify", w) for w in ("theorem1", "theorem2", "subspaces", "lemmas", "g2")] + [
    ("atlas", w) for w in ("ideals", "fc")
]
TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2")
# every format on the small types, JSON only on the rest to keep the sweep short
ALL_FORMAT_TYPES = ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2")
SWAP_TYPES = ("B2", "C2", "G2")
INSPECT = [
    ("G2", "--word", "1,2,1"),
    ("G2", "--ideal-gen", "2,1"),
    ("B3", "--word", "1,2,3,2"),
    ("B3", "--ideal-gen", "0,1,1;1,1,0"),
]
# the theorem 2 encoding path on an exceptional type
E6_CASES = [
    "verify theorem2 --type E6",
    "atlas ideals --type E6 --format csv",
    "inspect --type E6 --ideal-gen 0,1,1,1,1,1",
]
# run twice against one cache directory: the cold run computes with a pool,
# the warm rerun reads the stored payload
CACHED = "verify theorem1 --type F4 --workers 2 --cache DIR"


def _cases() -> list[str]:
    out = []
    for t in TYPES:
        for fmt in ("json", "csv", "md") if t in ALL_FORMAT_TYPES else ("json",):
            suffix = "" if fmt == "json" else f" --format {fmt}"
            out += [f"{cmd} {what} --type {t}{suffix}" for cmd, what in COMMANDS]
    for t in SWAP_TYPES:
        out += [f"{cmd} {what} --type {t} --swap" for cmd, what in COMMANDS]
    out += [f"inspect --type {t} {flag} {value}" for t, flag, value in INSPECT]
    return out + E6_CASES


CASES = _cases()


def digest(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _cached_runs(cache_dir: str) -> tuple[dict, dict]:
    argv = CACHED.replace("DIR", cache_dir).split()
    return digest(argv), digest(argv)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CASES)
def test_report_bytes_unchanged(case, golden):
    assert digest(case.split()) == golden[case]


def test_cached_parallel_rerun_unchanged(tmp_path, golden):
    cold, warm = _cached_runs(str(tmp_path))
    assert list(tmp_path.glob("*.json")), "cold run stored no cache entry"
    assert cold == golden[CACHED]
    assert warm == golden[CACHED + " (warm)"]


def test_golden_covers_exactly_the_cases(golden):
    assert set(golden) == set(CASES) | {CACHED, CACHED + " (warm)"}


if __name__ == "__main__":
    import tempfile
    import time

    table = {}
    for case in CASES:
        start = time.perf_counter()
        table[case] = digest(case.split())
        print(f"{time.perf_counter() - start:7.2f}s {case}", file=sys.stderr)
    with tempfile.TemporaryDirectory() as tmp:
        table[CACHED], table[CACHED + " (warm)"] = _cached_runs(tmp)
    with open(GOLDEN, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
