"""Self-test of the benchmark harness on tiny types; it finishes in seconds.

Usage, from the repository root::

    python3 perfbench/selftest.py

It runs theorem 1 on A3 and (through the fork pool) on G2, theorem 2 on B2
and the lemma sweep on B2 through the same ``measure`` as ``run.py``, with
tracing off and on, and checks that:

- every metric ``BENCHMARK.json`` names is emitted, with its unit, as a number;
- each run is correct against its reference, and the tracer's counters see
  the work (elements, ideals, multisets, the pool);
- a deliberately wrong reference makes every repetition fail, without a crash.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import math
import sys

import run
from run import Command, Workload

# |W(A3)| = 24 with Catalan(4) = 14 fully commutative elements; |W(G2)| = 12
# with 6 commutative ones (the Bruhat interval below s2 s1 s2); B2 has
# Catalan 6 ad-nilpotent ideals, 2^2 = 4 abelian; |Phi+(B2)| = 4.
TINY = {
    "t1-A3": (Workload((Command(("verify", "theorem1", "--type", "A3"), run.theorem1_refs(24, 14)),),
                       ("A3",), True),
              {"weyl.elements_visited": 24, "spherical.table_hits": 24}),
    "t1-G2-par": (Workload((Command(("verify", "theorem1", "--type", "G2", "--workers", "2"),
                                    run.theorem1_refs(12, 6)),), ("G2",), True),
                  {"weyl.elements_visited": 12}),
    "t2-B2": (Workload((Command(("verify", "theorem2", "--type", "B2"),
                                run.theorem2_refs(ideals=6, abelian=4)),), ("B2",), True),
              {"ideals.count": 6, "spherical.decide_calls": 6}),
    "lemmas-B2": (Workload((Command(("verify", "lemmas", "--type", "B2"), run.lemma_refs(4)),),
                           ("B2",), False),
                  {"roots.multisets_scanned": 35}),
}
WRONG = Workload((Command(("verify", "theorem1", "--type", "A3"), run.theorem1_refs(25, 14)),),
                 ("A3",), True)
SECONDS = 0.5


def metric_problems(result: dict, specs: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = result["metrics"]
    for m in specs:
        entry = got.get(m["name"])
        if entry is None:
            problems.append(f"{m['name']} missing")
        elif entry["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {entry['unit']!r}, expected {m['unit']!r}")
        elif isinstance(entry["value"], bool) or not isinstance(entry["value"], (int, float)) \
                or not math.isfinite(entry["value"]):
            problems.append(f"{m['name']} value {entry['value']!r}")
    extra = set(got) - {m["name"] for m in specs}
    if extra:
        problems.append(f"unnamed metrics {sorted(extra)}")
    return problems


def main() -> int:
    run.require_sources()
    spec = run.load_spec()
    problems = []
    for name, (wl, counts) in TINY.items():
        for trace in (False, True):
            result, record = run.measure(wl, seed=7, seconds=SECONDS, trace=trace, spec=spec)
            where = f"{name} trace={int(trace)}"
            wrong = metric_problems(result, spec["per_layer" if trace else "end_to_end"])
            if not result["correct"] or result["failed"]:
                wrong.append(f"incorrect: {record['problems']}")
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                wrong += [f"{k}={values[k]}, expected {v}" for k, v in counts.items() if values[k] != v]
                spans = {s["name"] for t in record["spans"] for s in t["spans"]}
                if name.endswith("-par") and "spherical.pool" not in spans:
                    wrong.append("no spherical.pool span on a --workers 2 run")
            problems += [f"{where}: {w}" for w in wrong]
            print(f"{where}: {'ok' if not wrong else 'FAIL'} ({result['attempted']} repetitions)")

    result, record = run.measure(WRONG, seed=7, seconds=SECONDS, trace=False, spec=spec)
    if result["correct"] or result["failed"] != result["attempted"] or not record["problems"]:
        problems.append(f"wrong reference not counted as a failure: {result}")
    print(f"wrong reference: {'counted as failure' if not result['correct'] else 'FAIL'} "
          f"({result['failed']}/{result['attempted']} failed: {record['problems'][:1]})")

    for p in problems:
        print("FAIL", p, file=sys.stderr)
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
