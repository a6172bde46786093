"""Run one liesph CLI command in-process, with a span around each layer call.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/trace_cli.py TRACE_JSON verify theorem1 --type E6

The report goes to stdout exactly as ``python -m liesph.cli`` writes it, and
the exit code is the CLI's.  The trace goes to TRACE_JSON when the command
ends: one aggregated span per (layer, parent) with its call count, total and
self seconds, plus the layer counters.

Spans are recorded from outside the package: each public function below is
replaced at every module attribute that holds it, which is where its callers
resolve it (``is_biconvex_affine`` lives in both ``liesph.affine`` and
``liesph.ideals``).  Spans inside forked pool workers are lost, so a pool run
shows as one parent-side ``spherical.pool`` span with its CPU time.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

# (module, function) -> span name.  Metric ``<span>_s`` is the span's self
# time and ``<span>_calls`` its call count.
SPANS = {
    ("liesph.roots", "build_root_system"): "roots.build",
    ("liesph.chevalley", "build_chevalley"): "chevalley.build",
    ("liesph.spherical", "is_spherical_subspace"): "spherical.decide",
    ("liesph.spherical", "verify_lemma_quadruples"): "roots.lemma_sweep",
    ("liesph.weyl", "from_word"): "weyl.rebuild",
    ("liesph.weyl", "is_fc_inv_base_pair"): "weyl.fc",
    ("liesph.weyl", "is_fc_inv"): "weyl.fc",
    ("liesph.weyl", "is_commutative_inv"): "weyl.commutative",
    ("liesph.ideals", "enumerate_ideals"): "ideals.enum",
    ("liesph.ideals", "psi_hat"): "ideals.encode",
    ("liesph.ideals", "is_abelian"): "ideals.abelian",
    ("liesph.affine", "is_biconvex_affine"): "affine.biconvex",
    ("liesph.affine", "element_from_biconvex_affine"): "affine.element",
    ("liesph.affine", "affine_inversions"): "affine.roundtrip",
    ("liesph.affine", "is_fc_affine"): "affine.fc",
    ("liesph.affine", "is_commutative_affine"): "affine.commutative",
}

# counters filled from a span's result
RESULT_COUNTS = {
    "ideals.enum": ("ideals.count", len),
    "roots.lemma_sweep": ("roots.multisets_scanned", lambda report: report["multisets_scanned"]),
}

LAYERS = {"cli.main", "spherical.quartic_table", "spherical.pool", "weyl.enum", *SPANS.values()}

COUNTERS = (
    "ideals.count",
    "roots.multisets_scanned",
    "spherical.quartic_multisets",
    "spherical.quartic_nonvanishing",
    "spherical.table_hits",
    "spherical.pool_cpu_s",
    "weyl.elements_visited",
)


def _cpu_s() -> float:
    """CPU seconds of this process and of its children that were reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Tracer:
    """In-memory span aggregator: one record per (span, parent span)."""

    def __init__(self):
        self._stack = [["", 0.0]]  # [span name, seconds covered by children]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _enter(self, name):
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, frame, start):
        dt = time.perf_counter() - start
        self._stack.pop()
        parent = self._stack[-1]
        parent[1] += dt
        rec = self.spans.setdefault((frame[0], parent[0]), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[1]

    def span(self, name, fn):
        counter = RESULT_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            frame, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, start)
            if counter:
                self.counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def span_iter(self, name, items_counter, fn):
        """Time the iteration of a generator, not its creation."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame, start = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(frame, start)
                self.counts[items_counter] += 1
                yield item

        return wrapper

    def quartic_table(self, fn):
        """The first call per algebra builds the table; later calls are hits."""
        built = []
        build = self.span("spherical.quartic_table", fn)

        def wrapper(L):
            if any(L is b for b in built):
                self.counts["spherical.table_hits"] += 1
                return fn(L)
            built.append(L)
            table = build(L)
            self.counts["spherical.quartic_nonvanishing"] += len(table)
            return table

        return wrapper

    def count_calls(self, counter, fn):
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pool(self, fn):
        """One parent-side span for a forked pool; serial calls pass through."""
        sig = inspect.signature(fn)
        timed = self.span("spherical.pool", fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if bound.arguments["workers"] <= 1 or len(bound.arguments["chunks"]) <= 1:
                return fn(*args, **kwargs)
            cpu = _cpu_s()
            try:
                return timed(*args, **kwargs)
            finally:
                self.counts["spherical.pool_cpu_s"] += _cpu_s() - cpu

        return wrapper

    def install(self):
        """Replace each traced function at every liesph module attribute."""
        import liesph.cli  # noqa: F401  (imports every layer module)

        modules = [m for n, m in sys.modules.items() if n == "liesph" or n.startswith("liesph.")]

        def patch(module_name, attr, make):
            orig = getattr(sys.modules[module_name], attr)
            wrapped = make(orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

        for (module_name, attr), name in SPANS.items():
            patch(module_name, attr, lambda fn, name=name: self.span(name, fn))
        patch("liesph.weyl", "enumerate_weyl",
              lambda fn: self.span_iter("weyl.enum", "weyl.elements_visited", fn))
        patch("liesph.spherical", "quartic_obstructions", self.quartic_table)
        patch("liesph.spherical", "_p_multiset_vanishes",
              lambda fn: self.count_calls("spherical.quartic_multisets", fn))
        patch("liesph.spherical", "_parallel_chunks", self.pool)

    def to_json(self) -> dict:
        return {
            "counts": self.counts,
            "spans": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.spans.items())
            ],
        }


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import liesph.cli

    code = tracer.span("cli.main", liesph.cli.main)(cli_args)
    sys.stdout.flush()
    with open(trace_path, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
