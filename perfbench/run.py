"""liesph benchmark: time to a verified verdict from the real CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload t1-B4 --seed 1 --seconds 40 --trace 0

Each repetition spawns ``python -m liesph.cli`` in a fresh interpreter, as a
user does, and checks the report's semantic fields against independent
references (see ``WORKLOADS``).  Repetitions run until the next one would end
after ``--seconds``; at least one always runs.  Beside each repetition run a
calibration (``CALIBRATION_CODE``) and a set-up sample: a fresh interpreter
that imports ``liesph.cli`` and builds the workload's root systems (and
Chevalley algebra where the command uses one).  ``wall_s``, ``cpu_s`` and
``setup_s`` are medians over the run, scaled by the calibration's median to
seconds at a reference host speed (see ``measure``).

With ``--trace 1`` the run also makes ``TRACED_REPS`` traced repetitions
through ``trace_cli.py`` and reports the per-layer metrics of the median one
instead of the end-to-end metrics.  Metric names and units come from
``BENCHMARK.json``.

The last stdout line is the result object; the line before it records the
environment, the raw samples, any check failures and the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from trace_cli import COUNTERS, LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "trace_cli.py")
RUN_DEADLINE_S = 170  # a run must end within 180 s
TRACED_REPS = 5

# A fixed pure-Python load, of the kind liesph runs (small ints, tuples, dict
# and set updates, calls), about 0.15 s on a quiet 2-core x86-64 VM.  Its
# median time in a run measures the host's speed during that run.
CALIBRATION_CODE = """
def step(i, k, acc):
    return len(str(i)) + sum((i, k, acc & 7))
d, seen, acc = {}, set(), 0
for i in range(90_000):
    k = (i * 7919) & 4095
    d[k] = d.get(k, 0) + i
    seen.add((k, i & 15))
    acc += step(i, k, acc)
"""
# What the calibration takes at the reference speed: timings are reported in
# seconds at that speed (see ``measure``).
CALIBRATION_REF_S = 0.15

SETUP_CODE = """
import sys
import liesph.cli as cli
for name in sys.argv[2:]:
    rs = cli.build_root_system(name)
    if sys.argv[1] == "1":
        cli.build_chevalley(rs)
"""


# -- workloads and their references --------------------------------------------


def expect(report: dict, **fields) -> list[str]:
    return [f"{k}={report.get(k)!r}, expected {v!r}" for k, v in fields.items() if report.get(k) != v]


def theorem1_refs(elements: int, decided: int) -> Callable[[dict], list[str]]:
    """|W| and the number of elements the decider accepts (fully commutative,
    commutative in G2); spherical must agree with it."""
    return lambda r: expect(r, elements=elements, decider_count=decided,
                            spherical_count=decided, mismatches=[])


def theorem2_refs(ideals: int, abelian: int) -> Callable[[dict], list[str]]:
    """Ideal count (type Catalan number), abelian = commutative count (2^rank,
    Peterson), and fc = spherical."""
    return lambda r: expect(r, ideals=ideals, abelian=abelian, commutative=abelian,
                            fc=r.get("spherical"), mismatches=[])


def lemma_refs(npos: int, **extra) -> Callable[[dict], list[str]]:
    """Every size-4 multiset of the npos positive roots is scanned; no violations."""
    return lambda r: expect(r, multisets_scanned=math.comb(npos + 3, 4), violations=[], **extra)


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]  # liesph CLI arguments, without --seed
    check: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]  # one repetition runs them all, in order
    setup_types: tuple[str, ...]
    chevalley: bool  # whether the commands build a Chevalley algebra


# |W(B4)| = 384 with 83 fully commutative elements, (n+2) Cat(n) - 1 for B_n
# (Stembridge, J. Algebraic Combin. 1998); 70 ad-nilpotent ideals of B4, the
# type-B4 Catalan number C(8, 4), of which 2^4 = 16 abelian (Cellini-Papi,
# Peterson); |Phi+| = 16 for B4 and 24 for F4.
WORKLOADS = {
    "t1-B4": Workload(
        (Command(("verify", "theorem1", "--type", "B4"), theorem1_refs(elements=384, decided=83)),),
        ("B4",), True),
    "t2-B4": Workload(
        (Command(("verify", "theorem2", "--type", "B4"), theorem2_refs(ideals=70, abelian=16)),),
        ("B4",), True),
    "lemmas": Workload(
        (
            Command(("verify", "lemmas", "--type", "B4"), lemma_refs(16)),
            Command(("verify", "lemmas", "--type", "F4"), lemma_refs(24, f4_long_example_found=True)),
        ),
        ("B4", "F4"), False),
}


# -- processes --------------------------------------------------------------------


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float  # user + sys of the process and every descendant it reaped
    rss_mb: float  # peak RSS of the process or any descendant it reaped
    stdout: str
    stderr: str


def spawn(argv: list[str], tmp: str, deadline: float) -> Proc:
    """Run argv to completion; the process group is killed at the deadline."""
    env = {**os.environ, "PYTHONPATH": SRC}
    # bytecode caches are written and reused, as for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out_path, err_path = os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024, stdout, stderr)


def warm_up(tmp: str, deadline: float) -> None:
    """An unmeasured import compiles the bytecode cache, as a user's first call does."""
    spawn([sys.executable, "-c", "import liesph.cli"], tmp, deadline)


def setup_sample(wl: Workload, tmp: str, deadline: float) -> float:
    argv = [sys.executable, "-c", SETUP_CODE, "1" if wl.chevalley else "0", *wl.setup_types]
    p = spawn(argv, tmp, deadline)
    if p.code != 0:
        raise RuntimeError(f"setup exited {p.code}: {p.stderr.strip()}")
    return p.wall_s


@dataclass
class Rep:
    walls: list = field(default_factory=list)  # wall seconds per command
    cpus: list = field(default_factory=list)  # user+sys seconds per command
    rss_mb: float = 0.0
    problems: list = field(default_factory=list)  # failed checks, one line each
    traces: list = field(default_factory=list)  # trace_cli output per command


def run_rep(wl: Workload, seed: int, tmp: str, deadline: float, trace: bool = False) -> Rep:
    """One repetition: every command of the workload, each checked."""
    rep = Rep()
    trace_path = os.path.join(tmp, "trace.json")
    for cmd in wl.commands:
        cli_args = [*cmd.args, "--seed", str(seed)]
        if trace:
            if os.path.exists(trace_path):
                os.remove(trace_path)
            argv = [sys.executable, TRACER, trace_path, *cli_args]
        else:
            argv = [sys.executable, "-m", "liesph.cli", *cli_args]
        p = spawn(argv, tmp, deadline)
        rep.walls.append(p.wall_s)
        rep.cpus.append(p.cpu_s)
        rep.rss_mb = max(rep.rss_mb, p.rss_mb)
        label = " ".join(cli_args)
        if trace and os.path.exists(trace_path):
            with open(trace_path) as fh:
                rep.traces.append(json.load(fh))
        if p.code != 0:
            rep.problems.append(f"{label}: exit {p.code}: {p.stderr.strip()[-300:]}")
            continue
        try:
            report = json.loads(p.stdout)
        except json.JSONDecodeError as exc:
            rep.problems.append(f"{label}: unreadable report: {exc}")
            continue
        type_name = cmd.args[cmd.args.index("--type") + 1]
        wrong = expect(report, type=type_name, seed=seed) + cmd.check(report)
        rep.problems.extend(f"{label}: {w}" for w in wrong)
    return rep


# -- metrics -----------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(names: list[str], traces: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from the traced repetition's spans and counters.

    ``<span>_s`` is the summed self time of a span and ``<span>_calls`` its
    call count; counters are reported as recorded."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts = dict.fromkeys(COUNTERS, 0)
    for t in traces:
        for s in t["spans"]:
            calls[s["name"]] = calls.get(s["name"], 0) + s["calls"]
            self_s[s["name"]] = self_s.get(s["name"], 0.0) + s["self_s"]
            total_s[s["name"]] = total_s.get(s["name"], 0.0) + s["total_s"]
        for k, v in t["counts"].items():
            counts[k] += v
    main_s = total_s.get("cli.main", 0.0)
    derived = {
        "spherical.quartic_yield": _ratio(counts["spherical.quartic_nonvanishing"],
                                          counts["spherical.quartic_multisets"]),
        "affine.biconvex_per_ideal": _ratio(calls.get("affine.biconvex", 0), counts["ideals.count"]),
        "cli.main_s": main_s,
        "cli.self_s": self_s.get("cli.main", 0.0),
        "trace.coverage": _ratio(main_s - self_s.get("cli.main", 0.0), main_s),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name in counts:
            out[name] = counts[name]
        elif name.endswith("_calls") and name[: -len("_calls")] in LAYERS:
            out[name] = calls.get(name[: -len("_calls")], 0)
        elif name.endswith("_s") and name[: -len("_s")] in LAYERS:
            out[name] = self_s.get(name[: -len("_s")], 0.0)
        else:
            raise KeyError(f"per-layer metric {name} has no span or counter")
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "host": platform.node(),
        "platform": platform.platform(),
    }


def measure(wl: Workload, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    """Run one benchmark run; returns (result, record of samples and spans)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        warm_up(tmp, deadline)
        calibration, setup, reps = [], [], []
        start = time.monotonic()
        # a calibration and a set-up sample beside each repetition, so all
        # three span the whole run
        while True:
            pair_start = time.monotonic()
            calibration.append(spawn([sys.executable, "-c", CALIBRATION_CODE], tmp, deadline))
            setup.append(setup_sample(wl, tmp, deadline))
            reps.append(run_rep(wl, seed, tmp, deadline))
            now = time.monotonic()
            last = now - pair_start
            if now - start + last > seconds or now + last > deadline:
                break
        traced_reps = [run_rep(wl, seed, tmp, deadline, trace=True)
                       for _ in range(TRACED_REPS if trace else 0)]
    done = reps + traced_reps
    wall = [sum(r.walls) for r in reps]
    traced = sorted(traced_reps, key=lambda r: sum(r.walls))[len(traced_reps) // 2] if trace else None
    if trace:
        values = layer_metrics([m["name"] for m in spec["per_layer"]], traced.traces,
                               sum(traced.walls), statistics.median(wall))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        # Neighbours on the shared host change its speed by a third and more
        # over minutes.  Dividing by the calibration's median in the same run
        # takes that out; the ratio is then scaled to seconds at the
        # reference speed.
        wall_scale = CALIBRATION_REF_S / statistics.median(p.wall_s for p in calibration)
        cpu_scale = CALIBRATION_REF_S / statistics.median(p.cpu_s for p in calibration)
        values = {
            "wall_s": statistics.median(wall) * wall_scale,
            "cpu_s": statistics.median(sum(r.cpus) for r in reps) * cpu_scale,
            "setup_s": statistics.median(setup) * wall_scale,
            "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    failed = sum(1 for r in done if r.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    record = {
        "env": environment(),
        "seed": seed,
        "seconds": seconds,
        "samples": {
            "calibration_s": [p.wall_s for p in calibration],
            "calibration_cpu_s": [p.cpu_s for p in calibration],
            "setup_s": setup,
            "wall_s": [r.walls for r in reps],
            "cpu_s": [r.cpus for r in reps],
            "peak_rss_mb": [r.rss_mb for r in reps],
            "traced_wall_s": [r.walls for r in traced_reps],
        },
        "problems": [p for r in done for p in r.problems],
        "spans": traced.traces if traced else None,
    }
    return result, record


def require_sources():
    """Exit with code 2 when the liesph sources are not beside perfbench/."""
    if not os.path.isfile(os.path.join(SRC, "liesph", "cli.py")):
        print(f"perfbench: no liesph sources under {SRC}", file=sys.stderr)
        sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_sources()
    result, record = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), load_spec())
    print(json.dumps({"workload": args.workload, **record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
