"""Command-line frontend: exhaustive verifiers, atlases, and single-subject
inspection, with JSON/CSV/markdown reports and an optional result cache.

Exit codes: 0 success, 1 mismatch found, 2 usage error, 3 budget exceeded,
4 I/O error (reading or writing a report or cache file, or writing stdout,
closed or full), 5 internal error (an unexpected exception; never reported
as a mismatch).  A line a closed or full stderr cannot take is lost, and the
run keeps its code.
"""

from __future__ import annotations

import errno
import os
import re
import sys
from types import SimpleNamespace

from . import __version__
from . import ideals as I
from . import spherical as S
from . import weyl as W
from .chevalley import build_chevalley, exp_root_action, height
from .errors import BudgetExceeded, LiesphError, write_stderr
from .roots import CartanType, build_root_system

DEFAULT_BUDGET = 200_000
EXIT_OK, EXIT_MISMATCH, EXIT_USAGE, EXIT_BUDGET, EXIT_IO, EXIT_INTERNAL = 0, 1, 2, 3, 4, 5


class UsageError(Exception):
    """A command line the CLI cannot read, as (message, prog, usage): main
    prints the usage line, then ``<prog>: error: <message>``, and exits 2."""


def _is_int(text: str) -> bool:
    """ASCII digits after at most one minus: the integers the CLI reads.
    int() would also read "+2", "1_0", surrounding spaces and non-ASCII digits."""
    digits = text.removeprefix("-")
    return digits.isascii() and digits.isdigit()


def _integer(text: str) -> int:
    """Type of --seed."""
    if not _is_int(text):
        raise UsageError(f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # int() reads at most sys.get_int_max_str_digits() digits
        raise UsageError(f"integer too long: {len(text.removeprefix('-'))} digits") from None


def _positive_int(text: str) -> int:
    """Type of --budget, --workers, --cap-words and --trials: ASCII digits, >= 1."""
    if not _is_int(text) or _integer(text) < 1:
        raise UsageError(f"expected a positive integer, got {text!r}")
    return int(text)


# every flag: a switch takes no value; any other takes one, checked against
# its choices and read by its type.  Each command reads COMMON and the flags
# of its REPORTS row.
OPTIONS = {
    "--type": {"required": True, "help": "Cartan type, e.g. B3 or F4"},
    "--swap": {"switch": True, "default": False,
               "help": "swap the two simple-root labels (rank-2 types only)"},
    "--format": {"choices": ("json", "csv", "md"), "default": "json", "help": "report format"},
    "--out": {"help": "write the report here instead of stdout"},
    "--seed": {"type": _integer, "default": 0, "help": "echoed by verify; seeds inspect's samples"},
    "--trials": {"type": _positive_int, "default": 5, "help": "samples behind the generic height"},
    "--budget": {"type": _positive_int, "default": DEFAULT_BUDGET,
                 "help": "largest Weyl group a command may enumerate"},
    "--workers": {"type": _positive_int, "default": 1, "help": "processes in the fork pool"},
    "--cache": {"help": "directory for cached report payloads"},
    "--cap-words": {"type": _positive_int, "default": W.DEFAULT_WORD_CAP,
                    "help": "cap on the reduced words of --word"},
    "--word": {"help": "reduced word, e.g. 1,2,1"},
    "--ideal-gen": {"help": "ideal generators as ;-separated coordinate lists, e.g. 2,1"},
}
COMMON = ("--type", "--swap", "--format", "--out")
COMMANDS = {"verify": "run an exhaustive verifier", "atlas": "emit the ideal or FC-element atlas",
            "inspect": "drill into one element or ideal"}
HELP = ("-h, --help", "show this help message and exit")
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")  # starts with '-' but is no flag


def _is_flag(token: str) -> bool:
    return token.startswith("-") and token != "-" and not _NEGATIVE_NUMBER.fullmatch(token)


def _flag_usage(flag: str) -> str:
    spec = OPTIONS[flag]
    choices = spec.get("choices")
    metavar = f"{{{','.join(choices)}}}" if choices else flag[2:].upper().replace("-", "_")
    return flag if spec.get("switch") else f"{flag} {metavar}"


def _print_help(usage: str, rows) -> None:
    print(usage, "", *(f"  {name:<22} {text}".rstrip() for name, text in rows), sep="\n",
          file=_stdout())


def _read_value(spec: dict, eq: str, value: str, rest):
    """A flag's value: after its '=', else the next token of rest."""
    if spec.get("switch"):
        if eq:
            raise UsageError(f"ignored explicit argument {value!r}")
        return True
    if not eq:
        value = next(rest, None)
        if value is None or _is_flag(value):
            raise UsageError("expected one argument")
    if value not in spec.get("choices", (value,)):
        choices = ", ".join(map(repr, spec["choices"]))
        raise UsageError(f"invalid choice: {value!r} (choose from {choices})")
    return spec.get("type", str)(value)


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The command, its target and its flags, read as the subcommand parsers
    of argparse would read them, with exact flag names (no prefixes).
    -h, --help and --version print and return None; anything else the
    command line cannot mean raises UsageError."""
    args = SimpleNamespace(command=None, what=None)
    prog, tokens, extra = "liesph", list(argv), []
    # the root picks the command, verify and atlas their target: the first
    # token that is not a flag; a flag before it is not its target's
    while (args.command, args.what) not in REPORTS:
        root = args.command is None
        dest = "command" if root else "what"
        names = list(COMMANDS) if root else [w for c, w in REPORTS if c == args.command]
        usage = f"usage: {prog} [-h]{' [--version]' * root} {{{','.join(names)}}} ..."
        for i, token in enumerate(tokens):
            if token in ("-h", "--help"):
                return _print_help(usage, [HELP, *[("--version", "show the version and exit")] * root,
                                           *((n, COMMANDS.get(n, "")) for n in names)])
            if token == "--version" and root:
                print(f"liesph {__version__}", file=_stdout())
                return None
            if not _is_flag(token):
                break
        else:
            raise UsageError(f"the following arguments are required: {dest}", prog, usage)
        if token not in names:
            raise UsageError(f"argument {dest}: invalid choice: {token!r} "
                             f"(choose from {', '.join(map(repr, names))})", prog, usage)
        setattr(args, dest, token)
        extra += tokens[:i]
        tokens = tokens[i + 1:]
        prog += f" {token}"

    flags = (*COMMON, *REPORTS[args.command, args.what][1])
    usage = " ".join([f"usage: {prog} [-h]", *(
        _flag_usage(f) if OPTIONS[f].get("required") else f"[{_flag_usage(f)}]" for f in flags)])
    attr = {flag: flag[2:].replace("-", "_") for flag in flags}
    vars(args).update({attr[f]: OPTIONS[f].get("default") for f in flags})
    rest = iter(tokens)
    for token in rest:
        if token in ("-h", "--help"):
            return _print_help(usage, [HELP, *((_flag_usage(f), OPTIONS[f]["help"]) for f in flags)])
        flag, eq, value = token.partition("=")
        if flag not in flags:
            extra.append(token)
            continue
        try:
            value = _read_value(OPTIONS[flag], eq, value, rest)
        except UsageError as exc:
            raise UsageError(f"argument {flag}: {exc}", prog, usage) from None
        setattr(args, attr[flag], value)
    missing = [f for f in flags if OPTIONS[f].get("required") and getattr(args, attr[f]) is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}", prog, usage)
    if extra:
        raise UsageError(f"unrecognized arguments: {' '.join(extra)}", prog, usage)
    return args


# -- formatting -------------------------------------------------------------------


def _json(value, pretty: bool = False) -> str:
    """``json.dumps(value, sort_keys=True)``, with ``indent=2`` when pretty,
    on what reports hold: dicts with str keys, lists, tuples, str, int, bool
    and None; anything else raises TypeError.  A string that is not plain
    printable ASCII, or that holds a quote or a backslash, is json's to
    escape, so json is imported only for such a string (and by the cache)."""
    out = []
    _json_parts(value, out, "\n" if pretty else None)
    return "".join(out)


def _json_parts(value, out: list, newline: str | None) -> None:
    """Append the text of value to out; newline is None when compact, else
    the line break and indent of value's own line."""
    if value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, str):
        out.append(_json_str(value))
    elif isinstance(value, (list, tuple, dict)):
        keyed = isinstance(value, dict)
        if keyed and not all(isinstance(k, str) for k in value):
            raise TypeError("report keys must be str")
        items = sorted(value) if keyed else value
        first, last = "{}" if keyed else "[]"
        if not items:
            out.append(first + last)
            return
        inner = None if newline is None else newline + "  "
        out.append(first if inner is None else first + inner)
        for i, item in enumerate(items):
            if i:
                out.append(", " if inner is None else "," + inner)
            if keyed:
                out.append(_json_str(item) + ": ")
                item = value[item]
            _json_parts(item, out, inner)
        out.append(last if newline is None else newline + last)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_str(text: str) -> str:
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json  # escapes are json's

    return json.dumps(text)


def _csv_escape(value) -> str:
    text = value if isinstance(value, str) else _json(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _to_table(report: dict, fmt: str) -> str:
    """csv or md: a report whose records are dicts as a table of its
    records, its other keys below it; any other report as a key/value
    table.  csv writes a string cell as itself (quoted when it holds a
    comma, a quote or a newline) and any other cell as json; md writes
    every cell as json but the keys of a key/value table."""
    csv = fmt == "csv"
    cell = _csv_escape if csv else _json
    records = report.get("records")
    tabular = isinstance(records, list) and bool(records) and isinstance(records[0], dict)
    if tabular:
        header = sorted({k for r in records for k in r})
        rows = [[cell(r.get(k, "")) for k in header] for r in records]
        meta = [k for k in sorted(report) if k != "records"]
    else:
        header, meta = ["key", "value"], []
        rows = [[cell(k) if csv else k, cell(report[k])] for k in sorted(report)]
    if csv:
        lines = [",".join(row) for row in (header, *rows)]
        lines += [f"# {k}={_json(report[k])}" for k in meta]
    else:
        lines = [f"| {' | '.join(row)} |" for row in (header, ["---"] * len(header), *rows)]
        lines += [""] * tabular + [f"- **{k}**: {_json(report[k])}" for k in meta]
    return "\n".join(lines) + "\n"


def _stdout():
    """sys.stdout, to write to: None when the process started with it
    closed, which is an I/O error only for a command that writes to it."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, "stdout is closed")
    return sys.stdout


def _emit(report: dict, fmt: str, out: str | None):
    text = _json(report, pretty=True) + "\n" if fmt == "json" else _to_table(report, fmt)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        _stdout().write(text)


# -- cache ------------------------------------------------------------------------


def _cache_fetch(cache: str | None, key_fields: dict, expect: dict):
    """The report cached in directory ``cache`` under key_fields, or None,
    with the entry's path.  An entry is served only when it is a JSON object
    whose fields in ``expect`` (the report's command, type and, for verify,
    seed) are the request's; anything else is an unreadable entry, warned
    about and recomputed.  A path that can never hold the entry (``cache``
    a file, or the entry a directory) is an I/O error, raised before
    anything is built."""
    if not cache:
        return None, None
    import hashlib  # only a cached run needs these
    import json

    key = json.dumps({"version": __version__, **key_fields}, sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    path = os.path.join(cache, f"{digest}.json")
    try:
        with open(path) as fh:
            report = json.load(fh)
    except FileNotFoundError:
        return None, path
    except (NotADirectoryError, IsADirectoryError):
        raise  # no entry can ever be stored at this path: fail before any work
    except (OSError, ValueError):
        report = None
    if not isinstance(report, dict) or any(report.get(k) != v for k, v in expect.items()):
        write_stderr(f"warning: unreadable cache entry {path}; recomputing")
        return None, path
    return report, path


def _cache_store(path: str | None, report: dict):
    """Write the entry atomically: readers see the old file or the whole new one."""
    if not path:
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(_json(report, pretty=True) + "\n")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


# -- commands ---------------------------------------------------------------------


def _g2_report(rs) -> dict:
    """Unit checks for the G2-specific statements: the two non-spherical
    pair mechanisms, the one-parameter degeneration, and both exhaustive
    biconditionals."""
    if rs.cartan_type.name != "G2":
        raise LiesphError("verify g2 requires --type G2")
    from fractions import Fraction

    L = build_chevalley(rs)
    checks = []

    def record(name, ok, **extra):
        checks.append({"name": name, "ok": bool(ok), **extra})

    # coordinates below are Bourbaki's (short, long); --swap lists long first
    flip = not rs.simple_root(1).is_short
    s_short, s_long = (2, 1) if flip else (1, 2)

    def i(coords):
        return rs.root_from_coords(coords[::-1] if flip else coords)

    pair_orth = {i((0, 1)).index: 1, i((2, 1)).index: 1}
    record("orthogonal_pair_height_4", height(L, pair_orth) == 4)

    gam = i((1, 1))
    ia, ib, ith = i((1, 0)).index, i((2, 1)).index, i((3, 2)).index
    n_ga = L.ntab[(gam.index, ia)]
    n_gb = L.ntab[(gam.index, ib)]
    ok_poly = True
    for xi in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)):
        got = exp_root_action(L, gam, xi, {ia: Fraction(1), ib: Fraction(1)})
        want = {ia: Fraction(1)}
        c2 = 1 + n_ga * xi
        c3 = Fraction(1, 2) * n_gb * xi * (2 + n_ga * xi)
        if c2:
            want[ib] = c2
        if c3:
            want[ith] = c3
        ok_poly = ok_poly and got == want
    record("one_parameter_coefficients", ok_poly)

    xi0 = Fraction(-1, n_ga)
    reached = exp_root_action(L, gam, xi0, {ia: Fraction(1), ib: Fraction(1)})
    ok_reach = set(reached) == {ia, ith} and reached[ith] != 0
    record("degeneration_reaches_e_a1_plus_e_theta", ok_reach, xi0=str(xi0))
    record("degenerated_element_not_spherical", ok_reach and height(L, reached) == 4)

    record(
        "s2_conjugates_case_iii_to_case_ii",
        W.apply_simple(rs, s_long, i((1, 1))) == i((1, 0))
        and W.apply_simple(rs, s_long, i((2, 1))) == i((2, 1)),
    )

    t1 = S.verify_theorem1(rs, L)
    record("commutative_iff_spherical", not t1["mismatches"], elements=t1["elements"])
    t2 = I.verify_theorem2(rs, L)
    record("ideals_spherical_iff_abelian", not t2["mismatches"],
           ideals=t2["ideals"], spherical=t2["spherical"])

    els = list(W.enumerate_weyl(rs))
    s2s1s2 = W.from_word(rs, (s_long, s_short, s_long))
    record(
        "commutative_iff_bruhat_below_s2s1s2",
        all(W.is_commutative_inv(e) == W.bruhat_leq(e, s2s1s2) for e in els),
    )
    record(
        "fc_iff_length_le_5_pairing_iff_le_4",
        all((e.length <= 5) == W.is_fc_inv(e) for e in els)
        and all((e.length <= 4) == W.pairing_nonneg(rs, e.inv) for e in els),
    )

    failed = [c["name"] for c in checks if not c["ok"]]
    return {"type": "G2", "checks": checks, "mismatches": failed}


def _ideal_atlas(rs, args) -> dict:
    records = I.ideal_atlas(rs, build_chevalley(rs))
    return {"count": len(records), "records": records,
            "maximal_spherical_ideals": I.maximal_spherical_ideals(records)}


def _fc_atlas(rs, args) -> dict:
    L = build_chevalley(rs)
    records = []
    for e in W.enumerate_weyl(rs):
        if not W.is_fc_inv(e):
            continue
        records.append(
            {
                "word": list(e.canonical_word()),
                "length": e.length,
                "inversions": [list(rs.roots[i].coords) for i in e.inv],
                "commutative": W.is_commutative_inv(e),
                "spherical": S.is_spherical_subspace(L, e.inv),
            }
        )
    records.sort(key=lambda r: (r["length"], r["word"]))
    return {"count": len(records), "records": records}


def _parse_ints(text: str) -> list[int] | None:
    """Comma-separated integers, each as ``_integer`` reads them; spaces
    around a part are fine.  None for anything else."""
    try:
        return [_integer(p.strip()) for p in text.split(",")]
    except UsageError:
        return None


def _parse_coords(text: str, rank: int) -> tuple[int, ...]:
    coords = _parse_ints(text)
    if coords is None or len(coords) != rank:
        raise LiesphError(f"cannot parse root coordinates {text!r} for rank {rank}")
    return tuple(coords)


def _inspect(rs, args) -> dict:
    """One element (--word) or ideal (--ideal-gen): its criteria, its
    sphericality and the orbit fingerprint of its seeded samples."""
    if args.word:
        letters = _parse_ints(args.word)
        if letters is None:
            raise LiesphError(f"cannot parse word {args.word!r}")
        w = W.from_word(rs, letters)
        ps = w.inv
        words, overflow = W.reduced_words(w, cap=args.cap_words)
        subject = {
            "subject": "biconvex",
            "word": letters,
            "canonical_word": list(w.canonical_word()),
            "length": w.length,
            "inversions": [list(rs.roots[i].coords) for i in ps],
            "fully_commutative": W.is_fc_inv(w),
            "commutative": W.is_commutative_inv(w),
            "reduced_words": len(words),
            "reduced_words_capped": overflow,
        }
        if not overflow:
            # definition-based deciders double-check the criteria when the
            # word set fits under the cap
            subject["fully_commutative_by_words"] = W.is_fc_def(w, cap=args.cap_words)
            subject["commutative_by_words"] = W.is_commutative_def(w, cap=args.cap_words)
    else:
        gens = [rs.root_from_coords(_parse_coords(g, rs.rank)) for g in args.ideal_gen.split(";")]
        for g in gens:
            if not g.is_positive:
                raise LiesphError("ideal generators must be positive roots")
        ps = I.ideal_from_generators(rs, gens)
        subject = I.ideal_record(rs, ps)  # its sphericality is make_report's, below
        subject["fully_commutative"] = subject.pop("fc")
        subject["subject"] = "ideal"
    L = build_chevalley(rs)
    dim_orbit, h, ranks = S.orbit_fingerprint(L, ps, trials=args.trials, seed=args.seed)
    return {
        **S.make_report(L, ps, subject["subject"]),
        **subject,
        "generic_height": h,  # generic_height draws the fingerprint's samples
        "orbit_fingerprint": {"orbit_dim": dim_orbit, "height": h, "ranks": list(ranks)},
        "trials": args.trials,
    }


# (command, target) -> (report builder, the flags the command reads besides
# COMMON); inspect has no target
REPORTS = {
    ("verify", "theorem1"): (lambda rs, a: S.verify_theorem1(rs, workers=a.workers),
                             ("--seed", "--budget", "--workers", "--cache")),
    ("verify", "theorem2"): (lambda rs, a: I.verify_theorem2(rs), ("--seed", "--cache")),
    ("verify", "subspaces"): (lambda rs, a: S.verify_subspace_theorem(rs),
                              ("--seed", "--budget", "--cache")),
    ("verify", "lemmas"): (lambda rs, a: S.verify_lemma_quadruples(rs), ("--seed", "--cache")),
    ("verify", "g2"): (lambda rs, a: _g2_report(rs), ("--seed", "--cache")),
    ("atlas", "ideals"): (_ideal_atlas, ("--cache",)),
    ("atlas", "fc"): (_fc_atlas, ("--budget", "--cache")),
    ("inspect", None): (_inspect, ("--seed", "--trials", "--cap-words", "--word", "--ideal-gen")),
}


def cmd_report(args) -> int:
    """The report of the command line's REPORTS row, stamped with
    ``command`` (``command-target`` for a row with a target), the type and,
    when the row reads --seed, the seed.  A row that reads --cache looks
    the stamp and the swap flag up in the cache first.  Before anything is
    built, a row that reads --word is refused unless it has exactly one
    subject, and a row that reads --budget, as it enumerates W, is refused
    when the closed-form |W| exceeds the budget.  Every |W| is at least
    2^rank, so past the 10 000 bits a refusal shows, a rank the budget is
    too small for is refused on that bound, before |W| is computed."""
    ct = CartanType.parse(args.type)
    build, flags = REPORTS[args.command, args.what]
    expect = {"command": "-".join(filter(None, (args.command, args.what))), "type": ct.name}
    if "--seed" in flags:
        expect["seed"] = args.seed
    cache = args.cache if "--cache" in flags else None
    report, cache_path = _cache_fetch(cache, {**expect, "swap": args.swap}, expect)
    if report is None:
        if "--word" in flags and bool(args.word) == bool(args.ideal_gen):
            raise LiesphError("inspect needs exactly one of --word / --ideal-gen")
        if "--budget" in flags:
            if ct.rank > 10_000 and ct.rank >= args.budget.bit_length():
                raise BudgetExceeded(f"|W({ct.name})| >= 2^{ct.rank} exceeds budget {args.budget}")
            if (order := ct.weyl_order()) > args.budget:
                # str() refuses an int of more than 4300 digits
                shown = order if order.bit_length() <= 10_000 else f"a {order.bit_length()}-bit number"
                raise BudgetExceeded(f"|W({ct.name})| = {shown} exceeds budget {args.budget}")
        report = build(build_root_system(ct, swap=args.swap), args)
        report.update(expect)
        _cache_store(cache_path, report)
    _emit(report, args.format, args.out)
    bad = report.get("mismatches", report.get("violations", []))
    return EXIT_MISMATCH if bad else EXIT_OK


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and the stderr message of a failure.  A crash is no
    verdict: it exits 5, never 1."""
    if isinstance(exc, UsageError):
        message, prog, usage = exc.args
        return EXIT_USAGE, f"{usage}\n{prog}: error: {message}"
    if isinstance(exc, BudgetExceeded):
        return EXIT_BUDGET, f"budget exceeded: {exc}"
    if isinstance(exc, LiesphError):
        return EXIT_USAGE, f"error: {exc}"
    if isinstance(exc, OSError):
        return EXIT_IO, f"error: {exc}"
    message = " ".join(str(exc).splitlines())
    return EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {message}"


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = EXIT_OK if args is None else cmd_report(args)  # None: help or the version, printed
        if sys.stdout is not None:
            sys.stdout.flush()  # output that cannot be written out is an I/O error
        return code
    except Exception as exc:
        code, message = _failure(exc)
        write_stderr(message)
        return code


def run() -> None:
    """The process entry of ``python -m liesph.cli`` and the ``liesph``
    script: main() on sys.argv, then ``os._exit`` with its code once stdout
    is flushed.  By then main has written and flushed the report and every
    stderr line, and closed every file and worker pool it opened, so
    interpreter teardown would only free memory; no atexit work is
    registered on any path.  A flush that fails here (output main could
    not write) exits 4, never 0 or 1; run() raises nothing.  main() itself
    exits nothing, so library and test callers keep their interpreter."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except (OSError, ValueError):
        code = EXIT_IO if code in (EXIT_OK, EXIT_MISMATCH) else code
    os._exit(code)


if __name__ == "__main__":
    run()
