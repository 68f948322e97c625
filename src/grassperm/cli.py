"""
Command-line front end.

Subcommands:

- ``count``      one exact value (word counts, parity splits, class counts,
                 fixed points, grand totals)
- ``table``      CSV/JSON dumps of the (k, m) grids and class tables
- ``enumerate``  list avoiding words, avoider permutations, or Dyck paths
- ``biject``     trace the word <-> path constructions on one input
- ``verify``     run the verification suites against the oracles

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain or
cap error.  A reader that closes the output early is not an error: the
command exits 0, or with its verdict for ``verify``.  All output is
deterministic for fixed flags.

Each handler takes ``(parser, args)``, computes and validates everything,
and returns its exit code and its output as strings of whole lines, one
line each or, for the Dyck listing, all the paths of one first half each;
only ``main`` writes them.  So a refused command (exit 2 or 3) prints
nothing to stdout, and a closed pipe is handled in one place.  ``main``
joins the strings in blocks and writes each block in slices, not line by
line: under ``python -u`` or ``PYTHONUNBUFFERED`` stdout writes through,
so each write is a system call, and a listing of 58,786 Dyck paths made
58,815 of them.  A lazy listing is still consumed one block at a time.

A command imports only the modules it runs, because a one-value query is
mostly start-up: the form tables name modules by string, and each handler
imports what it calls.  ``count --quantity B`` loads ``counting`` alone.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from importlib import import_module
from itertools import islice, starmap

from .errors import DomainError

def _function(module: str, name: str):
    """``name`` from the package module ``module``, looked up per call."""
    return getattr(import_module(f"{__package__}.{module}"), name)


# Each quantity's forms (flags, module, function), most flags first: the first
# form given all its flags serves, called with them in order; a call that fits
# none is told what the last form lacks.
COUNT_FORMS = {
    "B": ((("k", "m"), "counting", "avoiding_word_count"),),
    "A": ((("k", "m"), "counting", "avoiding_word_count_alternating"),),
    "O": ((("k", "m"), "parity", "odd_word_count"),),
    "E": ((("k", "m"), "parity", "even_word_count"),),
    "bigrass": (
        (("k", "m"), "classes", "bigrassmannian_avoider_count"),
        (("m",), "classes", "bigrassmannian_count"),
    ),
    "bigrass-odd": (
        (("k", "m"), "classes", "odd_bigrassmannian_avoider_count"),
        (("m",), "classes", "odd_bigrassmannian_count"),
    ),
    "invol": (
        (("k", "m"), "classes", "involution_avoider_count"),
        (("m",), "classes", "involution_count"),
    ),
    "invol-odd": (
        (("k", "m"), "classes", "odd_involution_avoider_count"),
        (("m",), "classes", "odd_involution_count"),
    ),
    "fixed": ((("n", "k"), "counting", "fixed_point_count"),),
    "total-words": (
        (("k", "j"), "counting", "avoiding_words_with_zeros"),
        (("k",), "counting", "total_avoiding_words"),
    ),
    "total-perms": ((("k",), "counting", "total_avoiding_perms"),),
    "total-odd": ((("k",), "parity", "total_odd_avoiders"),),
}

# The largest value of any flag each count serves in about a second of CPU,
# start-up included (2-vCPU Intel Xeon VM, Python 3.11.7); a larger one is
# refused as a cap error before any arithmetic.  The class counts are
# polynomials, served at any size argv holds.
COUNT_CAPS = {
    "B": 65_000,
    "A": 25_000,
    "O": 50_000,
    "E": 40_000,
    "fixed": 800_000,
    "total-words": 140_000,
    "total-perms": 140_000,
    "total-odd": 110_000,
}

# Each table's header and the (module, function, bound flag) whose rows it
# prints; the function checks that its bound is in its domain.
TABLE_FORMS = {
    "B": (("k", "m", "value"), "counting", "avoiding_word_table", "k_max"),
    "A": (("k", "m", "value"), "counting", "alternating_word_table", "k_max"),
    "parity": (("k", "m", "B", "O", "E"), "parity", "parity_table", "k_max"),
    "classes": (("class", "m", "value"), "classes", "class_table", "m_max"),
    "gf": (("n", "i", "count"), "series", "inversion_rows", "n_max"),
}

# ``verify.SUITES``, repeated here (like the ``verify.Options`` defaults
# below) so that parsing argv does not import the harness; a test holds them
# equal.
VERIFY_SUITES = ("counting", "parity", "classes", "paths", "series", "identities")
# The largest --k-max verify serves: 6.2 s of CPU at --word-cap 0 --perm-cap 0
# (median of 11 cold runs, 5.9 to 6.9 s; 2-vCPU Intel Xeon VM, Python 3.11.7).
VERIFY_K_MAX = 200

# The largest word length, size and semilength each listing serves; a larger
# one is refused as a cap error.
ENUMERATE_CAPS = {"words": 24, "avoiders": 14, "dyck": 12}

# The largest bound each table serves in about a second of CPU; a larger one
# is refused as a cap error.  The gf table keeps its own, ``series.MAX_N``.
TABLE_CAPS = {"B": 300, "A": 150, "parity": 300, "classes": 100_000}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassperm",
        description="Count, enumerate, and cross-verify Grassmannian "
        "permutations avoiding an increasing pattern.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print one exact count")
    p_count.add_argument(
        "--quantity",
        required=True,
        choices=COUNT_FORMS,
        help="every flag at most " + ", ".join(f"{q} {cap}" for q, cap in COUNT_CAPS.items()),
    )
    p_count.add_argument("--k", type=int)
    p_count.add_argument("--m", type=int)
    p_count.add_argument("--n", type=int)
    p_count.add_argument("--j", type=int)

    p_table = sub.add_parser("table", help="dump a table as CSV or JSON")
    p_table.add_argument("--quantity", required=True, choices=TABLE_FORMS)
    p_table.add_argument("--k-max", type=int, default=6)
    p_table.add_argument("--m-max", type=int, default=10)
    p_table.add_argument("--n-max", type=int, default=10)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")

    p_enum = sub.add_parser("enumerate", help="list combinatorial objects")
    enum_sub = p_enum.add_subparsers(dest="kind", required=True)
    e_words = enum_sub.add_parser("words", help="avoiding binary words")
    e_words.add_argument("--k", type=int, required=True)
    e_words.add_argument("--m", type=int, required=True)
    e_words.add_argument("--stats", choices=("inversions",))
    e_avoid = enum_sub.add_parser("avoiders", help="avoider permutations")
    e_avoid.add_argument("--n", type=int, required=True)
    e_avoid.add_argument("--pattern", required=True)
    e_avoid.add_argument("--stats", choices=("inversions", "fixed-points"))
    e_dyck = enum_sub.add_parser("dyck", help="Dyck paths")
    e_dyck.add_argument("--n", type=int, required=True)
    e_dyck.add_argument("--stats", choices=("peaks",))

    p_biject = sub.add_parser("biject", help="trace a bijection on one input")
    p_biject.add_argument(
        "map", choices=("word-to-dyck", "word-to-lattice", "toggle", "halve")
    )
    p_biject.add_argument("--k", type=int)
    p_biject.add_argument("--input", required=True)
    p_biject.add_argument("--svg", metavar="FILE", help="also write the output path as SVG")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", default="all", choices=("all",) + VERIFY_SUITES)
    p_verify.add_argument("--k-max", type=int, default=6, help=f"at most {VERIFY_K_MAX}")
    p_verify.add_argument("--perm-cap", type=int, default=9)
    p_verify.add_argument("--word-cap", type=int, default=20)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument(
        "--inject-fault",
        metavar="K,M",
        help="testing aid: flip one cell of the recurrence table",
    )
    return parser


def _cmd_count(parser: argparse.ArgumentParser, args) -> tuple[int, Iterable[str]]:
    for flags, module, function in COUNT_FORMS[args.quantity]:
        values = [getattr(args, flag) for flag in flags]
        if None not in values:
            cap = COUNT_CAPS.get(args.quantity)
            for flag, value in zip(flags, values):
                if cap is not None and value > cap:
                    raise DomainError(f"{flag} {value} over cap {cap}")
            return 0, [f"{_function(module, function)(*values)}\n"]
    missing = ", ".join(f"--{flag}" for flag, v in zip(flags, values) if v is None)
    parser.error(f"--quantity {args.quantity} requires {missing}")


def _cmd_table(parser: argparse.ArgumentParser, args) -> tuple[int, Iterable[str]]:
    header, module, function, bound = TABLE_FORMS[args.quantity]
    value, cap = getattr(args, bound), TABLE_CAPS.get(args.quantity)
    if cap is not None and value > cap:
        raise DomainError(f"{bound} {value} over cap {cap}")
    # Every row is built before the lines are, so a bad bound prints nothing.
    rows = list(_function(module, function)(value))
    if args.format == "csv":
        # One format per table, with a field for each header column: a
        # row's line is one C-level call.
        row_format = ",".join(["{}"] * len(header)) + "\n"
        return 0, starmap(row_format.format, (header, *rows))
    import json

    return 0, [json.dumps([dict(zip(header, row)) for row in rows], indent=None) + "\n"]


def _cmd_enumerate(parser: argparse.ArgumentParser, args) -> tuple[int, Iterable[str]]:
    cap = ENUMERATE_CAPS[args.kind]
    stats = args.stats
    if args.kind == "words":
        from . import core, patterns

        if args.m > cap:
            raise DomainError(f"word length {args.m} over cap {cap}")
        names = patterns.enumerate_avoiding_words(args.k, args.m)
        values = map(core.inversion_count, names)
    elif args.kind == "avoiders":
        from . import core, patterns

        if args.n > cap:
            raise DomainError(f"size {args.n} over cap {cap}")
        pattern = core.perm_from_str(args.pattern)
        perms = patterns.enumerate_avoiders(args.n, pattern)
        names = map(core.perm_to_str, perms)
        if stats == "fixed-points":
            values = (len(core.fixed_points(p)) for p in perms)
        else:
            values = (core.inversion_count(core.canonical_word(p)) for p in perms)
    else:  # dyck
        from . import paths

        if args.n > cap:
            raise DomainError(f"semilength {args.n} over cap {cap}")
        return 0, paths.dyck_listing(args.n, stats is not None)
    # One line per object; the words' and avoiders' ``values`` are lazy, so
    # a statistic no one asked for is never computed.
    if stats is None:
        return 0, (f"{name}\n" for name in names)
    return 0, (f"{name} {stats}={value}\n" for name, value in zip(names, values))


def _format_a_sequence(a: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in a)


def _cmd_biject(parser: argparse.ArgumentParser, args) -> tuple[int, Iterable[str]]:
    from . import paths

    if args.map in ("word-to-dyck", "word-to-lattice"):
        from . import core

        if args.k is None:
            parser.error(f"{args.map} requires --k")
        w = core.check_word(args.input)
        lines = [f"word={w}", f"a={_format_a_sequence(core.a_sequence(w))}"]
    if args.map == "word-to-dyck":
        out_path, floor = paths.word_to_dyck(args.k, w), 0
        lines += [f"dyck={out_path}", f"peak_sum={paths.first_last_peak_sum(out_path)}"]
    elif args.map == "word-to-lattice":
        lp = paths.word_to_lattice(args.k, w)
        out_path, floor = lp.steps, lp.floor
        lines += [f"lattice={lp.steps}", f"floor={lp.floor}"]
        try:
            i, kind, height = paths.find_first_floor_parity_extremum(lp)
            partner = paths.toggle_lattice_path(lp)
            lines.append(f"toggle_position={i + 1} toggle_kind={kind} toggle_height={height}")
            lines.append(f"toggle={partner.steps}")
            lines.append(f"toggle_word={paths.lattice_to_word(partner)}")
        except DomainError:
            lines.append("toggle=none (no peak or valley at floor parity)")
    elif args.map == "toggle":
        if args.k is not None:
            lp = paths.LatticePath(args.input, args.k)
            run_seq = paths.lattice_run_sequence(lp)
            i, kind, height = paths.find_first_floor_parity_extremum(lp)
            out_path, floor = paths.toggle_lattice_path(lp).steps, lp.floor
        else:
            p = paths.DyckPath(args.input)  # scanned once here
            run_seq = paths.dyck_run_sequence(p)
            i, kind, height = paths.find_first_even_extremum(p)
            out_path, floor = paths.toggle_first_even_extremum(p), 0
        lines = [
            f"path={args.input}",
            f"a={_format_a_sequence(run_seq)}",
            f"position={i + 1} kind={kind} height={height}",
            f"toggled={out_path}",
        ]
    else:  # halve
        p = paths.DyckPath(args.input)
        out_path, floor = paths.halve_all_odd_path(p), 0
        a = _format_a_sequence(paths.dyck_run_sequence(p))
        lines = [f"path={p}", f"a={a}", f"halved={out_path}"]
    if args.svg:
        try:
            with open(args.svg, "w", encoding="ascii") as fh:
                fh.write(paths.path_svg(out_path, floor))
        except OSError as exc:
            raise DomainError(f"cannot write {args.svg}: {exc.strerror}") from None
        lines.append(f"svg={args.svg}")
    return 0, [f"{line}\n" for line in lines]


def _parse_fault(parser: argparse.ArgumentParser, raw: str | None):
    if raw is None:
        return None
    try:
        k, m = (int(tok) for tok in raw.split(","))
    except ValueError:
        parser.error("--inject-fault expects K,M")
    return (k, m)


def _cmd_verify(parser: argparse.ArgumentParser, args) -> tuple[int, Iterable[str]]:
    from . import verify

    if args.k_max < 1:
        parser.error("--k-max must be at least 1")
    if args.k_max > VERIFY_K_MAX:
        raise DomainError(f"k_max {args.k_max} over cap {VERIFY_K_MAX}")
    if args.perm_cap < 0 or args.word_cap < 0:
        parser.error("--perm-cap and --word-cap must be nonnegative")
    opts = verify.Options(
        k_max=args.k_max,
        perm_cap=args.perm_cap,
        word_cap=args.word_cap,
        fault=_parse_fault(parser, args.inject_fault),
    )
    names = None if args.suite == "all" else [args.suite]
    cells = verify.word_oracle_cells(opts) if args.suite in ("all", "counting") else []
    if opts.fault is not None and opts.fault not in cells:
        # A fault that no check compares would leave the run green.
        message = (
            "--inject-fault needs the counting suite and a cell with "
            f"1 <= K <= {opts.k_max}, 0 <= M <= min(2K - 2, {opts.word_cap})"
        )
        parser.exit(2, f"{parser.prog}: error: {message}\n")
    results = verify.run_suites(names, opts)
    code = 0 if all(r.passed for r in results) else 1
    if args.format == "json":
        import json

        report = [
            {"suite": r.suite, "checks": [{**c._asdict(), "pass": c.passed} for c in r.checks]}
            for r in results
        ]
        return code, [json.dumps(report) + "\n"]
    lines = []
    for r in results:
        for c in r.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {r.suite}.{c.name} {c.actual}/{c.expected} cells"
            mismatch = c.params.get("first_mismatch")
            if mismatch is not None:
                where = " ".join(
                    f"{key}={val}"
                    for key, val in mismatch.items()
                    if key not in ("expected", "actual")
                )
                line += (
                    f" (first mismatch at {where}: expected "
                    f"{mismatch['expected']}, actual {mismatch['actual']})"
                )
            lines.append(f"{line}\n")
    total = sum(len(r.checks) for r in results)
    bad = sum(1 for r in results for c in r.checks if not c.passed)
    lines.append(f"{total - bad}/{total} checks passed\n")
    return code, lines


# ``main`` joins the strings WRITE_BLOCK at a time and writes each block in
# slices of at most WRITE_CHARS characters: PIPE_BUF bytes on Linux, as all
# output but a ``--svg`` file name is ASCII.  A pipe takes such a write whole;
# a larger one is cut short when a signal stops the writer (Ctrl-Z), and
# under ``-u`` the text layer drops the rest of a short write.
WRITE_BLOCK = 2048
WRITE_CHARS = 4096


def _discard_stdout() -> None:
    """Point stdout at the null device once the reader has gone, so the
    interpreter's final flush cannot raise BrokenPipeError again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


HANDLERS = {
    "count": _cmd_count,
    "table": _cmd_table,
    "enumerate": _cmd_enumerate,
    "biject": _cmd_biject,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact values print in full; argv above was parsed under the default
    # limit on int/str digits (0 is no limit, as before Python 3.10.7).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code, lines = HANDLERS[args.command](parser, args)
        lines = iter(lines)
        try:
            while block := list(islice(lines, WRITE_BLOCK)):
                text = "".join(block)
                for start in range(0, len(text), WRITE_CHARS):
                    sys.stdout.write(text[start : start + WRITE_CHARS])
            sys.stdout.flush()
        except BrokenPipeError:
            # e.g. `grassperm enumerate dyck --n 10 | head -1`: the reader
            # has what it wanted, so the command keeps its code.
            _discard_stdout()
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
