"""Command line front end.

Subcommands: count (closed-form counts and distribution rows), table
(triangular tables of a statistic), enumerate (exhaustive generation),
biject (run a bijection or its inverse on one input), verify (the
cross-checking harness) and bfile (OEIS-style "index value" listings).

All data goes to stdout and diagnostics to stderr; output is a pure
function of the flags, apart from the wall times that verify --format
json reports.  Exit codes: 0 success, 1 verification failure, 2 usage
error or closed output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import islice
from operator import attrgetter

from . import bijections, counting, paths, series, trees, verify


def _exact_output(cmd):
    """Run cmd with Python's limit on int-to-str conversion lifted: the
    integers it prints are its own exact results, however long.  Its
    integer flags were parsed before, under the default limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return cmd

    @functools.wraps(cmd)
    def run(args) -> int:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return cmd(args)
        finally:
            sys.set_int_max_str_digits(limit)

    return run


def _stat_fn(stat: str):
    if stat == "returns":
        return counting.count_box_by_returns
    return counting.count_box_by_long_ascents


def format_table(values: list[list[int]]) -> str:
    """Rows labeled 1..len(values), right-aligned fixed-width columns,
    two-space gutters; cells past a row's end stay blank."""
    label_w = len(str(len(values)))
    ncols = max(len(row) for row in values)
    widths = [
        max(len(str(row[j])) for row in values if j < len(row))
        for j in range(ncols)
    ]
    lines = []
    for n, row in enumerate(values, 1):
        cells = [str(n).rjust(label_w)]
        cells += [str(v).rjust(widths[j]) for j, v in enumerate(row)]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines) + "\n"


@_exact_output
def cmd_count(args) -> int:
    if args.stat is None:
        if args.j is not None:
            raise ValueError("--j needs --stat")
        print(counting.count_box(args.k, args.n))
        return 0
    fn = _stat_fn(args.stat)
    if args.j is None:
        row = [fn(args.k, args.n, j) for j in range(1, args.n + 1)]
        print(" ".join(str(v) for v in row))
    else:
        print(fn(args.k, args.n, args.j))
    return 0


@_exact_output
def cmd_table(args) -> int:
    fn = _stat_fn(args.stat)
    if args.rows < 1:
        raise ValueError("--rows must be >= 1")
    values = [
        [fn(args.k, n, j) for j in range(1, n + 1)]
        for n in range(1, args.rows + 1)
    ]
    sys.stdout.write(format_table(values))
    return 0


def cmd_enumerate(args) -> int:
    if args.family == "skew":
        if args.k is not None:
            raise ValueError("--k only applies to --family box")
        if args.format == "compositions":
            raise ValueError("compositions only apply to --family box")
        if args.n < 0:
            raise ValueError("--n must be >= 0")
        chunks = paths.skew_dyck_text(args.n)
    elif args.k is None:
        raise ValueError("--family box needs --k")
    elif args.format == "compositions":
        # for k = 0 these are the virtual ascent tuples
        chunks = paths.k_box_text(args.k, args.n, compositions=True)
    else:
        chunks = _box_word_chunks(args.k, args.n)
    # every chunk holds whole lines
    sys.stdout.writelines(chunks)
    return 0


# about the letters of a chunk of _box_word_chunks: enough that a write's
# cost is spread thin, and few beside the words of a large k
_CHUNK_TEXT = 2**16


def _box_word_chunks(k: int, n: int):
    """The words of paths.generate_k_box(k, n), each followed by a newline,
    joined in chunks of about _CHUNK_TEXT letters; a word of size n has at
    most 2((k+2)n - 1).  They are read from generate_k_box, not from
    paths.k_box_text, so that enumerate lists what the generator yields:
    the exhaustive-maps benchmark checks the generator through it."""
    words = map(attrgetter("word"), paths.generate_k_box(k, n))
    count = max(1, _CHUNK_TEXT // (2 * (k + 2) * n))
    while chunk := list(islice(words, count)):
        chunk.append("")
        yield "\n".join(chunk)


def _biject_forward(path: paths.PathWord, to: str, k: int) -> str:
    if to == "trees":
        tup = bijections.box_to_tree_tuple(path, k)
        return ",".join(trees.format_tree(t) for t in tup.trees)
    if to == "ktdyck":
        return bijections.box_to_kt_dyck(path, k).word
    if to == "threshold":
        return str(bijections.box_to_threshold(path, k))
    return ",".join(p.word for p in bijections.decompose_box(path, k).parts)


def _biject_inverse(value: str, to: str, k: int) -> str:
    if to == "trees":
        parsed = tuple(trees.parse_tree(text, k + 2) for text in value.split(","))
        return bijections.tree_tuple_to_box(trees.TreeTuple(parsed), k).word
    if to == "ktdyck":
        image = bijections.KtDyckPath(k + 1, k, value.strip())
        return bijections.kt_dyck_to_box(image).word
    if to == "threshold":
        seq = bijections.parse_threshold(value, k)
        return bijections.threshold_to_box(seq).word
    parts = tuple(paths.PathWord(text) for text in value.split(","))
    return bijections.compose_box(bijections.BoxDecomposition(k, parts)).word


def cmd_biject(args) -> int:
    if args.composition and args.inverse:
        raise ValueError("--composition only applies to forward maps")
    if args.inverse:
        print(_biject_inverse(args.value, args.to, args.k))
        return 0
    if args.composition:
        path = paths.path_of_composition(
            paths.parse_composition(args.value, args.k)
        )
    else:
        path = paths.parse_path(args.value)
    print(_biject_forward(path, args.to, args.k))
    return 0


@_exact_output
def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, args.max_k, args.max_n)
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        for line in report.lines():
            print(line)
    return 0 if report.ok else 1


def _skew_count_values(count: int) -> list[int]:
    # a path of semilength m holds at most m//2 U D L-factors
    R = series.solve_skew_dyck_series(count // 2 + 1, count)
    return [
        sum(int(R.coefficient(j, m)) for j in range(R.t_order + 1))
        for m in range(1, count + 1)
    ]


def _fuss_terms(r):
    """The values function of fuss_catalan(k + 2, r(k), n - 1) for
    n = 1, 2, ...: count_box(k, n) at r(k) = k + 1 and count_tailed(k, n)
    at r(k) = 1, built in one pass."""
    def values(k, count: int) -> list[int]:
        if not count:
            return []
        if k < 0:
            raise ValueError("k must be >= 0")
        return counting.fuss_catalan_terms(k + 2, r(k), count)
    return values


def _terms(term):
    """The values function of the sequence term(k, 1), term(k, 2), ..."""
    return lambda k, count: [term(k, i) for i in range(1, count + 1)]


def _diagonal(cell):
    """The values function of cell(k, 1, 1), cell(k, 2, 2), ..."""
    return _terms(lambda k, i: cell(k, i, i))


def _triangle(cell):
    """The values function of the rows n = 1, 2, ... of cell(k, n, j),
    j = 1..n, read in order."""
    def values(k, count: int) -> list[int]:
        out: list[int] = []
        n = 1
        while len(out) < count:
            out.extend(cell(k, n, j) for j in range(1, n + 1))
            n += 1
        return out[:count]
    return values


# each b-file sequence: its values for k and --count, and whether it takes
# --k; the order is that of the --sequence choices
_BFILE = {
    "box-counts": (_fuss_terms(lambda k: k + 1), True),
    "tailed-counts": (_fuss_terms(lambda k: 1), True),
    "returns-triangle": (_triangle(counting.count_box_by_returns), True),
    "long-ascents-triangle": (
        _triangle(counting.count_box_by_long_ascents), True),
    "returns-diagonal": (_diagonal(counting.count_box_by_returns), True),
    "long-ascents-diagonal": (
        _diagonal(counting.count_box_by_long_ascents), True),
    "skew-counts": (lambda k, count: _skew_count_values(count), False),
}
BFILE_SEQUENCES = tuple(_BFILE)


@_exact_output
def cmd_bfile(args) -> int:
    if args.count < 0:
        raise ValueError("--count must be >= 0")
    values, takes_k = _BFILE[args.sequence]
    if takes_k and args.k is None:
        raise ValueError(f"{args.sequence} needs --k")
    if not takes_k and args.k is not None:
        raise ValueError(f"{args.sequence} does not take --k")
    for i, v in enumerate(values(args.k, args.count), 1):
        print(f"{i} {v}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxpaths",
        description="exact counts, bijections and verification for k-box paths",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="closed-form counts and statistic rows")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", choices=("returns", "long-ascents"))
    p.add_argument("--j", type=int, help="single cell instead of the whole row")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("table", help="triangular table of a statistic")
    p.add_argument("--stat", choices=("returns", "long-ascents"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("enumerate", help="generate a family exhaustively")
    p.add_argument("--family", choices=("box", "skew"), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int, required=True,
                   help="size for box, semilength for skew")
    p.add_argument("--format", choices=("words", "compositions"),
                   default="words")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("biject", help="map a box path (or back)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--to", required=True,
                   choices=("trees", "ktdyck", "threshold", "decomposition"))
    p.add_argument("--inverse", action="store_true",
                   help="treat the value as an image and map back")
    p.add_argument("--composition", action="store_true",
                   help="treat the value as an ascent tuple a1,...,an")
    p.add_argument("value",
                   help="path word, composition, or image text "
                        "(prefix with -- if it starts with a dash)")
    p.set_defaults(fn=cmd_biject)

    p = sub.add_parser("verify", help="run the cross-checking harness")
    p.add_argument("--suite", choices=("all",) + verify.SUITES, default="all")
    p.add_argument("--max-k", type=int, default=2)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="json: one record per check with its wall time")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bfile", help="OEIS-style b-file listing")
    p.add_argument("--sequence", choices=BFILE_SEQUENCES, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(fn=cmd_bfile)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; point it at the null device so that
        # the flush at exit stays quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2


if __name__ == "__main__":
    sys.exit(main())
