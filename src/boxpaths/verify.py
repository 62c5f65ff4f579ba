"""Cross-checking harness for the whole package.

Every check re-derives one family of facts in two independent ways (closed
form against brute force, a map against its inverse, a series against the
counting formulas) and yields its cases as (label, got, want, replay argv).
One runner counts and times them and writes each case with got != want as
``{label}: got {got}, want {want}; replay: boxpaths ...``.  A case with no
narrower command (argv None), and a check that raises, replay the suite.

Checks reach sibling modules through the module objects, never through
names bound at import time, so a fault injected by rebinding, say,
``counting.count_box_by_returns`` is visible to every check that uses it.
Checks are pure functions of (max_k, max_n) and independent of each other;
they run sequentially, and records are sorted by suite and check name.
"""

from __future__ import annotations

import math
import shlex
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import product
from operator import methodcaller
from typing import Callable, Iterator, Union

from . import bijections, counting, paths, series, trees

SUITES = ("formulas", "bijections", "series")

# Skew Dyck path counts by semilength 0..8.  Anchor constants: the
# brute-force generator and the t = 1 series column are both compared
# against this list rather than against each other.
SKEW_COUNTS = (1, 1, 3, 10, 36, 137, 543, 2219, 9285)

# Formula identities are cheap, so the formulas suite always runs them to
# this depth regardless of max_n (which scales the exhaustive suites).
FORMULA_DEPTH = 20

# sort key for the generators' step order U < D < L (Python's puts D first)
_LEX = methodcaller("translate", str.maketrans("UDL", "012"))


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named check, with its wall time in seconds."""

    name: str
    suite: str
    params: str
    cases: int
    failures: tuple[str, ...]
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    max_k: int
    max_n: int
    checks: tuple[CheckRecord, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            out.append(f"{status} {c.suite}/{c.name} [{c.params}] {c.cases} cases")
            for f in c.failures[:5]:
                out.append(f"  {f}")
            if len(c.failures) > 5:
                out.append(f"  ... and {len(c.failures) - 5} more failures")
        good = sum(c.passed for c in self.checks)
        out.append(f"{good}/{len(self.checks)} checks passed")
        return out

    def as_dict(self) -> dict:
        """The report as plain data: every check with all its failures and
        its wall time, plus the overall outcome."""
        return {
            "suite": self.suite,
            "max_k": self.max_k,
            "max_n": self.max_n,
            "ok": self.ok,
            "checks": [asdict(c) for c in self.checks],
        }


class _Ctx:
    """Shared parameters plus a cache of exhaustively generated paths."""

    def __init__(self, max_k: int, max_n: int):
        self.max_k, self.max_n = max_k, max_n
        # series (t, x) orders: wide enough for the identities, scaled by max_n
        self.orders = (max(6, max_n + 1), max(14, 3 * max_n - 1))
        self._box: dict[tuple[int, int], tuple[paths.PathWord, ...]] = {}

    def box(self, k: int, n: int) -> tuple[paths.PathWord, ...]:
        if (k, n) not in self._box:
            self._box[(k, n)] = tuple(paths.generate_k_box(k, n))
        return self._box[(k, n)]

    def box_range(self, n_top: int = 0) -> Iterator[tuple[int, int]]:
        """(k, n) for k <= max_k and 1 <= n <= n_top, by default max_n."""
        return product(range(self.max_k + 1), range(1, (n_top or self.max_n) + 1))

    def box_paths(self) -> Iterator[tuple[int, int, paths.PathWord]]:
        for k, n in self.box_range():
            for p in self.box(k, n):
                yield k, n, p

    def k_depth(self) -> str:
        return f"k<={self.max_k}, n<={FORMULA_DEPTH}"

    def k_n(self) -> str:
        return f"k<={self.max_k}, n<={self.max_n}"


# suite, name, params (text, or a function of the context), case generator
_CHECKS: list[tuple[str, str, Union[str, Callable], Callable]] = []


def _register(suite: str, name: str, params: Union[str, Callable[[_Ctx], str]]):
    def wrap(fn):
        _CHECKS.append((suite, name, params, fn))
        return fn
    return wrap


def _show(value) -> str:
    """value as str writes it, but with str in place of repr for the items
    of a tuple, list or set too, so that a Fraction reads 12/7 and a
    PathWord its word; a string item keeps its quotes."""
    cls = value.__class__
    if cls not in (tuple, list, set):
        return str(value)
    items = ", ".join(repr(v) if v.__class__ is str else _show(v) for v in value)
    if cls is tuple:
        return f"({items},)" if len(value) == 1 else f"({items})"
    if cls is list:
        return f"[{items}]"
    return f"{{{items}}}" if value else "set()"


def _run_check(ctx: _Ctx, suite: str, name: str, params, fn) -> CheckRecord:
    rerun = ("verify", "--suite", suite, "--max-k", ctx.max_k, "--max-n", ctx.max_n)
    cases, failures = 0, []
    start = time.perf_counter()
    try:
        for label, got, want, argv in fn(ctx):
            cases += 1
            if got != want:
                failures.append((f"{label}: got {_show(got)}, want {_show(want)}",
                                 argv or rerun))
    except Exception as exc:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        label = f"{name} ({where.filename}:{where.lineno})"
        failures.append((f"{label}: raised {type(exc).__name__}: {exc}", rerun))
    elapsed = time.perf_counter() - start
    lines = tuple(f"{text}; replay: {shlex.join(['boxpaths', *map(str, argv)])}"
                  for text, argv in failures)
    text = params if isinstance(params, str) else params(ctx)
    return CheckRecord(name, suite, text, cases, lines, elapsed)


def run_suite(suite: str = "all", max_k: int = 2, max_n: int = 4) -> VerificationReport:
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    ctx = _Ctx(max_k, max_n)
    records = [_run_check(ctx, *c) for c in _CHECKS if suite in ("all", c[0])]
    records.sort(key=lambda r: (SUITES.index(r.suite), r.name))
    return VerificationReport(suite, max_k, max_n, tuple(records))


def _count(k: int, n: int, stat: str = "", j: int | None = None) -> tuple:
    argv = ("count", "--k", k, "--n", n) + (("--stat", stat) if stat else ())
    return argv if j is None else argv + ("--j", j)


def _box(k: int, n: int, *fmt: str) -> tuple:
    return ("enumerate", "--family", "box", "--k", k, "--n", n, *fmt)


def _skew(m: int) -> tuple:
    return ("enumerate", "--family", "skew", "--n", m)


def _biject(k: int, to: str, p: paths.PathWord) -> tuple:
    return ("biject", "--k", k, "--to", to, p.word)


def _row(cell, k: int, n: int) -> list[int]:
    return [cell(k, n, j) for j in range(1, n + 1)]


def _moments(row: list[int]) -> tuple[tuple[int, int], Fraction, Fraction]:
    """A row's moment sums over j = 1..n, mean and variance (0 if empty)."""
    first = sum(j * c for j, c in enumerate(row, 1))
    second = sum(j * j * c for j, c in enumerate(row, 1))
    total = sum(row) or 1  # an empty row has zero moment sums
    mean = Fraction(first, total)
    return (first, second), mean, Fraction(second, total) - mean * mean


# ---------------------------------------------------------------- formulas


@_register("formulas", "box-count-forms", _Ctx.k_depth)
def _box_count_forms(ctx: _Ctx):
    for k, n in ctx.box_range(FORMULA_DEPTH):
        m = (k + 2) * n - 1
        direct = counting.exact_div((k + 1) * counting.binomial(m, n - 1), m)
        got = (counting.count_box(k, n), counting.fuss_catalan(k + 2, k + 1, n - 1))
        yield f"count_box, Fuss-Catalan ({k}, {n})", got, (direct,) * 2, _count(k, n)


@_register("formulas", "returns-row-sums", _Ctx.k_depth)
def _returns_row_sums(ctx: _Ctx):
    for k, n in ctx.box_range(FORMULA_DEPTH):
        total = sum(_row(counting.count_box_by_returns, k, n))
        want = counting.count_box(k, n)
        yield f"returns row sum ({k}, {n})", total, want, _count(k, n, "returns")


@_register("formulas", "long-ascent-row-sums", _Ctx.k_depth)
def _lasc_row_sums(ctx: _Ctx):
    for k, n in ctx.box_range(FORMULA_DEPTH):
        if (k, n) != (0, 1):  # the k = 0 size-1 row is empty by convention
            yield (f"long-ascent row sum ({k}, {n})",
                   sum(_row(counting.count_box_by_long_ascents, k, n)),
                   counting.count_box(k, n), _count(k, n, "long-ascents"))


@_register("formulas", "returns-monotonicity", _Ctx.k_depth)
def _returns_monotonicity(ctx: _Ctx):
    # row differences carry a factor (k+1)j - 2: rows decrease weakly from
    # j = 1 when k >= 1 (with a tie at k = 1, j = 1) and from j = 2 at k = 0
    for k, n in product(range(ctx.max_k + 1), range(2, FORMULA_DEPTH + 1)):
        f = _row(counting.count_box_by_returns, k, n)
        argv = _count(k, n, "returns")
        for j in range(1 if k else 2, n):
            yield f"f({k}, {n}, {j}) >= f(.., {j + 1})", f[j - 1] >= f[j], True, argv
        if k == 1:
            yield f"f(1, {n}, 1) = f(1, {n}, 2)", f[0], f[1], argv
        elif k:
            yield f"f({k}, {n}, 1) > f({k}, {n}, 2)", f[0] > f[1], True, argv
        else:
            yield f"f(0, {n}, 1): no claim, but a case", None, None, argv


@_register("formulas", "returns-moments", _Ctx.k_depth)
def _returns_moments(ctx: _Ctx):
    for k, n in ctx.box_range(FORMULA_DEPTH):
        _, *want = _moments(_row(counting.count_box_by_returns, k, n))
        got = [counting.returns_mean(k, n), counting.returns_variance(k, n)]
        yield f"returns mean, variance ({k}, {n})", got, want, _count(k, n, "returns")


@_register("formulas", "long-ascent-moments", _Ctx.k_depth)
def _lasc_moments(ctx: _Ctx):
    # the k = 0, n = 1 row is empty: its mean and variance are 0 by convention
    for k, n in ctx.box_range(FORMULA_DEPTH):
        want = _moments(_row(counting.count_box_by_long_ascents, k, n))
        got = (counting.lasc_moment_sums(k, n), counting.lasc_mean(k, n),
               counting.lasc_variance(k, n))
        yield (f"long-ascent moment sums, mean, variance ({k}, {n})", got, want,
               _count(k, n, "long-ascents"))


@_register("formulas", "narayana-specialization", f"n<={FORMULA_DEPTH}")
def _narayana(ctx: _Ctx):
    for n in range(2, FORMULA_DEPTH + 1):
        for j in range(1, n):
            yield (f"f(0, {n}, {j}) vs N({n - 1}, {j})",
                   counting.count_box_by_long_ascents(0, n, j),
                   counting.narayana(n - 1, j), _count(0, n, "long-ascents", j))


@_register("formulas", "second-gonal-column", f"3<=k<=8, n<={FORMULA_DEPTH}")
def _second_gonal(ctx: _Ctx):
    squares = [counting.second_gonal(4, n) for n in range(1, 8)]
    yield "second_gonal(4, 1..7)", squares, [n * n for n in range(1, 8)], None
    pentagonal = [counting.second_gonal(5, n) for n in range(1, 8)]
    yield "second_gonal(5, 1..7)", pentagonal, [2, 7, 15, 26, 40, 57, 77], None
    for k, n in product(range(3, 9), range(1, FORMULA_DEPTH + 1)):
        yield (f"second_gonal({k}, {n}) vs f({k - 3}, {n + 1}, 2)",
               counting.second_gonal(k, n),
               counting.count_box_by_long_ascents(k - 3, n + 1, 2),
               _count(k - 3, n + 1, "long-ascents", 2))


@_register("formulas", "long-ascent-diagonal", _Ctx.k_depth)
def _lasc_diagonal(ctx: _Ctx):
    for k, n in ctx.box_range(FORMULA_DEPTH):
        yield (f"f({k + 1}, {n}, {n}) vs count_box({k}, {n})",
               counting.count_box_by_long_ascents(k + 1, n, n),
               counting.count_box(k, n), _count(k + 1, n, "long-ascents", n))


@_register("formulas", "long-ascent-repeated-pairs",
           lambda ctx: f"k<={ctx.max_k}, rows (k+2)i-1")
def _lasc_repeated_pairs(ctx: _Ctx):
    f = counting.count_box_by_long_ascents
    for k, i in product(range(ctx.max_k + 1), range(1, 6)):
        n, j = (k + 2) * i - 1, (k + 1) * i
        yield (f"f({k}, {n}, {j - 1}) = f(.., {j})", f(k, n, j - 1), f(k, n, j),
               _count(k, n, "long-ascents"))


@_register("formulas", "long-ascent-log-concavity", _Ctx.k_depth)
def _lasc_log_concavity(ctx: _Ctx):
    for k, n in ctx.box_range(FORMULA_DEPTH):
        f = [0, *_row(counting.count_box_by_long_ascents, k, n)]
        for j in range(2, n):
            yield (f"f({k}, {n}, {j})^2 > f(.., {j - 1}) f(.., {j + 1})",
                   f[j] ** 2 > f[j - 1] * f[j + 1], True, _count(k, n, "long-ascents"))


@_register("formulas", "tailed-counts", _Ctx.k_depth)
def _tailed(ctx: _Ctx):
    for k in range(ctx.max_k + 1):
        for n in range(1, FORMULA_DEPTH + 1):
            prop = counting.tailed_proportion(k, n)
            form = Fraction(math.perm((k + 1) * n, k), math.perm((k + 2) * n - 2, k))
            yield (f"tailed proportion, count ({k}, {n})",
                   (prop, counting.count_tailed(k, n)),
                   (form / (k + 1), prop * counting.count_box(k, n)), _count(k, n))
        limit = counting.tailed_proportion_limit(k)
        gaps = [abs(counting.tailed_proportion(k, n) - limit) for n in (5, 10, 20)]
        yield (f"tailed proportion's gaps to {limit} at n = 5, 10, 20 (k={k})",
               gaps, sorted(gaps, reverse=True), None)


@_register("formulas", "kt-dyck-counts", _Ctx.k_depth)
def _kt_dyck_counts(ctx: _Ctx):
    for k, n in ctx.box_range(FORMULA_DEPTH):
        got = counting.count_kt_dyck(k + 1, k, n - 1)
        want = counting.count_box(k, n)
        yield f"count_kt_dyck({k + 1}, {k}, {n - 1})", got, want, _count(k, n)
    for k, n in product(range(1, ctx.max_k + 2), range(8)):
        yield (f"count_kt_dyck({k}, 0, {n})", counting.count_kt_dyck(k, 0, n),
               counting.fuss_catalan(k + 1, 1, n), None)


@_register("formulas", "catalan-specialization", f"n<={FORMULA_DEPTH}")
def _catalan_specialization(ctx: _Ctx):
    for n in range(1, FORMULA_DEPTH + 1):
        yield (f"count_box(0, {n}) vs catalan({n - 1})", counting.count_box(0, n),
               counting.catalan(n - 1), _count(0, n))


# -------------------------------------------------------------- bijections


@_register("bijections", "skew-generator", f"semilength<={len(SKEW_COUNTS) - 3}")
def _skew_generator(ctx: _Ctx):
    for m in range(len(SKEW_COUNTS) - 2):
        words = list(paths.skew_dyck_words(m))
        valid = all(paths.classify(paths.PathWord(w)).skew_dyck for w in words)
        got = (len(words), len(set(words)), words == sorted(words, key=_LEX), valid)
        yield (f"skew paths of semilength {m}: count, distinct, lex order, valid",
               got, (SKEW_COUNTS[m], SKEW_COUNTS[m], True, True), _skew(m))


@_register("bijections", "box-generator", _Ctx.k_n)
def _box_generator(ctx: _Ctx):
    for k, n in ctx.box_range():
        words = [p.word for p in ctx.box(k, n)]
        families = {paths.classify(p, k).family() for p in ctx.box(k, n)}
        inside = families <= {f"KBox({k}, {n})", f"TailedKBox({k}, {n})"}
        got = (len(words), len(set(words)), words == sorted(words, key=_LEX), inside)
        yield (f"box paths ({k}, {n}): count, distinct, lex order, family", got,
               (counting.count_box(k, n),) * 2 + (True, True), _box(k, n))


@_register("bijections", "family-minimality",
           lambda ctx: f"k in 1..{min(2, ctx.max_k)}, n<={min(3, ctx.max_n)}")
def _family_minimality(ctx: _Ctx):
    # below semilength (k+2)n - 1 no skew path carries n U D^k L-factors,
    # and at it the carriers are exactly the k-box paths
    top_k, top_n = min(2, ctx.max_k), min(3, ctx.max_n)
    buckets = {k: {} for k in range(1, top_k + 1)}  # one per factor
    for k, n in product(range(1, top_k + 1), range(1, top_n + 1)):
        factor, m_box = "U" + "D" * k + "L", (k + 2) * n - 1
        for m in range(1, m_box + 1):
            carriers = _carriers(m, factor, n, buckets[k])
            if carriers:
                break
        yield (f"lowest semilength with {n} {factor}-factors, its carriers",
               (m, carriers), (m_box, {p.word for p in ctx.box(k, n)}), _skew(m))


def _carriers(m: int, factor: str, n: int, buckets: dict | None = None
              ) -> set[str]:
    """The skew words of semilength m with exactly n factors U D^k L,
    counted over every word of paths.skew_dyck_parts.

    Each word is a head and a tail, and U D^k L cannot overlap itself, so
    its count is head'.count(factor) + (s + tail).count(factor), where s
    is the head's trailing U D^a with a <= k, or empty, and head' the head
    without s: s is the only part of a factor that can cross the split.
    A head's tails are one of the skew table's entries, shared by many
    heads, so for each distinct tails and s the tails are bucketed once,
    on first use, by that count; a head then adds the bucket of n less its
    own count.  A bucket depends on the tails and s alone, so a caller may
    pass one buckets dict to every call with the same factor, whatever m
    and n; else the call builds its own.  Each bucket keeps its tails, so
    no id is reused while the dict lives.
    """
    k = len(factor) - 2
    carriers = set()
    if buckets is None:
        buckets = {}
    for head, tails in paths.skew_dyck_parts(m):
        stem = head.rstrip("D")
        if stem.endswith("U") and len(head) - len(stem) <= k:
            rest, s = stem[:-1], head[len(stem) - 1:]
        else:
            rest, s = head, ""
        need = n - rest.count(factor)
        if need < 0:
            continue
        key = (id(tails), s)
        if key not in buckets:
            by_count = {}
            for tail in tails:
                by_count.setdefault((s + tail).count(factor), []).append(tail)
            buckets[key] = tails, by_count
        _, by_count = buckets[key]
        carriers.update(map(head.__add__, by_count.get(need, ())))
    return carriers


@_register("bijections", "dyck-convention", lambda ctx: f"n<={ctx.max_n}")
def _dyck_convention(ctx: _Ctx):
    # size-n 0-box paths are by convention the Dyck paths of semilength n-1,
    # read off the full skew walk, not the L-free one the generator takes
    for n in range(1, ctx.max_n + 1):
        got = {p.word for p in ctx.box(0, n)}
        want = {w for w in paths.skew_dyck_words(n - 1) if "L" not in w}
        yield (f"0-box paths of size {n}, their count", (got, len(got)),
               (want, counting.count_box(0, n)), _box(0, n))


@_register("bijections", "histogram-returns", _Ctx.k_n)
def _histogram_returns(ctx: _Ctx):
    for k, n in ctx.box_range():
        hist = Counter(paths.box_return_count(p, k) for p in ctx.box(k, n))
        for j in range(1, n + 1):
            yield (f"paths ({k}, {n}) with {j} returns", hist[j],
                   counting.count_box_by_returns(k, n, j), _count(k, n, "returns", j))
        yield (f"return counts outside 1..{n} ({k}, {n})",
               set(hist) - set(range(1, n + 1)), set(), _box(k, n))


@_register("bijections", "histogram-long-ascents", _Ctx.k_n)
def _histogram_long_ascents(ctx: _Ctx):
    for k, n in ctx.box_range():
        hist = Counter(paths.box_long_ascent_count(p, k) for p in ctx.box(k, n))
        for j in range(0 if k == 0 else 1, n + 1 if k or n == 1 else n):
            if j == 0 or (k, n) == (0, 1):
                want = int((k, n, j) == (0, 1, 0))  # only the size-1 0-box path
            else:
                want = counting.count_box_by_long_ascents(k, n, j)
            yield (f"paths ({k}, {n}) with {j} long ascents", hist[j], want,
                   _count(k, n, "long-ascents", j))


@_register("bijections", "tailed-filter", _Ctx.k_n)
def _tailed_filter(ctx: _Ctx):
    for k, n in ctx.box_range():
        got = sum(1 for p in ctx.box(k, n) if paths.classify(p, k).tailed)
        yield f"tailed paths ({k}, {n})", got, counting.count_tailed(k, n), _box(k, n)


@_register("bijections", "composition-roundtrip",
           lambda ctx: f"1<=k<={ctx.max_k}, n<={ctx.max_n}")
def _composition_roundtrip(ctx: _Ctx):
    for k, n, p in ctx.box_paths():
        if k == 0:
            continue
        c = paths.composition_of(p, k)
        got = (paths.path_of_composition(c).word, c.parts)
        yield (f"{p.word!r} (k={k}): round trip, parts", got,
               (p.word, paths.box_ascents(p, k)),
               _box(k, n, "--format", "compositions"))


@_register("bijections", "decomposition-roundtrip", _Ctx.k_n)
def _decomposition_roundtrip(ctx: _Ctx):
    for k, n, p in ctx.box_paths():
        dec = bijections.decompose_box(p, k)
        size = n - 1
        if k:
            sizes = [paths.classify(q, k + 1).augmented_size for q in dec.parts]
            size = None if None in sizes else sum(sizes)
        got = (bijections.compose_box(dec).word, len(dec.parts), size)
        yield (f"{p.word!r} (k={k}): round trip, parts, their size", got,
               (p.word, k + 1, n - 1), _biject(k, "decomposition", p))


@_register("bijections", "tree-tuple-roundtrip", _Ctx.k_n)
def _tree_tuple_roundtrip(ctx: _Ctx):
    for k, n in ctx.box_range():
        seen = set()
        for p in ctx.box(k, n):
            tup = bijections.box_to_tree_tuple(p, k)
            seen.add(str(tup))
            got = (bijections.tree_tuple_to_box(tup, k).word, len(tup.trees),
                   {t.arity for t in tup.trees}, tup.total_nodes)
            yield (f"{p.word!r} (k={k}): round trip, trees, arities, nodes", got,
                   (p.word, k + 1, {k + 2}, n - 1), _biject(k, "trees", p))
        yield f"distinct tree tuples ({k}, {n})", len(seen), len(ctx.box(k, n)), None


@_register("bijections", "kt-dyck-roundtrip", _Ctx.k_n)
def _kt_dyck_roundtrip(ctx: _Ctx):
    for k, n, p in ctx.box_paths():
        q = bijections.box_to_kt_dyck(p, k)
        got = (bijections.kt_dyck_to_box(q).word, q.k, q.t, q.size)
        yield (f"{p.word!r} (k={k}) via {q.word!r}: round trip, k, t, size", got,
               (p.word, k + 1, k, n - 1), _biject(k, "ktdyck", p))


@_register("bijections", "threshold-roundtrip", _Ctx.k_n)
def _threshold_roundtrip(ctx: _Ctx):
    for k, n, p in ctx.box_paths():
        s = bijections.box_to_threshold(p, k)
        # entry bounds are enforced by the ThresholdSequence constructor
        got = (bijections.threshold_to_box(s).word, s.k, s.slack, len(s.entries))
        yield (f"{p.word!r} (k={k}) via {str(s)!r}: round trip, k, slack, length",
               got, (p.word, k + 2, k, n - 1), _biject(k, "threshold", p))


@_register("bijections", "return-injection", _Ctx.k_n)
def _return_injection(ctx: _Ctx):
    # injective from j+1 returns into j returns for every j; onto at j = 1
    # when k <= 1 (k >= 2 images at j = 1 form a strict subset)
    for k, n in ctx.box_range():
        groups: dict[int, list[paths.PathWord]] = {}
        for p in ctx.box(k, n):
            groups.setdefault(paths.box_return_count(p, k), []).append(p)
        for j in sorted(j for j in groups if j >= 2):
            images: dict[paths.PathWord, paths.PathWord] = {}
            for p in groups[j]:
                try:
                    q = bijections.return_injection(p, k)
                except paths.InvalidPathError:
                    # only the degenerate k = 0 two-return case may refuse
                    yield f"(k, j) of the refused {p.word!r}", (k, j), (0, 2), None
                    continue
                got = (paths.box_return_count(q, k), images.setdefault(q, p),
                       bijections.invert_return_injection(q, k))
                yield (f"{p.word!r} (k={k}) to {q.word!r}: returns, first "
                       f"preimage, inverse", got, (j - 1, p, p), None)
            if j == 2 and k == 1:
                yield (f"images vs paths with 1 return (1, {n})", len(images),
                       len(groups.get(1, [])), _count(k, n, "returns"))


@_register("bijections", "embed-all-long",
           lambda ctx: f"k<{ctx.max_k}, n<={ctx.max_n}" if ctx.max_k else "empty")
def _embed_all_long(ctx: _Ctx):
    # the image of the k -> k+1 embedding is exactly the set of (k+1)-box
    # paths all of whose ascents are long
    for k, n in product(range(ctx.max_k), range(1, ctx.max_n + 1)):
        images = {bijections.embed_all_long(p, k).word for p in ctx.box(k, n)}
        target = {p.word for p in ctx.box(k + 1, n)
                  if min(bijections.box_ascents(p, k + 1)) >= 2}
        yield (f"all-long embedding ({k}, {n}): distinct images, image",
               (len(images), images), (len(ctx.box(k, n)), target), _box(k + 1, n))


@_register("bijections", "tree-generator",
           lambda ctx: f"arity<={ctx.max_k + 2}, n<={ctx.max_n}")
def _tree_generator(ctx: _Ctx):
    for arity, n in product(range(2, ctx.max_k + 3), range(ctx.max_n + 1)):
        forest = list(trees.generate_trees(arity, n))
        got = (len(forest), len({str(t) for t in forest}))
        yield (f"generate_trees({arity}, {n}): trees, distinct", got,
               (counting.fuss_catalan(arity, 1, n),) * 2, None)


@_register("bijections", "tree-kdyck-roundtrip",
           lambda ctx: f"arity<={ctx.max_k + 2}, n<={ctx.max_n}")
def _tree_kdyck_roundtrip(ctx: _Ctx):
    for arity, n in product(range(2, ctx.max_k + 3), range(ctx.max_n + 1)):
        for tr in trees.generate_trees(arity, n):
            # checked, as the generator builds its trees unchecked
            q = trees.KDyckPath(arity - 1, trees.tree_to_kdyck(tr).word)
            yield (f"{q.word!r} (arity {arity}): round trip, k, size",
                   (trees.kdyck_to_tree(q), q.k, q.size), (tr, arity - 1, n), None)


@_register("bijections", "augmented-roundtrip",
           lambda ctx: f"2<=k<={max(ctx.max_k + 1, 2)}, size<={ctx.max_n}")
def _augmented_roundtrip(ctx: _Ctx):
    for k, n in product(range(2, max(ctx.max_k + 2, 3)), range(ctx.max_n + 1)):
        for tr in trees.generate_trees(k + 1, n):
            q = trees.tree_to_kdyck(tr)
            aug = trees.kdyck_to_augmented(q)
            cls = paths.classify(aug, k)
            got = (trees.augmented_to_kdyck(aug, k), cls.augmented_size, cls.skew_dyck)
            yield (f"{q.word!r} (k={k}) via {aug.word!r}: round trip, size, skew",
                   got, (q, n, True), None)


# ------------------------------------------------------------------ series


def _integral(s: series.BiSeries) -> bool:
    return all(type(c) is int for row in s.coeffs for c in row)


@_register("series", "skew-equation", lambda ctx: f"orders {ctx.orders}")
def _skew_equation(ctx: _Ctx):
    T, X = ctx.orders
    R = series.solve_skew_dyck_series(T, X)
    yield "R's residual is zero", series.skew_equation_residual(R).is_zero(), True, None
    yield "R's coefficients are integers", _integral(R), True, None
    for n in range(1, (X + 1) // 3 + 1):
        direct = counting.exact_div(counting.binomial(3 * n - 1, n), 3 * n - 1)
        yield (f"[t^{n} x^{3 * n - 1}] R, direct form",
               (R.coefficient(n, 3 * n - 1), direct),
               (counting.count_box(1, n),) * 2, _count(1, n))
    for m in range(min(X, len(SKEW_COUNTS) - 1) + 1):
        total = sum(R.coefficient(j, m) for j in range(T + 1))
        yield f"t=1 column of R at x^{m}", total, SKEW_COUNTS[m], _skew(m)


@_register("series", "skew-recurrence", lambda ctx: f"orders {ctx.orders}")
def _skew_recurrence(ctx: _Ctx):
    # the t = 1 sums a(n) of R are A002212, which satisfies
    # (n+1) a(n) = 3(2n-1) a(n-1) - 5(n-2) a(n-2), a recurrence derived
    # apart from the cubic the solver uses; column n of R has t-degree
    # (n+1)//3, so its sum is whole while that is at most T
    T, X = ctx.orders
    R = series.solve_skew_dyck_series(T, X)
    a = [sum(R.coefficient(j, m) for j in range(T + 1)) for m in range(X + 1)]
    for n in range(2, X + 1):
        if (n + 1) // 3 <= T:
            yield (f"(n+1) a(n) vs 3(2n-1) a(n-1) - 5(n-2) a(n-2) at n={n}",
                   (n + 1) * a[n], 3 * (2 * n - 1) * a[n - 1] - 5 * (n - 2) * a[n - 2],
                   ("bfile", "--sequence", "skew-counts", "--count", n))


@_register("series", "tree-equation",
           lambda ctx: f"arity<={ctx.max_k + 2}, x^<={ctx.orders[1]}")
def _tree_equation(ctx: _Ctx):
    for k in range(2, ctx.max_k + 3):
        C = series.tree_series(k, ctx.orders[1])
        yield (f"tree series (arity {k}) leaves no residual",
               series.tree_equation_residual(C, k).is_zero(), True, None)
        for r in range(1, 4):
            power = C ** r
            for n in range(ctx.orders[1] + 1):
                yield (f"[x^{n}] C_{k}^{r} vs Fuss-Catalan({k}, {r}, {n})",
                       power.coefficient(0, n), counting.fuss_catalan(k, r, n), None)


@_register("series", "augmented-equation",
           lambda ctx: f"k<={ctx.max_k + 1}, orders {ctx.orders}")
def _augmented_equation(ctx: _Ctx):
    T, X = ctx.orders
    for k in range(1, ctx.max_k + 2):
        G = series.augmented_long_ascent_series(k, T, X)
        yield (f"augmented series (k={k}) leaves no residual",
               series.augmented_long_ascent_residual(G, k).is_zero(), True, None)
        # at t = 1 the equation collapses to the (k+1)-ary tree equation;
        # j never exceeds n, so the column is exact only up to n = T
        for n in range(T + 1):
            yield (f"t=1 column of the augmented series (k={k}) at x^{n}",
                   sum(G.coefficient(j, n) for j in range(T + 1)),
                   counting.fuss_catalan(k + 1, 1, n), None)


@_register("series", "long-ascent-series",
           lambda ctx: f"k<={ctx.max_k}, orders {ctx.orders}")
def _long_ascent_series(ctx: _Ctx):
    T, X = ctx.orders
    for k in range(ctx.max_k + 1):
        F = series.long_ascent_series(k, T, X)
        G = series.augmented_long_ascent_series(k + 1, T, X)
        yield (f"long-ascent series (k={k}) matches its product form",
               series.long_ascent_residual(F, G, k).is_zero(), True, None)
        yield f"long-ascent series (k={k}) is integral", _integral(F), True, None
        # the series tags the unique size-1 path with t^1 even at k = 0,
        # where the empty Dyck word has no ascent at all; the statistic-side
        # row is empty by convention, so n starts at 2 there
        for n in range(2 if k == 0 else 1, X + 1):
            for j in range(1, min(n, T) + 1):
                yield (f"[t^{j} x^{n}] long-ascent series (k={k})",
                       F.coefficient(j, n), counting.count_box_by_long_ascents(k, n, j),
                       _count(k, n, "long-ascents", j))


@_register("series", "returns-series",
           lambda ctx: f"k<={ctx.max_k}, orders {ctx.orders}")
def _returns_series(ctx: _Ctx):
    T, X = ctx.orders
    for k in range(ctx.max_k + 1):
        H = series.returns_series(k, T, X)
        C = series.tree_series(k + 2, X, T)
        yield (f"returns series (k={k}) satisfies its closed form",
               series.returns_residual(H, C, k).is_zero(), True, None)
        yield f"returns series (k={k}) is integral", _integral(H), True, None
        for n in range(1, X + 1):
            for j in range(1, min(n, T) + 1):
                yield (f"[t^{j} x^{n}] returns series (k={k})", H.coefficient(j, n),
                       counting.count_box_by_returns(k, n, j),
                       _count(k, n, "returns", j))
