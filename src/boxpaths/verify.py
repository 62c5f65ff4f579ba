"""Cross-checking harness for the whole package.

Every check re-derives one family of facts in two independent ways (closed
form against brute force, a map against its inverse, a series against the
counting formulas) and collects concrete counterexamples.  Each failure
message ends with a CLI command that replays the offending computation.

Checks reach sibling modules through the module objects, never through
names bound at import time, so a fault injected by rebinding, say,
``counting.count_box_by_returns`` is visible to every check that uses it.
Checks are pure functions of (max_k, max_n) and independent of each other;
they run sequentially here, and records are merged in a fixed order by
suite and check name.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable, Iterator

from . import bijections, counting, paths, series, trees

# step order used by the generators; Python's string order would put D first
_STEP_RANK = {"U": 0, "D": 1, "L": 2}


def _lex_key(word: str) -> list[int]:
    return [_STEP_RANK[c] for c in word]

SUITES = ("formulas", "bijections", "series")

# Skew Dyck path counts by semilength 0..8.  Anchor constants: the
# brute-force generator and the t = 1 series column are both compared
# against this list rather than against each other.
SKEW_COUNTS = (1, 1, 3, 10, 36, 137, 543, 2219, 9285)

# Formula identities are cheap, so the formulas suite always runs them to
# this depth regardless of max_n (which scales the exhaustive suites).
FORMULA_DEPTH = 20


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
        self.max_k = max_k
        self.max_n = max_n
        self._box: dict[tuple[int, int], tuple[paths.PathWord, ...]] = {}

    def box(self, k: int, n: int) -> tuple[paths.PathWord, ...]:
        if (k, n) not in self._box:
            self._box[(k, n)] = tuple(paths.generate_k_box(k, n))
        return self._box[(k, n)]

    def box_range(self) -> Iterator[tuple[int, int]]:
        for k in range(self.max_k + 1):
            for n in range(1, self.max_n + 1):
                yield k, n


_Check = Callable[[_Ctx], tuple[str, int, list[str]]]
_CHECKS: list[tuple[str, str, _Check]] = []


def _register(suite: str, name: str):
    def wrap(fn: _Check) -> _Check:
        _CHECKS.append((suite, name, fn))
        return fn

    return wrap


def run_suite(suite: str = "all", max_k: int = 2, max_n: int = 4) -> VerificationReport:
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    if max_k < 0:
        raise ValueError("max_k must be >= 0")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    ctx = _Ctx(max_k, max_n)
    records = []
    for suite_name, name, fn in _CHECKS:
        if suite != "all" and suite_name != suite:
            continue
        start = time.perf_counter()
        params, cases, failures = fn(ctx)
        elapsed = time.perf_counter() - start
        records.append(CheckRecord(name, suite_name, params, cases,
                                   tuple(failures), elapsed))
    records.sort(key=lambda r: (SUITES.index(r.suite), r.name))
    return VerificationReport(suite, max_k, max_n, tuple(records))


# ---------------------------------------------------------------- formulas


@_register("formulas", "box-count-forms")
def _box_count_forms(ctx: _Ctx):
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        for n in range(1, FORMULA_DEPTH + 1):
            cases += 1
            got = counting.count_box(k, n)
            m = (k + 2) * n - 1
            want = counting.exact_div((k + 1) * counting.binomial(m, n - 1), m)
            fc = counting.fuss_catalan(k + 2, k + 1, n - 1)
            if got != want or got != fc:
                bad.append(
                    f"count_box({k}, {n}) = {got}, direct form {want}, "
                    f"Fuss-Catalan {fc}; replay: boxpaths count --k {k} --n {n}"
                )
    return f"k<={ctx.max_k}, n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "returns-row-sums")
def _returns_row_sums(ctx: _Ctx):
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        for n in range(1, FORMULA_DEPTH + 1):
            cases += 1
            total = sum(counting.count_box_by_returns(k, n, j) for j in range(1, n + 1))
            want = counting.count_box(k, n)
            if total != want:
                bad.append(
                    f"returns row (k={k}, n={n}) sums to {total}, count_box gives "
                    f"{want}; replay: boxpaths count --k {k} --n {n} --stat returns"
                )
    return f"k<={ctx.max_k}, n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "long-ascent-row-sums")
def _lasc_row_sums(ctx: _Ctx):
    # the k = 0 size-1 row is empty by convention, so start at n = 2 there
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        for n in range(2 if k == 0 else 1, FORMULA_DEPTH + 1):
            cases += 1
            total = sum(
                counting.count_box_by_long_ascents(k, n, j) for j in range(1, n + 1)
            )
            want = counting.count_box(k, n)
            if total != want:
                bad.append(
                    f"long-ascent row (k={k}, n={n}) sums to {total}, count_box "
                    f"gives {want}; replay: boxpaths count --k {k} --n {n} "
                    f"--stat long-ascents"
                )
    return f"k<={ctx.max_k}, n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "returns-monotonicity")
def _returns_monotonicity(ctx: _Ctx):
    # row differences carry a factor (k+1)j - 2: rows decrease weakly from
    # j = 1 when k >= 1 (with a tie at k = 1, j = 1) and from j = 2 at k = 0
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        for n in range(2, FORMULA_DEPTH + 1):
            row = [counting.count_box_by_returns(k, n, j) for j in range(1, n + 1)]
            start = 0 if k >= 1 else 1
            for a, b in zip(row[start:], row[start + 1:]):
                cases += 1
                if a < b:
                    bad.append(
                        f"returns row (k={k}, n={n}) increases: {row}; "
                        f"replay: boxpaths count --k {k} --n {n} --stat returns"
                    )
                    break
            cases += 1
            if k == 1 and row[0] != row[1]:
                bad.append(
                    f"expected f(1, {n}, 1) = f(1, {n}, 2), row {row}; "
                    f"replay: boxpaths count --k 1 --n {n} --stat returns"
                )
            if k >= 2 and n >= 2 and row[0] <= row[1]:
                bad.append(
                    f"expected f({k}, {n}, 1) > f({k}, {n}, 2), row {row}; "
                    f"replay: boxpaths count --k {k} --n {n} --stat returns"
                )
    return f"k<={ctx.max_k}, n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "returns-moments")
def _returns_moments(ctx: _Ctx):
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        for n in range(1, FORMULA_DEPTH + 1):
            cases += 1
            row = [counting.count_box_by_returns(k, n, j) for j in range(1, n + 1)]
            total = sum(row)
            mean = Fraction(sum(j * c for j, c in enumerate(row, 1)), total)
            second = Fraction(sum(j * j * c for j, c in enumerate(row, 1)), total)
            var = second - mean * mean
            if counting.returns_mean(k, n) != mean or counting.returns_variance(k, n) != var:
                bad.append(
                    f"returns moments (k={k}, n={n}): closed form "
                    f"({counting.returns_mean(k, n)}, {counting.returns_variance(k, n)}) "
                    f"vs distribution ({mean}, {var}); "
                    f"replay: boxpaths count --k {k} --n {n} --stat returns"
                )
    return f"k<={ctx.max_k}, n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "long-ascent-moments")
def _lasc_moments(ctx: _Ctx):
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        for n in range(1, FORMULA_DEPTH + 1):
            cases += 1
            row = [
                counting.count_box_by_long_ascents(k, n, j) for j in range(1, n + 1)
            ]
            first = sum(j * c for j, c in enumerate(row, 1))
            second = sum(j * j * c for j, c in enumerate(row, 1))
            if counting.lasc_moment_sums(k, n) != (first, second):
                bad.append(
                    f"long-ascent moment sums (k={k}, n={n}): closed form "
                    f"{counting.lasc_moment_sums(k, n)} vs row sums "
                    f"({first}, {second}); replay: boxpaths count --k {k} --n {n} "
                    f"--stat long-ascents"
                )
                continue
            total = sum(row)
            if total == 0:
                # only the k = 0, n = 1 row; mean/variance pinned by convention
                ok = counting.lasc_mean(k, n) == 0 and counting.lasc_variance(k, n) == 0
            else:
                mean = Fraction(first, total)
                var = Fraction(second, total) - mean * mean
                ok = (
                    counting.lasc_mean(k, n) == mean
                    and counting.lasc_variance(k, n) == var
                )
            if not ok:
                bad.append(
                    f"long-ascent moments (k={k}, n={n}) disagree with the row; "
                    f"replay: boxpaths count --k {k} --n {n} --stat long-ascents"
                )
    return f"k<={ctx.max_k}, n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "narayana-specialization")
def _narayana(ctx: _Ctx):
    bad, cases = [], 0
    for n in range(2, FORMULA_DEPTH + 1):
        for j in range(1, n):
            cases += 1
            got = counting.count_box_by_long_ascents(0, n, j)
            want = counting.narayana(n - 1, j)
            if got != want:
                bad.append(
                    f"f(0, {n}, {j}) = {got} but Narayana N({n - 1}, {j}) = {want}; "
                    f"replay: boxpaths count --k 0 --n {n} --stat long-ascents --j {j}"
                )
    return f"n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "second-gonal-column")
def _second_gonal(ctx: _Ctx):
    bad, cases = [], 0
    squares = [counting.second_gonal(4, n) for n in range(1, 8)]
    pentagonal = [counting.second_gonal(5, n) for n in range(1, 8)]
    cases += 2
    if squares != [n * n for n in range(1, 8)]:
        bad.append(f"second_gonal(4, .) is not the squares: {squares}")
    if pentagonal != [2, 7, 15, 26, 40, 57, 77]:
        bad.append(f"second_gonal(5, .) is off: {pentagonal}")
    for k in range(3, 9):
        for n in range(1, FORMULA_DEPTH + 1):
            cases += 1
            got = counting.second_gonal(k, n)
            want = counting.count_box_by_long_ascents(k - 3, n + 1, 2)
            if got != want:
                bad.append(
                    f"second_gonal({k}, {n}) = {got} but f({k - 3}, {n + 1}, 2) = "
                    f"{want}; replay: boxpaths count --k {k - 3} --n {n + 1} "
                    f"--stat long-ascents --j 2"
                )
    return f"3<=k<=8, n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "long-ascent-diagonal")
def _lasc_diagonal(ctx: _Ctx):
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        for n in range(1, FORMULA_DEPTH + 1):
            cases += 1
            got = counting.count_box_by_long_ascents(k + 1, n, n)
            want = counting.count_box(k, n)
            if got != want:
                bad.append(
                    f"f({k + 1}, {n}, {n}) = {got} but count_box({k}, {n}) = {want}; "
                    f"replay: boxpaths count --k {k + 1} --n {n} "
                    f"--stat long-ascents --j {n}"
                )
    return f"k<={ctx.max_k}, n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "long-ascent-repeated-pairs")
def _lasc_repeated_pairs(ctx: _Ctx):
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        for i in range(1, 6):
            n = (k + 2) * i - 1
            if n < 1:
                continue
            cases += 1
            a = counting.count_box_by_long_ascents(k, n, (k + 1) * i - 1)
            b = counting.count_box_by_long_ascents(k, n, (k + 1) * i)
            if a != b:
                bad.append(
                    f"expected a repeated pair in row (k={k}, n={n}) at "
                    f"j={(k + 1) * i - 1},{(k + 1) * i}: {a} vs {b}; "
                    f"replay: boxpaths count --k {k} --n {n} --stat long-ascents"
                )
    return f"k<={ctx.max_k}, rows (k+2)i-1", cases, bad


@_register("formulas", "long-ascent-log-concavity")
def _lasc_log_concavity(ctx: _Ctx):
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        for n in range(3, FORMULA_DEPTH + 1):
            for j in range(2, n):
                cases += 1
                f = counting.count_box_by_long_ascents
                if f(k, n, j) ** 2 <= f(k, n, j - 1) * f(k, n, j + 1):
                    bad.append(
                        f"long-ascent row (k={k}, n={n}) not strictly log-concave "
                        f"at j={j}; replay: boxpaths count --k {k} --n {n} "
                        f"--stat long-ascents"
                    )
    return f"k<={ctx.max_k}, n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "tailed-counts")
def _tailed(ctx: _Ctx):
    def falling(a, m):
        out = 1
        for i in range(m):
            out *= a - i
        return out

    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        for n in range(1, FORMULA_DEPTH + 1):
            cases += 1
            prop = counting.tailed_proportion(k, n)
            want = Fraction(
                falling((k + 1) * n, k), (k + 1) * falling((k + 2) * n - 2, k)
            )
            consistent = (
                counting.count_tailed(k, n) == prop * counting.count_box(k, n)
            )
            if prop != want or not consistent:
                bad.append(
                    f"tailed count/proportion mismatch at (k={k}, n={n}); "
                    f"replay: boxpaths count --k {k} --n {n}"
                )
        cases += 1
        limit = counting.tailed_proportion_limit(k)
        gaps = [abs(counting.tailed_proportion(k, n) - limit) for n in (5, 10, 20)]
        if not gaps[0] >= gaps[1] >= gaps[2]:
            bad.append(f"tailed proportion (k={k}) does not approach {limit}: {gaps}")
    return f"k<={ctx.max_k}, n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "kt-dyck-counts")
def _kt_dyck_counts(ctx: _Ctx):
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        for n in range(1, FORMULA_DEPTH + 1):
            cases += 1
            got = counting.count_kt_dyck(k + 1, k, n - 1)
            want = counting.count_box(k, n)
            if got != want:
                bad.append(
                    f"count_kt_dyck({k + 1}, {k}, {n - 1}) = {got} but "
                    f"count_box({k}, {n}) = {want}; "
                    f"replay: boxpaths count --k {k} --n {n}"
                )
    for k in range(1, ctx.max_k + 2):
        for n in range(8):
            cases += 1
            if counting.count_kt_dyck(k, 0, n) != counting.fuss_catalan(k + 1, 1, n):
                bad.append(f"count_kt_dyck({k}, 0, {n}) is not Fuss-Catalan")
    return f"k<={ctx.max_k}, n<={FORMULA_DEPTH}", cases, bad


@_register("formulas", "catalan-specialization")
def _catalan_specialization(ctx: _Ctx):
    bad, cases = [], 0
    for n in range(1, FORMULA_DEPTH + 1):
        cases += 1
        if counting.count_box(0, n) != counting.catalan(n - 1):
            bad.append(
                f"count_box(0, {n}) != catalan({n - 1}); "
                f"replay: boxpaths count --k 0 --n {n}"
            )
    return f"n<={FORMULA_DEPTH}", cases, bad


# -------------------------------------------------------------- bijections


@_register("bijections", "skew-generator")
def _skew_generator(ctx: _Ctx):
    bad, cases = [], 0
    for m in range(len(SKEW_COUNTS) - 2):
        cases += 1
        words = [p.word for p in paths.generate_skew_dyck(m)]
        valid = all(paths.classify(paths.PathWord(w)).skew_dyck for w in words)
        if (
            len(words) != SKEW_COUNTS[m]
            or len(set(words)) != len(words)
            or words != sorted(words, key=_lex_key)
            or not valid
        ):
            bad.append(
                f"skew generator wrong at semilength {m}: {len(words)} words, "
                f"expected {SKEW_COUNTS[m]} distinct in lex order; "
                f"replay: boxpaths enumerate --family skew --n {m}"
            )
    return f"semilength<={len(SKEW_COUNTS) - 3}", cases, bad


@_register("bijections", "box-generator")
def _box_generator(ctx: _Ctx):
    bad, cases = [], 0
    for k, n in ctx.box_range():
        cases += 1
        words = [p.word for p in ctx.box(k, n)]
        families = {paths.classify(p, k).family() for p in ctx.box(k, n)}
        want = {f"KBox({k}, {n})", f"TailedKBox({k}, {n})"}
        if (
            len(words) != counting.count_box(k, n)
            or len(set(words)) != len(words)
            or words != sorted(words, key=_lex_key)
            or not families <= want
        ):
            bad.append(
                f"box generator wrong at (k={k}, n={n}): {len(words)} words of "
                f"families {sorted(families)}; "
                f"replay: boxpaths enumerate --family box --k {k} --n {n}"
            )
    return f"k<={ctx.max_k}, n<={ctx.max_n}", cases, bad


def _skew_words(m: int) -> Iterator[str]:
    # the words of the skew paths of semilength m, read in C
    return map(attrgetter("word"), paths.generate_skew_dyck(m))


@_register("bijections", "family-minimality")
def _family_minimality(ctx: _Ctx):
    # below semilength (k+2)n - 1 no skew path carries n U D^k L-factors,
    # and at it the carriers are exactly the k-box paths
    bad, cases = [], 0
    top_n = min(3, ctx.max_n)
    for k in range(1, min(2, ctx.max_k) + 1):
        for n in range(1, top_n + 1):
            cases += 1
            factor = "U" + "D" * k + "L"
            m_box = (k + 2) * n - 1
            for m in range(1, m_box):
                hit = next(
                    (w for w in _skew_words(m) if w.count(factor) == n),
                    None,
                )
                if hit is not None:
                    bad.append(
                        f"{hit} has {n} {factor}-factors at semilength {m} "
                        f"< {m_box}; replay: boxpaths enumerate --family skew --n {m}"
                    )
            at_bound = {w for w in _skew_words(m_box) if w.count(factor) == n}
            if at_bound != {p.word for p in ctx.box(k, n)}:
                bad.append(
                    f"carriers at semilength {m_box} differ from the box family "
                    f"(k={k}, n={n}); replay: boxpaths enumerate --family box "
                    f"--k {k} --n {n}"
                )
    return f"k in 1..{min(2, ctx.max_k)}, n<={top_n}", cases, bad


@_register("bijections", "dyck-convention")
def _dyck_convention(ctx: _Ctx):
    # size-n 0-box paths are by convention the Dyck paths of semilength n-1
    bad, cases = [], 0
    for n in range(1, ctx.max_n + 1):
        cases += 1
        got = {p.word for p in ctx.box(0, n)}
        want = {p.word for p in paths.generate_dyck(n - 1)}
        if got != want or len(got) != counting.count_box(0, n):
            bad.append(
                f"0-box paths of size {n} are not the Dyck paths of semilength "
                f"{n - 1}; replay: boxpaths enumerate --family box --k 0 --n {n}"
            )
    return f"n<={ctx.max_n}", cases, bad


@_register("bijections", "histogram-returns")
def _histogram_returns(ctx: _Ctx):
    bad, cases = [], 0
    for k, n in ctx.box_range():
        hist = Counter(paths.box_return_count(p, k) for p in ctx.box(k, n))
        for j in range(1, n + 1):
            cases += 1
            want = counting.count_box_by_returns(k, n, j)
            if hist.get(j, 0) != want:
                bad.append(
                    f"returns cell (k={k}, n={n}, j={j}): generator "
                    f"{hist.get(j, 0)}, formula {want}; "
                    f"replay: boxpaths count --k {k} --n {n} --stat returns --j {j}"
                )
        cases += 1
        if set(hist) - set(range(1, n + 1)):
            bad.append(f"out-of-range return counts at (k={k}, n={n}): {dict(hist)}")
    return f"k<={ctx.max_k}, n<={ctx.max_n}", cases, bad


@_register("bijections", "histogram-long-ascents")
def _histogram_long_ascents(ctx: _Ctx):
    bad, cases = [], 0
    for k, n in ctx.box_range():
        hist = Counter(paths.box_long_ascent_count(p, k) for p in ctx.box(k, n))
        top = n if k > 0 or n == 1 else n - 1
        for j in range(0 if k == 0 else 1, top + 1):
            cases += 1
            if k == 0 and n == 1:
                want = 1 if j == 0 else 0
            elif j == 0:
                want = 0
            else:
                want = counting.count_box_by_long_ascents(k, n, j)
            if hist.get(j, 0) != want:
                bad.append(
                    f"long-ascent cell (k={k}, n={n}, j={j}): generator "
                    f"{hist.get(j, 0)}, formula {want}; replay: boxpaths count "
                    f"--k {k} --n {n} --stat long-ascents --j {j}"
                )
    return f"k<={ctx.max_k}, n<={ctx.max_n}", cases, bad


@_register("bijections", "tailed-filter")
def _tailed_filter(ctx: _Ctx):
    bad, cases = [], 0
    for k, n in ctx.box_range():
        cases += 1
        got = sum(1 for p in ctx.box(k, n) if paths.classify(p, k).tailed)
        want = counting.count_tailed(k, n)
        if got != want:
            bad.append(
                f"tailed filter (k={k}, n={n}): {got} paths, formula {want}; "
                f"replay: boxpaths enumerate --family box --k {k} --n {n}"
            )
    return f"k<={ctx.max_k}, n<={ctx.max_n}", cases, bad


@_register("bijections", "composition-roundtrip")
def _composition_roundtrip(ctx: _Ctx):
    bad, cases = [], 0
    for k, n in ctx.box_range():
        if k == 0:
            continue
        for p in ctx.box(k, n):
            cases += 1
            c = paths.composition_of(p, k)
            back = paths.path_of_composition(c)
            if back != p or c.parts != paths.box_ascents(p, k):
                bad.append(
                    f"composition roundtrip failed on {p.word} (k={k}); "
                    f"replay: boxpaths enumerate --family box --k {k} --n {n} "
                    f"--format compositions"
                )
    return f"1<=k<={ctx.max_k}, n<={ctx.max_n}", cases, bad


@_register("bijections", "decomposition-roundtrip")
def _decomposition_roundtrip(ctx: _Ctx):
    bad, cases = [], 0
    for k, n in ctx.box_range():
        for p in ctx.box(k, n):
            cases += 1
            dec = bijections.decompose_box(p, k)
            back = bijections.compose_box(dec)
            sizes = [
                paths.classify(part, max(k + 1, 2)).augmented_size
                for part in dec.parts
            ]
            ok = (
                back == p
                and len(dec.parts) == k + 1
                and (k == 0 or (None not in sizes and sum(sizes) == n - 1))
            )
            if not ok:
                bad.append(
                    f"decomposition roundtrip failed on {p.word} (k={k}): parts "
                    f"{[q.word for q in dec.parts]}; replay: boxpaths biject "
                    f"--k {k} --to decomposition {p.word or repr('')}"
                )
    return f"k<={ctx.max_k}, n<={ctx.max_n}", cases, bad


@_register("bijections", "tree-tuple-roundtrip")
def _tree_tuple_roundtrip(ctx: _Ctx):
    bad, cases = [], 0
    for k, n in ctx.box_range():
        seen = set()
        for p in ctx.box(k, n):
            cases += 1
            tup = bijections.box_to_tree_tuple(p, k)
            back = bijections.tree_tuple_to_box(tup, k)
            seen.add(str(tup))
            ok = (
                back == p
                and len(tup.trees) == k + 1
                and all(t.arity == k + 2 for t in tup.trees)
                and tup.total_nodes == n - 1
            )
            if not ok:
                bad.append(
                    f"tree-tuple roundtrip failed on {p.word} (k={k}); "
                    f"replay: boxpaths biject --k {k} --to trees {p.word}"
                )
        cases += 1
        if len(seen) != len(ctx.box(k, n)):
            bad.append(f"tree-tuple map not injective at (k={k}, n={n})")
    return f"k<={ctx.max_k}, n<={ctx.max_n}", cases, bad


@_register("bijections", "kt-dyck-roundtrip")
def _kt_dyck_roundtrip(ctx: _Ctx):
    bad, cases = [], 0
    for k, n in ctx.box_range():
        for p in ctx.box(k, n):
            cases += 1
            q = bijections.box_to_kt_dyck(p, k)
            back = bijections.kt_dyck_to_box(q)
            ok = (
                back == p
                and q.k == k + 1
                and q.t == k
                and q.size == n - 1
            )
            if not ok:
                bad.append(
                    f"kt-Dyck roundtrip failed on {p.word} (k={k}): image {q.word}; "
                    f"replay: boxpaths biject --k {k} --to ktdyck {p.word}"
                )
    return f"k<={ctx.max_k}, n<={ctx.max_n}", cases, bad


@_register("bijections", "threshold-roundtrip")
def _threshold_roundtrip(ctx: _Ctx):
    bad, cases = [], 0
    for k, n in ctx.box_range():
        for p in ctx.box(k, n):
            cases += 1
            s = bijections.box_to_threshold(p, k)
            back = bijections.threshold_to_box(s)
            # entry bounds are enforced by the ThresholdSequence constructor
            ok = back == p and s.k == k + 2 and s.slack == k and len(s.entries) == n - 1
            if not ok:
                bad.append(
                    f"threshold roundtrip failed on {p.word} (k={k}): image {s}; "
                    f"replay: boxpaths biject --k {k} --to threshold {p.word}"
                )
    return f"k<={ctx.max_k}, n<={ctx.max_n}", cases, bad


@_register("bijections", "return-injection")
def _return_injection(ctx: _Ctx):
    # injective from j+1 returns into j returns for every j; onto at j = 1
    # when k <= 1 (k >= 2 images at j = 1 form a strict subset)
    bad, cases = [], 0
    for k, n in ctx.box_range():
        groups: dict[int, list[paths.PathWord]] = {}
        for p in ctx.box(k, n):
            groups.setdefault(paths.box_return_count(p, k), []).append(p)
        for j in sorted(groups):
            if j < 2:
                continue
            images = {}
            for p in groups[j]:
                try:
                    q = bijections.return_injection(p, k)
                except paths.InvalidPathError:
                    # only the degenerate k = 0 two-return case may refuse
                    cases += 1
                    if not (k == 0 and j == 2):
                        bad.append(
                            f"return_injection refused {p.word} (k={k}, j={j}); "
                            f"replay: boxpaths biject --k {k} --to ktdyck {p.word}"
                        )
                    continue
                cases += 1
                if paths.box_return_count(q, k) != j - 1:
                    bad.append(
                        f"return_injection({p.word}) has wrong return count; "
                        f"replay: boxpaths count --k {k} --n {n} --stat returns"
                    )
                if q in images:
                    bad.append(
                        f"return_injection collides on {p.word} and "
                        f"{images[q].word} (k={k}, n={n})"
                    )
                images[q] = p
                inv = bijections.invert_return_injection(q, k)
                if inv != p:
                    bad.append(
                        f"inverse failed on {q.word} (k={k}): got "
                        f"{getattr(inv, 'word', inv)}, want {p.word}"
                    )
            if j == 2 and k == 1:
                cases += 1
                if len(images) != len(groups.get(1, [])):
                    bad.append(
                        f"injection (k={k}, n={n}) not onto at j=1: "
                        f"{len(images)} images, {len(groups.get(1, []))} targets; "
                        f"replay: boxpaths count --k {k} --n {n} --stat returns"
                    )
    return f"k<={ctx.max_k}, n<={ctx.max_n}", cases, bad


@_register("bijections", "embed-all-long")
def _embed_all_long(ctx: _Ctx):
    # the image of the k -> k+1 embedding is exactly the set of (k+1)-box
    # paths all of whose ascents are long
    bad, cases = [], 0
    for k in range(ctx.max_k):
        for n in range(1, ctx.max_n + 1):
            cases += 1
            images = {bijections.embed_all_long(p, k).word for p in ctx.box(k, n)}
            target = {
                p.word
                for p in ctx.box(k + 1, n)
                if min(bijections.box_ascents(p, k + 1)) >= 2
            }
            if len(images) != len(ctx.box(k, n)) or images != target:
                bad.append(
                    f"all-long embedding (k={k}, n={n}) image mismatch; "
                    f"replay: boxpaths enumerate --family box --k {k + 1} --n {n}"
                )
    return f"k<{ctx.max_k}, n<={ctx.max_n}" if ctx.max_k else "empty", cases, bad


@_register("bijections", "tree-generator")
def _tree_generator(ctx: _Ctx):
    bad, cases = [], 0
    for arity in range(2, ctx.max_k + 3):
        for n in range(ctx.max_n + 1):
            cases += 1
            forest = list(trees.generate_trees(arity, n))
            want = counting.fuss_catalan(arity, 1, n)
            distinct = len({str(t) for t in forest})
            if len(forest) != want or distinct != len(forest):
                bad.append(
                    f"generate_trees({arity}, {n}) gave {len(forest)} trees "
                    f"({distinct} distinct), formula {want}"
                )
    return f"arity<={ctx.max_k + 2}, n<={ctx.max_n}", cases, bad


@_register("bijections", "tree-kdyck-roundtrip")
def _tree_kdyck_roundtrip(ctx: _Ctx):
    bad, cases = [], 0
    for arity in range(2, ctx.max_k + 3):
        for n in range(ctx.max_n + 1):
            for tr in trees.generate_trees(arity, n):
                cases += 1
                q = trees.tree_to_kdyck(tr)
                back = trees.kdyck_to_tree(q)
                if back != tr or q.k != arity - 1 or q.size != n:
                    bad.append(
                        f"tree/kdyck roundtrip failed on {tr} (arity {arity})"
                    )
    return f"arity<={ctx.max_k + 2}, n<={ctx.max_n}", cases, bad


@_register("bijections", "augmented-roundtrip")
def _augmented_roundtrip(ctx: _Ctx):
    bad, cases = [], 0
    for k in range(2, max(ctx.max_k + 2, 3)):
        for n in range(ctx.max_n + 1):
            for tr in trees.generate_trees(k + 1, n):
                cases += 1
                q = trees.tree_to_kdyck(tr)
                aug = trees.kdyck_to_augmented(q)
                cls = paths.classify(aug, k)
                back = trees.augmented_to_kdyck(aug, k)
                if back != q or cls.augmented_size != n or not cls.skew_dyck:
                    bad.append(
                        f"augmented roundtrip failed for {q.word} (k={k}): "
                        f"word {aug.word} classifies as {cls.family()}"
                    )
    return f"2<=k<={max(ctx.max_k + 1, 2)}, size<={ctx.max_n}", cases, bad


# ------------------------------------------------------------------ series


def _series_orders(ctx: _Ctx) -> tuple[int, int]:
    # wide enough for the identity checks, scaled up by max_n on request
    return max(6, ctx.max_n + 1), max(14, 3 * ctx.max_n - 1)


def _integral(s: series.BiSeries) -> bool:
    return all(type(c) is int for row in s.coeffs for c in row)


@_register("series", "skew-equation")
def _skew_equation(ctx: _Ctx):
    T, X = _series_orders(ctx)
    bad, cases = [], 0
    R = series.solve_skew_dyck_series(T, X)
    cases += 1
    if not series.skew_equation_residual(R).is_zero():
        bad.append("skew Dyck series leaves a nonzero residual in its equation")
    cases += 1
    if not _integral(R):
        bad.append("skew Dyck series has non-integer coefficients")
    for n in range(1, (X + 1) // 3 + 1):
        cases += 1
        got = R.coefficient(n, 3 * n - 1)
        direct = counting.exact_div(counting.binomial(3 * n - 1, n), 3 * n - 1)
        want = counting.count_box(1, n)
        if got != want or got != direct:
            bad.append(
                f"[t^{n} x^{3 * n - 1}] = {got}, expected {want} (direct form "
                f"{direct}); replay: boxpaths count --k 1 --n {n}"
            )
    for m in range(min(X, len(SKEW_COUNTS) - 1) + 1):
        cases += 1
        total = sum(R.coefficient(j, m) for j in range(T + 1))
        if total != SKEW_COUNTS[m]:
            bad.append(
                f"t=1 column at x^{m} sums to {total}, expected {SKEW_COUNTS[m]}; "
                f"replay: boxpaths enumerate --family skew --n {m}"
            )
    return f"orders ({T}, {X})", cases, bad


@_register("series", "tree-equation")
def _tree_equation(ctx: _Ctx):
    T, X = _series_orders(ctx)
    bad, cases = [], 0
    for k in range(2, ctx.max_k + 3):
        C = series.tree_series(k, X)
        cases += 1
        if not series.tree_equation_residual(C, k).is_zero():
            bad.append(f"tree series (arity {k}) leaves a residual")
        for r in range(1, 4):
            power = C ** r
            for n in range(X + 1):
                cases += 1
                if power.coefficient(0, n) != counting.fuss_catalan(k, r, n):
                    bad.append(
                        f"[x^{n}] C_{k}^{r} differs from Fuss-Catalan({k}, {r}, {n})"
                    )
    return f"arity<={ctx.max_k + 2}, x^<={X}", cases, bad


@_register("series", "augmented-equation")
def _augmented_equation(ctx: _Ctx):
    T, X = _series_orders(ctx)
    bad, cases = [], 0
    for k in range(1, ctx.max_k + 2):
        G = series.augmented_long_ascent_series(k, T, X)
        cases += 1
        if not series.augmented_long_ascent_residual(G, k).is_zero():
            bad.append(f"augmented series (k={k}) leaves a residual")
        # at t = 1 the equation collapses to the (k+1)-ary tree equation;
        # j never exceeds n, so the column is exact only up to n = T
        for n in range(T + 1):
            cases += 1
            total = sum(G.coefficient(j, n) for j in range(T + 1))
            if total != counting.fuss_catalan(k + 1, 1, n):
                bad.append(
                    f"t=1 column of augmented series (k={k}) at x^{n} is {total}, "
                    f"not Fuss-Catalan({k + 1}, 1, {n})"
                )
    return f"k<={ctx.max_k + 1}, orders ({T}, {X})", cases, bad


@_register("series", "long-ascent-series")
def _long_ascent_series(ctx: _Ctx):
    T, X = _series_orders(ctx)
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        F = series.long_ascent_series(k, T, X)
        G = series.augmented_long_ascent_series(k + 1, T, X)
        cases += 1
        if not series.long_ascent_residual(F, G, k).is_zero():
            bad.append(f"long-ascent series (k={k}) does not match its product form")
        cases += 1
        if not _integral(F):
            bad.append(f"long-ascent series (k={k}) has non-integer coefficients")
        for n in range(1, X + 1):
            for j in range(1, min(n, T) + 1):
                if k == 0 and n == 1:
                    # the series tags the unique size-1 path with t^1 even at
                    # k = 0, where the empty Dyck word has no ascent at all;
                    # the statistic-side row is empty by convention
                    continue
                cases += 1
                got = F.coefficient(j, n)
                want = counting.count_box_by_long_ascents(k, n, j)
                if got != want:
                    bad.append(
                        f"[t^{j} x^{n}] long-ascent series (k={k}) = {got}, "
                        f"formula {want}; replay: boxpaths count --k {k} --n {n} "
                        f"--stat long-ascents --j {j}"
                    )
    return f"k<={ctx.max_k}, orders ({T}, {X})", cases, bad


@_register("series", "returns-series")
def _returns_series(ctx: _Ctx):
    T, X = _series_orders(ctx)
    bad, cases = [], 0
    for k in range(ctx.max_k + 1):
        H = series.returns_series(k, T, X)
        C = series.tree_series(k + 2, X, T)
        cases += 1
        if not series.returns_residual(H, C, k).is_zero():
            bad.append(f"returns series (k={k}) does not satisfy its closed form")
        cases += 1
        if not _integral(H):
            bad.append(f"returns series (k={k}) has non-integer coefficients")
        for n in range(1, X + 1):
            for j in range(1, min(n, T) + 1):
                cases += 1
                got = H.coefficient(j, n)
                want = counting.count_box_by_returns(k, n, j)
                if got != want:
                    bad.append(
                        f"[t^{j} x^{n}] returns series (k={k}) = {got}, formula "
                        f"{want}; replay: boxpaths count --k {k} --n {n} "
                        f"--stat returns --j {j}"
                    )
    return f"k<={ctx.max_k}, orders ({T}, {X})", cases, bad
