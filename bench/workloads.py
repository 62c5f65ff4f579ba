"""The four workloads: inputs from a seed, one round of operations, checks.

Every round runs the same operations, so `attempted` is rounds times a
fixed count.  An operation that raises counts as failed; an output that
disagrees with the reference makes the run incorrect.  References come
from reference.py and are built once per run, outside every timer.

A round is made of timed parts (a command, a solve, a batch of paths).
Each part is sampled every round; `Recorder.round_s` sums each part's
median times the number of times a round runs it.
"""

from __future__ import annotations

import random
import re
import signal
import statistics
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import reference as ref
from boxpaths import bijections, paths, series, trees

HERE = Path(__file__).resolve().parent
VERIFY_FLOOR = HERE / "verify_floor.txt"
# the speed task's time in the fast state of the machine the benchmark was
# built on (2 cores, Python 3.11); scaled times are seconds at this speed
SPEED_REF = 1.2e-3


class Recorder:
    """Samples, operation counts and output problems of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.per_round: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])

    def timed(self, name: str, watch: Stopwatch, per_round: int = 1, units: int = 1) -> None:
        """Record one sample of a part of the round: its time per unit of
        work, scaled under `name` and wall-clock under `name.raw`.  A round
        spends `per_round` such units on the part."""
        raw, scaled = watch.stop()
        self.sample(name, scaled / units)
        self.sample(name + ".raw", raw / units)
        self.per_round[name] = per_round

    def round_s(self) -> float:
        """The time of one round: each part's median sample times the
        number of units a round spends on it, summed over the parts."""
        return sum(n * self.median(name) for name, n in self.per_round.items())


def _speed_task():
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i, i + 1)
    words = ["UD" * (i % 7) + "L" for i in range(300)]
    return total, sum(w.count("UDL") for w in words), {w: len(w) for w in words}


def speed() -> float:
    """Seconds a fixed pure-Python task (fractions, strings, a dict) takes
    now: the median of five, after one to warm up."""
    times = []
    for _ in range(6):
        t0 = time.perf_counter()
        _speed_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


class Stopwatch:
    """Wall time of one sample, and the same time scaled to a reference
    speed.

    The speed task runs just before and just after the sample and, on a
    SIGALRM every TICK seconds, during it.  The sample is scaled by the
    mean over those readings of SPEED_REF / reading: the machine's speed
    relative to the reference, averaged over the sample, so a sample that
    spans a change of speed is scaled by both.  The time the task takes
    during the sample is subtracted first.

    The machine the benchmark was built on switches between a fast state
    and one up to 2x slower, each lasting seconds (see README.md).  Scaled
    samples lose most of that swing; wall-clock ones keep it.  Stopwatches
    do not nest: each owns SIGALRM while it runs.
    """

    TICK = 0.1

    def __init__(self):
        self.readings = [speed()]
        self.ticking = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK, self.TICK)
        self.t0 = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _speed_task()
        t1 = time.perf_counter()
        _speed_task()
        t2 = time.perf_counter()
        # the first run warms the caches the sample's work cooled
        self.readings.append(t2 - t1)
        self.ticking += t2 - t0

    def stop(self) -> tuple[float, float]:
        raw = time.perf_counter() - self.t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        raw -= self.ticking
        self.readings.append(speed())
        return raw, raw * statistics.fmean(SPEED_REF / r for r in self.readings)


# ---------------------------------------------------------------- verify


_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+) \[(.*)\] (\d+) cases$")
_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed$")


def read_floor(path: Path = VERIFY_FLOOR) -> dict[str, int]:
    floor = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            name, cases = line.split()
            floor[name] = int(cases)
    return floor


def parse_verify(code: int, out: str) -> tuple[dict[str, int], list[str]]:
    """Check names with case counts, and what is wrong with the report."""
    lines = out.splitlines()
    problems, cases = [], {}
    if code != 0:
        problems.append(f"verify exited {code}")
    if not lines or not _SUMMARY.match(lines[-1]):
        return cases, problems + ["verify printed no summary line"]
    for line in lines[:-1]:
        m = _CHECK_LINE.match(line)
        if not m:
            problems.append(f"unexpected verify line {line!r}")
            continue
        if m.group(1) != "PASS":
            problems.append(f"verify check failed: {line}")
        cases[m.group(2)] = int(m.group(4))
    good, total = map(int, _SUMMARY.match(lines[-1]).groups())
    if not good == total == len(cases) == len(lines) - 1:
        problems.append(f"summary {good}/{total} for {len(lines) - 1} check lines")
    return cases, problems


def floor_problems(cases: dict[str, int], floor: dict[str, int]) -> list[str]:
    return [f"verify check {name} has {cases.get(name)} cases, floor {want}"
            for name, want in floor.items() if cases.get(name, -1) < want]


class VerifyDefault:
    """`boxpaths verify` at its default depth."""

    name = "verify-default"
    ops_per_round = 1

    def __init__(self, seed: int):
        self.floor = read_floor()

    def round(self, rec: Recorder, env) -> None:
        watch = Stopwatch()
        code, out = env.cli(["verify"])
        rec.timed("verify", watch)
        cases, problems = parse_verify(code, out)
        for message in problems + floor_problems(cases, self.floor):
            rec.expect(False, message)


# ---------------------------------------------------------------- series


class SeriesDeep:
    """`bfile --sequence skew-counts` beyond verify's orders, twice a round,
    and the five series solves in-process at orders (7, 16), for k = 0..2
    where the series has a k."""

    name = "series-deep"
    BFILE_COUNT = 24
    T, X = 7, 16
    KS = (0, 1, 2)
    ops_per_round = 2 + 1 + 4 * len(KS)

    def __init__(self, seed: int):
        self._ref = None

    def reference(self):
        if self._ref is None:
            _, totals = ref.skew_table(0, self.BFILE_COUNT)
            table, _ = ref.skew_table(self.T, self.X)
            self._ref = (totals, table)
        return self._ref

    def solves(self) -> list:
        T, X = self.T, self.X
        out = [(series.solve_skew_dyck_series, (T, X))]
        for k in self.KS:
            out += [(series.tree_series, (k + 2, X, T)),
                    (series.augmented_long_ascent_series, (k + 1, T, X)),
                    (series.long_ascent_series, (k, T, X)),
                    (series.returns_series, (k, T, X))]
        return out

    def bfile(self, rec: Recorder, env) -> tuple[int, str]:
        watch = Stopwatch()
        code, out = env.cli(["bfile", "--sequence", "skew-counts", "--count", str(self.BFILE_COUNT)])
        rec.timed("bfile", watch, per_round=2)
        return code, out

    def round(self, rec: Recorder, env) -> None:
        bfiles = [self.bfile(rec, env)]
        solved = []
        # each solve is its own part: more, shorter samples steady the median
        for i, (fn, args) in enumerate(self.solves()):
            watch = Stopwatch()
            solved.append(fn(*args))
            rec.timed(f"solve{i}", watch)
        bfiles.append(self.bfile(rec, env))
        self.check(rec, bfiles, solved)

    def check(self, rec: Recorder, bfiles, solved) -> None:
        totals, table = self.reference()
        want = "".join(f"{m} {totals[m]}\n" for m in range(1, self.BFILE_COUNT + 1))
        rec.expect(all(b == (0, want) for b in bfiles), "bfile skew-counts differs from the automaton counts")
        T, X = self.T, self.X
        R = solved[0]
        rec.expect(all(R.coefficient(j, m) == table[j][m] for j in range(T + 1) for m in range(X + 1)),
                   "R(t, x) differs from the automaton table")
        rec.expect(series.skew_equation_residual(R).is_zero(), "R leaves a residual")
        for i, k in enumerate(self.KS):
            C, G, F, H = solved[1 + 4 * i: 5 + 4 * i]
            col = lambda s, n: sum(s.coefficient(j, n) for j in range(T + 1))  # noqa: E731
            rec.expect(all(col(C, n) == ref.fuss_catalan(k + 2, 1, n) for n in range(X + 1)),
                       f"C_{k + 2} differs from Fuss-Catalan")
            # j never exceeds n, so t = 1 columns are whole up to n = T
            rec.expect(all(col(G, n) == ref.fuss_catalan(k + 2, 1, n) for n in range(T + 1)),
                       f"G_{k + 1} at t = 1 differs from Fuss-Catalan")
            rec.expect(all(col(F, n) == ref.count_box(k, n) for n in range(1, T + 1)),
                       f"F_{k} at t = 1 differs from the box count")
            rec.expect(all(col(H, n) == ref.count_box(k, n) for n in range(1, T + 1)),
                       f"H_{k} at t = 1 differs from the box count")
            rec.expect(all(F.coefficient(j, n) == ref.count_by_long_ascents(k, n, j)
                           and H.coefficient(j, n) == ref.count_by_returns(k, n, j)
                           for n in range(1, X + 1) for j in range(1, min(n, T) + 1)),
                       f"F_{k} or H_{k} differs from the closed forms")
            rec.expect(series.tree_equation_residual(C, k + 2).is_zero()
                       and series.augmented_long_ascent_residual(G, k + 1).is_zero()
                       and series.long_ascent_residual(F, G, k).is_zero()
                       and series.returns_residual(H, C, k).is_zero(),
                       f"a k={k} series leaves a residual")


# ------------------------------------------------------------- the maps


MAPS = ("trees", "ktdyck", "threshold", "decomposition")


def _round_trips(p, k: int, text: bool = False) -> tuple:
    """The four maps and their inverses on one path; with `text`, the tree
    tuple goes through its printed form as `biject --to trees` prints it."""
    tup = bijections.box_to_tree_tuple(p, k)
    if text:
        printed = [trees.format_tree(t) for t in tup.trees]
        tup = trees.TreeTuple(tuple(trees.parse_tree(s, k + 2) for s in printed))
    b1 = bijections.tree_tuple_to_box(tup, k)
    q = bijections.box_to_kt_dyck(p, k)
    b2 = bijections.kt_dyck_to_box(q)
    s = bijections.box_to_threshold(p, k)
    b3 = bijections.threshold_to_box(s)
    d = bijections.decompose_box(p, k)
    b4 = bijections.compose_box(d)
    return tup, q, s, d, (b1, b2, b3, b4)


def _check_images(rec: Recorder, p, k: int, n: int, parts, images) -> str:
    """Check one path's images; returns the tree tuple's code."""
    tup, q, s, d, backs = images
    word = p.word
    for name, back in zip(MAPS, backs):
        rec.expect(back == p, f"{name} round trip changed {word[:40]} (k={k})")
    for problem in (ref.ktdyck_problem(q, k, n, parts), ref.threshold_problem(s, k, n, parts),
                    ref.decomposition_problem(d, word, k, n)):
        rec.expect(problem is None, f"image of {word[:40]} (k={k}): {problem}")
    try:
        return ref.tree_tuple_code(tup, k, n)
    except AssertionError as exc:
        rec.expect(False, f"tree tuple of {word[:40]} (k={k}): {exc}")
        return ""


class ExhaustiveMaps:
    """Every k-box path of one size at k = 1 and k = 2 through classify,
    stats, box_ascents and the four round trips, plus `enumerate`."""

    name = "exhaustive-maps"
    SIZES = ((1, 8), (2, 5))
    ENUMERATE = (1, 9)
    BATCH = 500

    def __init__(self, seed: int):
        self.total = sum(ref.count_box(k, n) for k, n in self.SIZES)
        self.ops_per_round = self.total + len(self.SIZES) + 2
        # the seed fixes the order in which the paths meet the maps
        self.order = list(range(self.total))
        random.Random(seed).shuffle(self.order)
        self._ref = None

    def reference(self):
        if self._ref is None:
            comps = {kn: ref.box_compositions(*kn) for kn in self.SIZES}
            words = {kn: [ref.box_word(c, kn[0]) for c in cs] for kn, cs in comps.items()}
            for (k, n), ws in words.items():
                assert all(ref.box_word_problem(w, k, n) is None for w in ws)
            k, n = self.ENUMERATE
            listing = "".join(w + "\n" for w in ref.box_words(k, n))
            self._ref = (comps, words, listing)
        return self._ref

    def enumerate(self, rec: Recorder, env) -> None:
        k, n = self.ENUMERATE
        watch = Stopwatch()
        code, out = env.cli(["enumerate", "--family", "box", "--k", str(k), "--n", str(n)])
        rec.timed("enumerate", watch, per_round=2)
        rec.expect(code == 0 and out == self.reference()[2], "enumerate output differs from the compositions")

    def round(self, rec: Recorder, env) -> None:
        comps, words, _ = self.reference()
        # enumerate opens and closes the round
        self.enumerate(rec, env)
        items = []
        for k, n in self.SIZES:
            generated = list(paths.generate_k_box(k, n))
            if [p.word for p in generated] != words[(k, n)]:
                rec.expect(False, f"generate_k_box({k}, {n}) differs from the compositions in word order")
                generated = [paths.PathWord(w) for w in words[(k, n)]]
            items += [(k, n, p, c) for p, c in zip(generated, comps[(k, n)])]
        hist = {kn: (Counter(), Counter()) for kn in self.SIZES}
        codes = {kn: set() for kn in self.SIZES}
        for start in range(0, self.total, self.BATCH):
            batch = [items[i] for i in self.order[start:start + self.BATCH]]
            results = []
            watch = Stopwatch()
            for k, n, p, _ in batch:
                try:
                    results.append((paths.classify(p, k), paths.stats(p), paths.box_ascents(p, k),
                                    _round_trips(p, k)))
                except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                    rec.failed += 1
                    results.append(None)
                    print(f"failed on {p.word} (k={k}): {exc!r}", file=env.log)
            rec.timed("path", watch, per_round=self.total, units=len(batch))
            for (k, n, p, parts), result in zip(batch, results):
                if result is None:
                    continue
                cls, st, asc, images = result
                tailed = p.word.endswith("U" * (k + 1) + "D" * k + "L")
                rec.expect(cls.box_size == n and cls.k == k and cls.tailed == tailed,
                           f"classify({p.word}, {k}) gave {cls.family()}")
                rec.expect(st.semilength == (k + 2) * n - 1 and asc == parts,
                           f"stats or box_ascents wrong on {p.word}")
                hist[(k, n)][0][st.returns] += 1
                hist[(k, n)][1][st.long_ascents] += 1
                codes[(k, n)].add(_check_images(rec, p, k, n, parts, images))
        for (k, n), (returns, lasc) in hist.items():
            rec.expect(all(returns[j] == ref.count_by_returns(k, n, j) for j in range(1, n + 1))
                       and sum(returns.values()) == ref.count_box(k, n),
                       f"return histogram (k={k}, n={n}) differs from the closed form")
            rec.expect(all(lasc[j] == ref.count_by_long_ascents(k, n, j) for j in range(1, n + 1))
                       and sum(lasc.values()) == ref.count_box(k, n),
                       f"long-ascent histogram (k={k}, n={n}) differs from the closed form")
            rec.expect(len(codes[(k, n)]) == ref.count_box(k, n),
                       f"tree-tuple map not injective at (k={k}, n={n})")
        self.enumerate(rec, env)


class LargeMaps:
    """A few long paths per k in three shapes through the four round trips."""

    name = "large-maps"
    KS = (1, 2)
    # one random path's cost varies with its shape by about a fifth, so each
    # round draws fresh ones and a part's median is over several draws
    RANDOM_SIZES = (1000, 1500, 2000) * 4
    # below the sizes at which the recursive tree maps overflow the stack
    # (about 340 tall and 980 flat at k = 1 and 2)
    TALL_SIZE, FLAT_SIZE = 300, 800

    def __init__(self, seed: int):
        self.seed = seed
        self.drawn = 0
        self.rounds = 0
        self.paths = self.draw()
        self.ops_per_round = len(MAPS) * len(self.paths)

    def draw(self) -> list:
        """The next round's paths: random ones from the seed and the number
        of rounds drawn so far, then the tall and the flat one, per k."""
        rng = random.Random(f"{self.seed}/{self.drawn}")
        self.drawn += 1
        out = []
        for k in self.KS:
            shaped = [("random", n, ref.random_parts(k, n, rng)) for n in self.RANDOM_SIZES]
            shaped.append(("tall", self.TALL_SIZE, ref.tall_parts(k, self.TALL_SIZE)))
            shaped.append(("flat", self.FLAT_SIZE, ref.flat_parts(k, self.FLAT_SIZE)))
            for shape, n, parts in shaped:
                out.append((shape, k, n, parts, paths.PathWord(ref.box_word(parts, k))))
        return out

    def round(self, rec: Recorder, env) -> None:
        # the first round's paths were drawn in set-up
        if self.rounds:
            self.paths = self.draw()
        self.rounds += 1
        # each path is its own part, so that its median is over its own runs
        for i, (shape, k, n, parts, p) in enumerate(self.paths):
            watch = Stopwatch()
            try:
                images = _round_trips(p, k, text=shape == "random")
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                watch.stop()
                rec.failed += len(MAPS)
                print(f"failed on a {shape} path (k={k}, n={n}): {exc!r}", file=env.log)
                continue
            rec.timed(f"{shape}{i}", watch)
            _check_images(rec, p, k, n, parts, images)


WORKLOADS = {w.name: w for w in (VerifyDefault, SeriesDeep, ExhaustiveMaps, LargeMaps)}
