"""Tests of the benchmark itself: its references and its output checks.

    PYTHONPATH=src python -m pytest bench -q

No timed runs: the workloads run one round each at reduced sizes, with
CLI commands in-process.
"""

from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wls  # noqa: E402
from boxpaths import bijections, counting, series, verify  # noqa: E402

A002212 = [1, 1, 3, 10, 36, 137, 543, 2219, 9285]
NARAYANA_ROWS = [[1], [1, 1], [1, 3, 1], [1, 6, 6, 1], [1, 10, 20, 10, 1]]


# ------------------------------------------------------------- references


def test_skew_automaton_gives_a002212():
    _, totals = ref.skew_table(0, len(A002212) - 1)
    assert totals == A002212


def test_skew_automaton_marks_udl_factors():
    # semilength 2: UUDD and UDUD carry no UDL factor, UUDL carries one
    table, totals = ref.skew_table(2, 3)
    assert [table[j][2] for j in range(3)] == [2, 1, 0]
    assert sum(table[j][3] for j in range(3)) == totals[3] == 10


def test_closed_forms():
    assert ref.count_box(2, 5) == 612
    assert [ref.count_box(1, n) for n in range(1, 7)] == [1, 2, 7, 30, 143, 728]
    assert [[ref.narayana(n, j) for j in range(1, n + 1)] for n in range(1, 6)] == NARAYANA_ROWS
    # k = 0 long ascents are Narayana numbers one row down
    assert [ref.count_by_long_ascents(0, 6, j) for j in range(1, 6)] == NARAYANA_ROWS[4]


@pytest.mark.parametrize("k,n", [(1, 1), (1, 5), (2, 4), (3, 3)])
def test_box_words_are_the_box_family(k, n):
    words = ref.box_words(k, n)
    assert len(words) == len(set(words)) == ref.count_box(k, n)
    assert words == sorted(words, key=ref.lex_key)
    assert all(ref.box_word_problem(w, k, n) is None for w in words)
    returns = Counter(sum(1 for i in range(1, len(w) + 1)
                          if w[:i].count("U") * 2 == i) for w in words)
    assert returns == Counter({j: ref.count_by_returns(k, n, j) for j in range(1, n + 1)
                               if ref.count_by_returns(k, n, j)})


def test_random_parts_are_uniform_box_paths():
    rng = random.Random(7)
    k, n = 1, 4
    seen = Counter(ref.random_parts(k, n, rng) for _ in range(6000))
    assert set(seen) == set(ref.box_compositions(k, n))
    assert min(seen.values()) > 0.6 * 6000 / ref.count_box(k, n)
    for k in (1, 2):
        parts = ref.random_parts(k, 500, rng)
        assert ref.box_word_problem(ref.box_word(parts, k), k, 500) is None
    for shape in (ref.tall_parts, ref.flat_parts):
        assert ref.box_word_problem(ref.box_word(shape(2, 30), 2), 2, 30) is None


# ----------------------------------------------------------- output checks


class SmallSeries(wls.SeriesDeep):
    BFILE_COUNT = 12
    T, X = 4, 9


class SmallExhaustive(wls.ExhaustiveMaps):
    SIZES = ((1, 4), (2, 3))
    ENUMERATE = (1, 4)
    BATCH = 7


class SmallLarge(wls.LargeMaps):
    RANDOM_SIZES = (40, 60)
    TALL_SIZE, FLAT_SIZE = 20, 30


def one_round(workload, tracer=None):
    rec = wls.Recorder()
    env = run.Env(log=sys.stderr)
    env.tracer = tracer
    workload.round(rec, env)
    return rec


@pytest.mark.parametrize("cls", [SmallSeries, SmallExhaustive, SmallLarge])
def test_workloads_pass_on_the_program(cls):
    rec = one_round(cls(seed=3))
    assert rec.problems == [] and rec.failed == 0


def test_verify_report_checks():
    env = run.Env(log=sys.stderr)
    code, out = env.cli(["verify", "--suite", "formulas"])
    cases, problems = wls.parse_verify(code, out)
    assert problems == [] and len(cases) == out.count("PASS")
    floor = wls.read_floor()
    assert wls.floor_problems(cases, {n: c for n, c in floor.items() if n.startswith("formulas/")}) == []
    assert wls.floor_problems(cases, {"formulas/box-count-forms": cases["formulas/box-count-forms"] + 1})
    assert wls.floor_problems(cases, {"series/skew-equation": 1})
    lines = out.splitlines()
    assert wls.parse_verify(code, "\n".join(lines[1:]) + "\n")[1]  # summary miscounts


def test_verify_check_catches_a_faulty_count(monkeypatch):
    real = counting.count_box_by_returns
    monkeypatch.setattr(counting, "count_box_by_returns",
                        lambda k, n, j: real(k, n, j) + (k == 1 and n == 3 and j == 2))
    env = run.Env(log=sys.stderr)
    code, out = env.cli(["verify", "--suite", "formulas"])
    assert wls.parse_verify(code, out)[1]


def test_series_check_catches_a_perturbed_coefficient(monkeypatch):
    real = series.solve_skew_dyck_series

    def perturbed(t_order, x_order):
        R = real(t_order, x_order)
        rows = [list(row) for row in R.coeffs]
        rows[1][5] += 1
        return series.BiSeries(R.t_order, R.x_order, tuple(map(tuple, rows)))

    monkeypatch.setattr(series, "solve_skew_dyck_series", perturbed)
    rec = one_round(SmallSeries(seed=3))
    assert any("bfile" in p for p in rec.problems)
    assert any("R(t, x)" in p for p in rec.problems)


def test_exhaustive_check_catches_an_off_by_one_threshold(monkeypatch):
    real = bijections.box_to_threshold

    def off_by_one(path, k):
        seq = real(path, k)
        return bijections.ThresholdSequence(seq.k, seq.slack, tuple(s + 1 for s in seq.entries[:-1])
                                            + seq.entries[-1:])

    monkeypatch.setattr(bijections, "box_to_threshold", off_by_one)
    rec = one_round(SmallExhaustive(seed=3))
    assert any("threshold" in p for p in rec.problems)


def test_exhaustive_check_catches_a_wrong_generator(monkeypatch):
    real = wls.paths.generate_k_box
    monkeypatch.setattr(wls.paths, "generate_k_box", lambda k, n: reversed(list(real(k, n))))
    rec = one_round(SmallExhaustive(seed=3))
    assert any("generate_k_box" in p for p in rec.problems)
    assert any("enumerate" in p for p in rec.problems)


def test_large_check_catches_a_swapped_tree_tuple(monkeypatch):
    real = bijections.box_to_tree_tuple
    monkeypatch.setattr(bijections, "box_to_tree_tuple",
                        lambda path, k: bijections.TreeTuple(real(path, k).trees[::-1]))
    rec = one_round(SmallLarge(seed=3))
    assert any("trees round trip" in p for p in rec.problems)


def test_large_check_catches_a_wrong_decomposition(monkeypatch):
    real = bijections.decompose_box

    def shifted(path, k):
        dec = real(path, k)
        return bijections.BoxDecomposition(k, dec.parts[1:] + dec.parts[:1])

    monkeypatch.setattr(bijections, "decompose_box", shifted)
    rec = one_round(SmallLarge(seed=3))
    assert any("parts do not reassemble" in p or "decomposition" in p for p in rec.problems)


def test_failed_operations_are_counted(monkeypatch):
    def broken(path, k):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(bijections, "box_to_tree_tuple", broken)
    workload = SmallLarge(seed=3)
    rec = one_round(workload)
    assert rec.failed == workload.ops_per_round


def test_tracer_wraps_and_restores():
    from tracer import Tracer

    originals = (verify.run_suite, bijections.classify, series.BiSeries.__mul__)
    tracer = Tracer()
    tracer.install()
    try:
        rec = one_round(SmallLarge(seed=1), tracer)
    finally:
        tracer.uninstall()
    assert (verify.run_suite, bijections.classify, series.BiSeries.__mul__) == originals
    assert rec.problems == []
    assert tracer.stat("paths.classify").calls > 0
    kdyck = tracer.stat("trees.kdyck_to_tree")
    assert kdyck.calls > 0 and 0 < kdyck.self_time <= kdyck.total


# --------------------------------------------------------------- metrics


MANIFEST = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_round_s_sums_each_part_by_its_count():
    rec = wls.Recorder()
    for name, values, per_round in (("a", (1.0, 3.0, 2.0), 2), ("b", (0.5, 0.7), 10)):
        for v in values:
            rec.samples.setdefault(name, []).append(v)
        rec.per_round[name] = per_round
    assert rec.round_s() == pytest.approx(2 * 2.0 + 10 * 0.6)


def test_runs_report_every_metric_of_the_manifest():
    rec = one_round(SmallSeries(seed=3))
    rec.sample("setup_s", 0.3)
    e2e = run.end_to_end(rec)
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert all(value > 0 for value, _ in e2e.values())
    traced = run.traced_run(SmallLarge(seed=3), wls.Recorder(), 0.0, 3)
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == {k: u for k, (_, u) in traced.items()}


def test_large_maps_draws_its_paths_from_the_seed_and_the_round():
    a, b = SmallLarge(seed=5), SmallLarge(seed=5)
    first = [p[3] for p in a.paths]
    assert first == [p[3] for p in b.paths]
    assert [p[3] for p in a.draw()] == [p[3] for p in b.draw()] != first
