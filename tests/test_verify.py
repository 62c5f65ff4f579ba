"""Tests for the verification harness itself.

The harness is only trustworthy if it actually fails when a formula is
wrong, so half of these tests inject faults by rebinding names on the
counting module and assert that the report goes red with a replayable
counterexample.
"""

import re
import shlex
import sys
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from boxpaths import counting, paths, verify
from boxpaths.cli import main
from boxpaths.verify import (
    SUITES,
    CheckRecord,
    VerificationReport,
    run_suite,
)

LINE_SHAPE = re.compile(
    r"^(PASS|FAIL) (formulas|bijections|series)/[a-z0-9-]+ \[.*\] \d+ cases$"
)

# the one template of every failure line
FAILURE_SHAPE = re.compile(
    r"^.+: (got .+, want .+|raised \w+: .*); replay: (?P<replay>boxpaths .*)$"
)


def test_full_suite_passes():
    report = run_suite("all", max_k=1, max_n=3)
    assert report.ok
    assert len(report.checks) == 37
    assert {c.suite for c in report.checks} == set(SUITES)


def test_records_are_ordered_by_suite_then_name():
    report = run_suite("all", max_k=1, max_n=3)
    keys = [(SUITES.index(c.suite), c.name) for c in report.checks]
    assert keys == sorted(keys)


def test_lines_format():
    report = run_suite("formulas", max_k=1, max_n=3)
    lines = report.lines()
    assert lines[-1] == f"{len(report.checks)}/{len(report.checks)} checks passed"
    for line in lines[:-1]:
        assert LINE_SHAPE.match(line), line


def test_suite_filter():
    report = run_suite("bijections", max_k=1, max_n=3)
    assert report.suite == "bijections"
    assert all(c.suite == "bijections" for c in report.checks)
    assert report.ok


def test_run_suite_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_suite("nope")
    with pytest.raises(ValueError):
        run_suite("all", max_k=-1)
    with pytest.raises(ValueError):
        run_suite("all", max_n=0)


def test_injected_returns_fault_is_caught(monkeypatch):
    true_fn = counting.count_box_by_returns

    def skewed(k, n, j):
        return true_fn(k, n, j) + (1 if (k, n, j) == (1, 3, 2) else 0)

    monkeypatch.setattr(counting, "count_box_by_returns", skewed)
    report = run_suite("formulas", max_k=1, max_n=3)
    assert not report.ok
    bad = [c for c in report.checks if not c.passed]
    assert bad
    assert any("replay: boxpaths" in f for c in bad for f in c.failures)
    good = sum(c.passed for c in report.checks)
    assert report.lines()[-1] == f"{good}/{len(report.checks)} checks passed"
    assert good < len(report.checks)


def test_injected_tailed_fault_is_caught(monkeypatch):
    true_fn = counting.count_tailed

    def shifted(k, n):
        return true_fn(k, n) + 1

    monkeypatch.setattr(counting, "count_tailed", shifted)
    report = run_suite("formulas", max_k=1, max_n=3)
    assert not report.ok
    assert any(not c.passed and c.name == "tailed-counts" for c in report.checks)


def test_injected_count_fault_reaches_bijection_suite(monkeypatch):
    true_fn = counting.count_box

    def shifted(k, n):
        return true_fn(k, n) + (1 if (k, n) == (1, 3) else 0)

    monkeypatch.setattr(counting, "count_box", shifted)
    report = run_suite("bijections", max_k=1, max_n=3)
    assert not report.ok
    assert any(not c.passed and c.name == "box-generator" for c in report.checks)


def test_injected_generator_fault_reaches_family_minimality(monkeypatch):
    # the check must enumerate through the module attribute: drop the skew
    # paths of semilength 7 with two UDDL factors (the 2-box paths of size 2)
    real = paths.skew_dyck_text

    def dropping(semilength, allow_left=True):
        chunks = real(semilength, allow_left)
        if semilength != 7:
            return chunks
        return ("".join(w + "\n" for w in text.split("\n")[:-1]
                        if w.count("UDDL") != 2) for text in chunks)

    monkeypatch.setattr(paths, "skew_dyck_text", dropping)
    report = run_suite("bijections", 2, 2)
    bad = [c for c in report.checks if not c.passed]
    assert [c.name for c in bad] == ["family-minimality"]
    assert any("replay: boxpaths enumerate" in f for f in bad[0].failures)


def test_injected_dyck_fault_reaches_dyck_convention(monkeypatch):
    # the check's Dyck words come from the full skew walk, so a non-Dyck
    # word swapped into the L-free stream that generates the 0-box paths
    # of size 4 must fail it
    real = paths.skew_dyck_text

    def swapping(semilength, allow_left=True):
        chunks = real(semilength, allow_left)
        if allow_left or semilength != 3:
            return chunks
        return (text.replace("UDUDUD\n", "UDDUUD\n") for text in chunks)

    monkeypatch.setattr(paths, "skew_dyck_text", swapping)
    report = run_suite("bijections", 1, 4)
    bad = {c.name: c for c in report.checks if not c.passed}
    assert "dyck-convention" in bad
    assert any("replay: boxpaths enumerate --family box --k 0 --n 4" in f
               for f in bad["dyck-convention"].failures)


def test_family_minimality_scans_every_skew_word(monkeypatch):
    # the brute force stays exhaustive: for each k in {1, 2} and n <= 3 it
    # reads every skew word of every semilength 1..(k+2)n - 1 (OEIS A002212),
    # one line of text each, in _carriers, the check's scan
    a002212 = [1, 1, 3, 10, 36, 137, 543, 2219, 9285, 39587, 171369, 751236]
    real = paths.skew_dyck_text
    read = Counter()

    def counted(semilength, allow_left=True):
        caller = sys._getframe(1).f_code.co_name

        def reading(chunks):
            for text in chunks:
                read[caller] += text.count("\n")
                yield text

        return reading(real(semilength, allow_left))

    monkeypatch.setattr(paths, "skew_dyck_text", counted)
    assert run_suite("bijections", 2, 3).ok
    want = sum(a002212[m] for k in (1, 2) for n in (1, 2, 3)
               for m in range(1, (k + 2) * n))
    assert read["_carriers"] == want


def test_carriers_scan_matches_the_per_word_count():
    # the text scan against the comprehension it replaced, on carriers
    # that open and close a chunk as well as inside one; the scan runs on
    # bytes, but the carriers it returns are str words
    edges = set()
    for k, n, m in product((1, 2, 3), range(1, 5), range(10)):
        factor = "U" + "D" * k + "L"
        want = {w for w in paths.skew_dyck_words(m) if w.count(factor) == n}
        got = verify._carriers(m, factor, n)
        assert got == want
        assert all(type(w) is str for w in got)
        for text in paths.skew_dyck_text(m):
            lines = text.split("\n")[:-1]
            edges.update(end for end, w in (("first", lines[0]), ("last", lines[-1]))
                         if w.count(factor) == n)
    assert edges == {"first", "last"}


def test_carriers_hold_one_chunk_at_a_time():
    # semilength 10 is 3.4 MB of text; the scan holds one chunk of it, as
    # str and as bytes, at a time (about 37 KB at its peak), so a scan that
    # joined a semilength's chunks would fail here.  The first call builds
    # the skew walk's cached table, which is not the scan's.
    verify._carriers(10, "UDDL", 3)
    tracemalloc.start()
    try:
        verify._carriers(10, "UDDL", 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_records_carry_wall_time():
    report = run_suite("formulas", max_k=1, max_n=3)
    assert all(c.elapsed > 0 for c in report.checks)
    data = report.as_dict()
    assert data["ok"] is True
    assert (data["suite"], data["max_k"], data["max_n"]) == ("formulas", 1, 3)
    assert [c["name"] for c in data["checks"]] == [c.name for c in report.checks]
    assert data["checks"][0]["elapsed"] == report.checks[0].elapsed


def test_check_record_passed():
    rec = CheckRecord("x", "formulas", "k <= 1", 3, ())
    assert rec.passed
    rec = CheckRecord("x", "formulas", "k <= 1", 3, ("boom",))
    assert not rec.passed


def test_lines_truncate_long_failure_lists():
    failures = tuple(f"case {i}" for i in range(7))
    rec = CheckRecord("x", "formulas", "k <= 1", 7, failures)
    report = VerificationReport("formulas", 1, 3, (rec,))
    lines = report.lines()
    assert lines[0].startswith("FAIL formulas/x")
    assert lines[1:6] == [f"  case {i}" for i in range(5)]
    assert lines[6] == "  ... and 2 more failures"
    assert lines[-1] == "0/1 checks passed"


def _failing(fn):
    """The cases of check fn, each with a want that nothing equals."""
    def cases(ctx):
        for label, got, _want, argv in fn(ctx):
            yield label, got, object(), argv
    return cases


def test_every_replay_runs(capsys):
    # the runner writes a failure line for every case of every check, and
    # each distinct replay in them runs; a case with no narrower command
    # replays its suite at the same depth
    ctx = verify._Ctx(1, 2)
    replays = set()
    for suite, name, params, fn in verify._CHECKS:
        record = verify._run_check(ctx, suite, name, params, _failing(fn))
        assert record.cases == len(record.failures) > 0, name
        replays.update(FAILURE_SHAPE.match(f)["replay"] for f in record.failures)
    # the size-1 0-box path is the empty word, a value of its own
    assert "boxpaths biject --k 0 --to trees ''" in replays
    commands = {shlex.split(replay)[1] for replay in replays}
    assert commands == {"count", "enumerate", "biject", "bfile", "verify"}
    for replay in sorted(replays):
        assert main(shlex.split(replay)[1:]) == 0, replay
        capsys.readouterr()


def _plus_one(real, at):
    return lambda *args: real(*args) + (at is None or args == at)


@pytest.mark.parametrize(
    "attr, at, suite, red",
    [
        ("count_box_by_returns", (1, 3, 2), "formulas", "returns-row-sums"),
        ("count_tailed", None, "formulas", "tailed-counts"),
        ("count_box", (1, 3), "bijections", "box-generator"),
        ("count_box_by_long_ascents", (1, 2, 1), "all", "long-ascent-series"),
    ],
)
def test_failures_follow_the_template_and_replay(capsys, monkeypatch, attr, at,
                                                 suite, red):
    monkeypatch.setattr(counting, attr, _plus_one(getattr(counting, attr), at))
    report = run_suite(suite, max_k=1, max_n=3)
    assert red in {c.name for c in report.checks if not c.passed}
    replays = set()
    for failure in (f for c in report.checks for f in c.failures):
        match = FAILURE_SHAPE.match(failure)
        assert match, failure
        replays.add(match["replay"])
    for replay in sorted(replays):
        argv = shlex.split(replay)[1:]
        # a suite replay reproduces the failure; any other command runs
        assert main(argv) == (1 if argv[0] == "verify" else 0), replay
        capsys.readouterr()


def test_failures_write_values_by_str(monkeypatch):
    # a Fraction reads 12/7 and a PathWord its word, inside lists and
    # tuples too
    monkeypatch.setattr(counting, "count_box_by_returns",
                        _plus_one(counting.count_box_by_returns, (1, 3, 2)))
    report = run_suite("formulas", max_k=1, max_n=3)
    (moments,) = [c for c in report.checks if c.name == "returns-moments"]
    assert moments.failures == (
        "returns mean, variance (1, 3): got [12/7, 24/49], want [7/4, 7/16]; "
        "replay: boxpaths count --k 1 --n 3 --stat returns",)
    ctx = verify._Ctx(1, 3)
    check = next(fn for _, name, _, fn in verify._CHECKS if name == "return-injection")
    record = verify._run_check(ctx, "bijections", "return-injection", "", _failing(check))
    assert not any("PathWord(" in f for f in record.failures)
    assert any("'UDUD' (k=0) to 'UUDD': returns, first preimage, inverse: "
               "got (2, UDUD, UDUD), want" in f for f in record.failures)
