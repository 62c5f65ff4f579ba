"""End-to-end tests for the command line front end.

Everything goes through main(argv) so the argparse wiring, the exit
codes and the exact bytes on stdout are covered together.  The golden
tables and b-files live under tests/fixtures/.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import boxpaths
from boxpaths import bijections, cli, counting, paths, verify
from boxpaths.cli import main
from boxpaths.paths import (
    PathWord,
    box_ascents,
    box_long_ascent_count,
    box_return_count,
    generate_k_box,
)

FIXTURES = Path(__file__).parent / "fixtures"

EXAMPLE = "UUUDLDUUUDLDUUDL"
KT_EXAMPLE_BOX = "UUUUUDDLDUUUDDLDUUUDDL"
KT_EXAMPLE_IMAGE = "UUDUUDUU"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_count_plain(capsys):
    code, out, err = run(capsys, "count", "--k", "1", "--n", "3")
    assert (code, out, err) == (0, "7\n", "")


def test_count_k0_size_one(capsys):
    code, out, err = run(capsys, "count", "--k", "0", "--n", "1")
    assert (code, out, err) == (0, "1\n", "")


def test_count_returns_row(capsys):
    code, out, err = run(capsys, "count", "--k", "2", "--n", "5", "--stat", "returns")
    assert (code, out, err) == (0, "340 200 60 11 1\n", "")


def test_count_single_cell(capsys):
    code, out, _ = run(
        capsys, "count", "--k", "1", "--n", "4", "--stat", "returns", "--j", "2"
    )
    assert (code, out) == (0, "12\n")
    # out-of-range j is a zero count, not an error
    code, out, _ = run(
        capsys, "count", "--k", "1", "--n", "4", "--stat", "long-ascents", "--j", "9"
    )
    assert (code, out) == (0, "0\n")


def test_count_j_without_stat_is_usage_error(capsys):
    code, out, err = run(capsys, "count", "--k", "1", "--n", "4", "--j", "2")
    assert code == 2 and out == "" and err.startswith("error:")


def test_count_bad_n_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "--k", "1", "--n", "0")
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize(
    "stat,k,fixture",
    [
        ("returns", "1", "table_returns_k1.txt"),
        ("returns", "2", "table_returns_k2.txt"),
        ("long-ascents", "1", "table_lasc_k1.txt"),
        ("long-ascents", "2", "table_lasc_k2.txt"),
    ],
)
def test_tables_match_golden_files(capsys, stat, k, fixture):
    code, out, err = run(
        capsys, "table", "--stat", stat, "--k", k, "--rows", "8"
    )
    assert code == 0 and err == ""
    assert out == (FIXTURES / fixture).read_text()


def test_table_k0_returns_matches_enumeration(capsys):
    code, out, _ = run(capsys, "table", "--stat", "returns", "--k", "0", "--rows", "6")
    assert code == 0
    for line in out.splitlines():
        label, *cells = line.split()
        n = int(label)
        family = list(generate_k_box(0, n))
        for j, cell in enumerate(cells, 1):
            assert int(cell) == sum(
                1 for p in family if box_return_count(p, 0) == j
            )


def test_table_rejects_zero_rows(capsys):
    code, _, err = run(capsys, "table", "--stat", "returns", "--k", "1", "--rows", "0")
    assert code == 2 and err.startswith("error:")


def test_enumerate_box_words(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "box", "--k", "1", "--n", "3")
    assert code == 0
    assert out == (FIXTURES / "box_k1_size3.txt").read_text()


def test_enumerate_box_compositions(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--family", "box", "--k", "1", "--n", "3",
        "--format", "compositions",
    )
    assert code == 0
    assert out.splitlines() == [
        "6,1,1", "5,2,1", "5,1,2", "4,3,1", "4,2,2", "3,4,1", "3,3,2",
    ]


def test_enumerate_box_k0_compositions_are_virtual(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--family", "box", "--k", "0", "--n", "3",
        "--format", "compositions",
    )
    assert code == 0
    assert out.splitlines() == ["3,1,1", "2,2,1"]


def test_enumerate_compositions_are_the_words_ascents(capsys):
    for k in range(4):
        for n in range(1, 7):
            common = ("enumerate", "--family", "box", "--k", str(k), "--n", str(n))
            code, words, _ = run(capsys, *common)
            assert code == 0
            code, out, _ = run(capsys, *common, "--format", "compositions")
            assert code == 0
            assert out == "".join(
                ",".join(map(str, box_ascents(PathWord(w), k))) + "\n"
                for w in words.splitlines())


def test_enumerate_skew(capsys):
    code, out, _ = run(capsys, "enumerate", "--family", "skew", "--n", "2")
    assert code == 0
    assert out.splitlines() == ["UUDD", "UUDL", "UDUD"]
    code, out, _ = run(capsys, "enumerate", "--family", "skew", "--n", "6")
    assert code == 0
    assert out.splitlines() == [p.word for p in paths.generate_skew_dyck(6)]


def test_enumerate_usage_errors(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "skew", "--k", "1", "--n", "2")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(
        capsys,
        "enumerate", "--family", "skew", "--n", "2", "--format", "compositions",
    )
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "enumerate", "--family", "box", "--n", "2")
    assert code == 2 and err.startswith("error:")


def fresh_env():
    """The environment of a fresh interpreter that imports this boxpaths."""
    src = str(Path(boxpaths.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_enumerate_into_a_closed_pipe_exits_2_quietly():
    # 21 318 lines, far more than a pipe holds, so the writes meet the close
    proc = subprocess.Popen(
        [sys.executable, "-m", "boxpaths", "enumerate", "--family", "box",
         "--k", "1", "--n", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(),
    )
    try:
        assert proc.stdout.readline() == b"UUUUUUUUUUUUUUUUDLDUDLDUDLDUDLDUDLDUDLDUDLDUDL\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (2, b"")


def test_biject_threshold_of_composition(capsys):
    code, out, _ = run(
        capsys,
        "biject", "--k", "1", "--to", "threshold", "--composition", "3,3,2",
    )
    assert (code, out) == (0, "3,6\n")


def test_biject_threshold_inverse(capsys):
    code, out, _ = run(
        capsys, "biject", "--k", "1", "--to", "threshold", "--inverse", "3,6"
    )
    assert (code, out) == (0, EXAMPLE + "\n")


def test_biject_ktdyck_example_pair(capsys):
    code, out, _ = run(capsys, "biject", "--k", "2", "--to", "ktdyck", KT_EXAMPLE_BOX)
    assert (code, out) == (0, KT_EXAMPLE_IMAGE + "\n")
    code, out, _ = run(
        capsys, "biject", "--k", "2", "--to", "ktdyck", "--inverse", KT_EXAMPLE_IMAGE
    )
    assert (code, out) == (0, KT_EXAMPLE_BOX + "\n")


def test_biject_trees_round_trip(capsys):
    code, image, _ = run(capsys, "biject", "--k", "1", "--to", "trees", EXAMPLE)
    assert code == 0
    code, out, _ = run(
        capsys, "biject", "--k", "1", "--to", "trees", "--inverse", image.strip()
    )
    assert (code, out) == (0, EXAMPLE + "\n")


def test_biject_decomposition_round_trip(capsys):
    code, image, _ = run(capsys, "biject", "--k", "1", "--to", "decomposition", EXAMPLE)
    assert code == 0 and image == "UUUDLDUUUDLD,\n"
    code, out, _ = run(
        capsys,
        "biject", "--k", "1", "--to", "decomposition", "--inverse", "UUUDLDUUUDLD,",
    )
    assert (code, out) == (0, EXAMPLE + "\n")


def test_biject_decomposition_inverse_rejects_a_part_below_the_axis(capsys):
    # the parts are block-shaped and their join meets the box bounds, but
    # the second part dips below the x-axis: UUUDLDUUUUDLDUDL, the word
    # their join gives, decomposes to UUUDLD,UUUDLD
    code, out, err = run(
        capsys,
        "biject", "--k", "1", "--to", "decomposition", "--inverse", ",UUDLDUUUUDLD",
    )
    assert (code, out) == (2, "")
    assert err == ("error: part 1: not an augmented 2-Dyck word: dips below "
                   "the x-axis at index 4\n")


def test_forward_maps_reject_a_word_with_one_text():
    # the four forward maps read a word's ascents through box_ascents, so
    # each rejected word gets one error line, whichever map it was given
    # to: every word of at most 5 letters, and template words that miss
    # the box bounds, at k = -1..2
    words = ["".join(letters) for n in range(6)
             for letters in itertools.product("UDL", repeat=n)]
    words += ["UUUUDL", "UDLDUUUUDL", "UUUUUUDDL", "UDDLDUUUUUUDDL"]
    rejected = 0
    for word in words:
        for k in range(-1, 3):
            try:
                box_ascents(PathWord(word), k)
                continue
            except ValueError as exc:
                want = (2, "", f"error: {exc}\n")
            rejected += 1
            for to in ("trees", "ktdyck", "threshold", "decomposition"):
                got = run_quiet("biject", "--k", str(k), "--to", to, word)
                assert got == want, (word, k, to)
    # accepted: the Dyck words of semilength <= 2 at k = 0, UUDL at k = 1
    assert rejected == 4 * len(words) - 5


def run_quiet(*argv):
    """The exit code, stdout and stderr of main(argv), caught without
    capsys, which costs more than the call for short inputs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_biject_size_one_images_are_empty(capsys):
    for to, image in [("ktdyck", ""), ("threshold", ""),
                      ("decomposition", ","), ("trees", "-,-")]:
        code, out, _ = run(capsys, "biject", "--k", "1", "--to", to, "UUDL")
        assert (code, out) == (0, image + "\n")
        # "--" keeps argparse from reading images like "-,-" as flags
        code, out, _ = run(
            capsys, "biject", "--k", "1", "--to", to, "--inverse", "--", image
        )
        assert (code, out) == (0, "UUDL\n")


@pytest.mark.parametrize("k", [1, 2])
def test_biject_round_trips_at_size_5000(capsys, k):
    n = 5000
    shapes = {
        "tall": ((k + 1) * n,) + (1,) * (n - 1),
        "flat": (k + 2,) * (n - 1) + (k + 1,),
    }
    for parts in shapes.values():
        word = "".join("U" * a + "D" * k + "LD" for a in parts[:-1])
        word += "U" * parts[-1] + "D" * k + "L"
        composition = ",".join(map(str, parts))
        for to in ("trees", "ktdyck", "threshold", "decomposition"):
            code, image, err = run(
                capsys, "biject", "--k", str(k), "--to", to, "--composition", composition
            )
            assert (code, err) == (0, "")
            code, out, err = run(
                capsys, "biject", "--k", str(k), "--to", to, "--inverse", "--", image.strip()
            )
            assert (code, out, err) == (0, word + "\n", "")


def test_biject_trees_round_trips_at_size_100000(capsys):
    # the tree texts of both paths nest 10**5 - 1 deep; no step may recurse
    k, n = 2, 10**5
    for parts in (((k + 1) * n,) + (1,) * (n - 1), (k + 2,) * (n - 1) + (k + 1,)):
        word = "".join("U" * a + "D" * k + "LD" for a in parts[:-1])
        word += "U" * parts[-1] + "D" * k + "L"
        code, image, err = run(capsys, "biject", "--k", str(k), "--to", "trees", word)
        assert (code, err) == (0, "")
        assert image.count("(") == n - 1
        code, out, err = run(
            capsys, "biject", "--k", str(k), "--to", "trees", "--inverse", "--", image.strip()
        )
        assert (code, out, err) == (0, word + "\n", "")


def test_biject_usage_errors(capsys):
    code, _, err = run(
        capsys,
        "biject", "--k", "1", "--to", "trees", "--composition", "--inverse", "3,3,2",
    )
    assert code == 2 and err.startswith("error:")
    # a skew word that is not a 1-box path
    code, _, err = run(capsys, "biject", "--k", "1", "--to", "trees", "UUDD")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "biject", "--k", "1", "--to", "trees", "UXDL")
    assert code == 2 and err.startswith("error:")
    # the empty tree of arity k + 2 = 1, rejected for its k
    code, out, err = run(capsys, "biject", "--k", "-1", "--to", "trees",
                         "--inverse", "-")
    assert (code, out, err) == (2, "", "error: k must be >= 0\n")


def test_biject_rejects_a_negative_k_with_one_text(capsys):
    # checked before the value is read, so no image parser words it in
    # terms of its own parameter (the ktdyck k + 1, the tree arity k + 2)
    forms = [((), "UDL"), (("--composition",), "1")]
    forms += [(("--inverse",), value) for value in ("-", "0", "UD", "UUDL")]
    for k, to, (form, value) in itertools.product(
            ("-1", "-2"), ("trees", "ktdyck", "threshold", "decomposition"), forms):
        argv = ("biject", "--k", k, "--to", to, *form, value)
        assert run(capsys, *argv) == (2, "", "error: k must be >= 0\n"), argv


def test_verify_small_suite_passes(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "formulas", "--max-k", "1", "--max-n", "3"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


@pytest.mark.parametrize(
    "fixture, argv",
    [
        ("verify_default.txt", ()),
        ("verify_k3_n5.txt", ("--max-k", "3", "--max-n", "5")),
    ],
)
def test_verify_passing_output_matches_golden_files(capsys, fixture, argv):
    # the PASS lines with their params and case counts, and the summary
    code, out, err = run(capsys, "verify", *argv)
    assert (code, err) == (0, "")
    assert out == (FIXTURES / fixture).read_text()


@pytest.mark.parametrize("error", [paths.InvalidPathError, KeyError])
def test_verify_reports_a_raising_check_as_a_failure(capsys, monkeypatch, error):
    # one path makes the map raise: that check goes red, the others still run
    real = bijections.box_to_kt_dyck
    victim = next(iter(generate_k_box(1, 2)))

    def raising(path, k):
        if path == victim:
            raise error("boom")
        return real(path, k)

    monkeypatch.setattr(bijections, "box_to_kt_dyck", raising)
    argv = ("verify", "--suite", "bijections", "--max-k", "1", "--max-n", "2")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert sum(line.startswith(("PASS ", "FAIL ")) for line in lines) == 17
    assert lines[-1] == "16/17 checks passed"
    red = [i for i, line in enumerate(lines) if line.startswith("FAIL")]
    assert len(red) == 1 and "/kt-dyck-roundtrip " in lines[red[0]]
    failure = lines[red[0] + 1]
    # the label names the check and the line that raised, in the test's fake
    assert failure.startswith(f"  kt-dyck-roundtrip ({__file__}:")
    assert f": raised {error.__name__}: " in failure
    assert failure.endswith("; replay: boxpaths " + " ".join(argv))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
def test_count_prints_values_beyond_the_int_string_limit(capsys):
    # count_box(1, 5200) has more than 4300 digits, Python's default limit
    # for int-to-str conversion; the limit still guards the parsing of argv
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "--k", "1", "--n", "5200")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = str(counting.count_box(1, 5200))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 4300 and out == want + "\n"
    with pytest.raises(SystemExit) as exc:
        main(["count", "--k", "1", "--n", "1" * 5000])
    assert exc.value.code == 2


def test_verify_series_diagonal_depth(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "series", "--max-n", "5")
    assert code == 0
    assert "skew-equation" in out


def test_verify_reports_injected_fault(capsys, monkeypatch):
    true_fn = counting.count_box_by_returns

    def skewed(k, n, j):
        return true_fn(k, n, j) + (1 if (k, n, j) == (1, 3, 2) else 0)

    monkeypatch.setattr(counting, "count_box_by_returns", skewed)
    code, out, _ = run(
        capsys, "verify", "--suite", "formulas", "--max-k", "1", "--max-n", "3"
    )
    assert code == 1
    assert "FAIL" in out
    assert "replay: boxpaths" in out
    code, out, _ = run(
        capsys, "verify", "--suite", "formulas", "--max-k", "1", "--max-n", "3",
        "--format", "json",
    )
    data = json.loads(out)
    assert code == 1 and data["ok"] is False
    assert any("replay: boxpaths" in f for c in data["checks"] for f in c["failures"])


def test_verify_json_format(capsys):
    argv = ("verify", "--suite", "formulas", "--max-k", "1", "--max-n", "3")
    code, text, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--format", "text") == (code, text, "")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert set(data) == {"suite", "max_k", "max_n", "ok", "checks"}
    assert data["ok"] is True
    lines = text.splitlines()
    assert len(data["checks"]) == len(lines) - 1
    for line, c in zip(lines, data["checks"]):
        assert set(c) == {"suite", "name", "params", "cases", "failures", "elapsed"}
        # the text line carries no timing
        assert line == f"PASS {c['suite']}/{c['name']} [{c['params']}] {c['cases']} cases"
        assert c["failures"] == [] and c["elapsed"] >= 0


def test_verify_bad_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_suite_choices_are_the_harness_suites():
    # the parser lists the suites without loading the harness
    assert cli._SUITE_CHOICES == ("all",) + verify.SUITES


def test_only_verify_loads_the_harness():
    code = ("import sys\n"
            "from boxpaths import cli\n"
            "assert cli.main(['count', '--k', '1', '--n', '1']) == 0\n"
            "print('boxpaths.verify' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=fresh_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1\nFalse\n", "")


def test_bfile_box_counts(capsys):
    code, out, _ = run(
        capsys, "bfile", "--sequence", "box-counts", "--k", "1", "--count", "5"
    )
    assert (code, out) == (0, "1 1\n2 2\n3 7\n4 30\n5 143\n")


def test_bfile_returns_triangle_matches_golden(capsys):
    code, out, _ = run(
        capsys, "bfile", "--sequence", "returns-triangle", "--k", "1", "--count", "36"
    )
    assert code == 0
    assert out == (FIXTURES / "a143603.txt").read_text()


def test_bfile_skew_counts(capsys):
    code, out, _ = run(capsys, "bfile", "--sequence", "skew-counts", "--count", "8")
    assert code == 0
    values = [int(line.split()[1]) for line in out.splitlines()]
    assert values == [1, 3, 10, 36, 137, 543, 2219, 9285]


@pytest.mark.parametrize("count", [0, 1, 2, 100])
def test_bfile_skew_counts_follow_the_a002212_recurrence(capsys, count):
    # (n + 1) a(n) = 3 (2n - 1) a(n - 1) - 5 (n - 2) a(n - 2): a derivation
    # independent of the cubic the series solver uses; counts 0-2 are the
    # edges of the slice of column sums, and count 0 prints nothing
    code, out, err = run(
        capsys, "bfile", "--sequence", "skew-counts", "--count", str(count)
    )
    want = [1, 1]
    for n in range(2, count + 1):
        want.append((3 * (2 * n - 1) * want[-1] - 5 * (n - 2) * want[-2]) // (n + 1))
    assert (code, out, err) == (0, bfile_text(want[1:count + 1]), "")


def test_bfile_long_ascent_diagonal_is_catalan(capsys):
    code, out, _ = run(
        capsys,
        "bfile", "--sequence", "long-ascents-diagonal", "--k", "1", "--count", "6",
    )
    assert code == 0
    values = [int(line.split()[1]) for line in out.splitlines()]
    assert values == [1, 1, 2, 5, 14, 42]


def bfile_text(values):
    return "".join(f"{i} {v}\n" for i, v in enumerate(values, 1))


def test_bfile_long_ascent_diagonal_matches_the_cells(capsys):
    # built in one pass as box counts one k lower; the cells stay the
    # oracle, and at k = 0 every cell is 0
    for k in range(4):
        code, out, err = run(capsys, "bfile", "--sequence", "long-ascents-diagonal",
                             "--k", str(k), "--count", "300")
        want = [counting.count_box_by_long_ascents(k, n, n) for n in range(1, 301)]
        assert (code, out, err) == (0, bfile_text(want), "")
    # a bad --k is an error only when some term is asked for
    for k in (-3, -1, 0, 2):
        assert run(capsys, "bfile", "--sequence", "long-ascents-diagonal",
                   "--k", str(k), "--count", "0") == (0, "", "")
    for k in (-3, -1):
        assert run(capsys, "bfile", "--sequence", "long-ascents-diagonal",
                   "--k", str(k), "--count", "1") == (2, "", "error: k must be >= 0\n")


@pytest.mark.parametrize("k", [0, 1, 2])
def test_bfile_returns_diagonal_follows_enumeration(capsys, k):
    # the n-th value counts the size-n paths with n returns
    want = [sum(box_return_count(p, k) == n for p in generate_k_box(k, n))
            for n in range(1, 6)]
    code, out, err = run(
        capsys, "bfile", "--sequence", "returns-diagonal", "--k", str(k), "--count", "5"
    )
    assert (code, out, err) == (0, bfile_text(want), "")


@pytest.mark.parametrize("k", [0, 1, 2])
def test_bfile_long_ascents_triangle_follows_enumeration(capsys, k):
    # row n holds the size-n paths with j = 1..n long ascents; 4 rows and
    # the first cell of the fifth
    want = []
    for n in range(1, 6):
        lasc = Counter(box_long_ascent_count(p, k) for p in generate_k_box(k, n))
        want += [lasc[j] for j in range(1, n + 1)]
    code, out, err = run(
        capsys, "bfile", "--sequence", "long-ascents-triangle", "--k", str(k), "--count", "11"
    )
    assert (code, out, err) == (0, bfile_text(want[:11]), "")


def test_bfile_tailed_counts_agree_with_library(capsys):
    code, out, _ = run(
        capsys, "bfile", "--sequence", "tailed-counts", "--k", "2", "--count", "6"
    )
    assert code == 0
    values = [int(line.split()[1]) for line in out.splitlines()]
    assert values == [counting.count_tailed(2, i) for i in range(1, 7)]


def test_bfile_empty_request(capsys):
    code, out, _ = run(
        capsys, "bfile", "--sequence", "box-counts", "--k", "1", "--count", "0"
    )
    assert (code, out) == (0, "")


def test_bfile_fuss_catalan_counts_match_each_term(capsys):
    # box-counts and tailed-counts are built in one pass; a bad --k is an
    # error only when some term is asked for, as with term-by-term counts
    for seq, term in (("box-counts", counting.count_box),
                      ("tailed-counts", counting.count_tailed)):
        for k in (0, 1, 2, 5):
            code, out, err = run(capsys, "bfile", "--sequence", seq, "--k",
                                 str(k), "--count", "200")
            want = [term(k, n) for n in range(1, 201)]
            assert (code, out, err) == (0, bfile_text(want), "")
        code, out, err = run(capsys, "bfile", "--sequence", seq, "--k", "-1",
                             "--count", "0")
        assert (code, out, err) == (0, "", "")
        code, out, err = run(capsys, "bfile", "--sequence", seq, "--k", "-1",
                             "--count", "1")
        assert (code, out, err) == (2, "", "error: k must be >= 0\n")


def test_bfile_usage_errors(capsys):
    code, _, err = run(
        capsys, "bfile", "--sequence", "skew-counts", "--k", "1", "--count", "3"
    )
    assert code == 2 and err.startswith("error:")
    code, _, err = run(
        capsys, "bfile", "--sequence", "returns-triangle", "--count", "3"
    )
    assert code == 2 and err.startswith("error:")


def test_argparse_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_argparse_requires_flags():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "3"])
    assert exc.value.code == 2


def usage_exit(capsys, *argv):
    """The exit code and the output of a call that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    cap = capsys.readouterr()
    return exc.value.code, cap.out, cap.err


def test_repeated_calls_share_one_parser_and_stay_independent(capsys, monkeypatch):
    # main builds its parser on the first call of the process and reuses
    # it; no call may leave state behind that changes the next one
    argv = ["count", "--k", "1", "--n", "5", "--stat", "returns"]
    fresh = subprocess.run([sys.executable, "-m", "boxpaths", *argv],
                           capture_output=True, text=True, env=fresh_env())
    help_before = usage_exit(capsys, "--help")
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)

    verify = ("verify", "--suite", "formulas", "--max-k", "1", "--max-n", "3")
    code, text, err = run(capsys, *verify)
    assert (code, err) == (0, "") and text.startswith("PASS ")
    code, out, err = run(capsys, *verify, "--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["ok"] is True
    assert run(capsys, *verify) == (0, text, "")

    code, out, err = usage_exit(capsys, "count", "--n", "3")
    assert (code, out) == (2, "") and "required: --k" in err
    assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)

    assert usage_exit(capsys, "--help") == help_before
    assert built == []
