"""Acceptance suite: one test per headline guarantee of the package.

Every check is exact (integer or Fraction equality, byte equality for
golden files) and self-contained, so ``pytest -v`` prints one pass/fail
line per guarantee.  Brute-force generators serve as the oracles; the
closed forms, series and bijections are measured against them.
"""

from collections import Counter
from fractions import Fraction
from pathlib import Path

from boxpaths.bijections import (
    KtDyckPath,
    box_to_kt_dyck,
    box_to_threshold,
    box_to_tree_tuple,
    compose_box,
    decompose_box,
    kt_dyck_to_box,
    return_injection,
    threshold_to_box,
    tree_tuple_to_box,
)
from boxpaths.cli import main
from boxpaths.counting import (
    binomial,
    count_box,
    count_box_by_long_ascents,
    count_box_by_returns,
    count_kt_dyck,
    fuss_catalan,
    lasc_mean,
    lasc_moment_sums,
    lasc_variance,
    narayana,
    returns_mean,
    returns_variance,
    second_gonal,
)
from boxpaths.paths import (
    box_long_ascent_count,
    box_return_count,
    classify,
    generate_dyck,
    generate_k_box,
    generate_skew_dyck,
    parse_path,
    stats,
)
from boxpaths.series import (
    augmented_long_ascent_residual,
    augmented_long_ascent_series,
    long_ascent_residual,
    long_ascent_series,
    returns_residual,
    returns_series,
    skew_equation_residual,
    solve_skew_dyck_series,
    tree_equation_residual,
    tree_series,
)

FIXTURES = Path(__file__).parent / "fixtures"

KT_EXAMPLE_BOX = "UUUUUDDLDUUUDDLDUUUDDL"
KT_EXAMPLE_IMAGE = "UUDUUDUU"


def test_criterion_01_skew_series_diagonal():
    """[t^n x^(3n-1)] of the skew path series is C(3n-1,n)/(3n-1)."""
    R = solve_skew_dyck_series(6, 17)
    frozen = [1, 2, 7, 30, 143, 728]
    for n in range(1, 7):
        c = R.coefficient(n, 3 * n - 1)
        assert c == Fraction(binomial(3 * n - 1, n), 3 * n - 1)
        assert c == frozen[n - 1]


def test_criterion_02_size_three_enumeration():
    """generate_k_box(1, 3) yields exactly the seven fixture paths."""
    words = [p.word for p in generate_k_box(1, 3)]
    fixture = (FIXTURES / "box_k1_size3.txt").read_text().split()
    assert len(words) == 7 and len(fixture) == 7
    assert set(words) == set(fixture)


def test_criterion_03_golden_tables(capsys):
    """The four 8-row statistic tables reproduce the golden files byte
    for byte."""
    cases = [
        ("returns", "1", "table_returns_k1.txt"),
        ("returns", "2", "table_returns_k2.txt"),
        ("long-ascents", "1", "table_lasc_k1.txt"),
        ("long-ascents", "2", "table_lasc_k2.txt"),
    ]
    for stat, k, name in cases:
        code = main(["table", "--stat", stat, "--k", k, "--rows", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (FIXTURES / name).read_text()


def test_criterion_04_histograms_match_formulas():
    """Return and long-ascent histograms over the exhaustive generator
    agree with the closed forms in every cell."""
    cases = [(k, n) for k in (1, 2) for n in range(1, 5)] + [(1, 5)]
    for k, n in cases:
        family = list(generate_k_box(k, n))
        ret = Counter(box_return_count(p, k) for p in family)
        lasc = Counter(box_long_ascent_count(p, k) for p in family)
        for j in range(n + 2):
            assert ret[j] == count_box_by_returns(k, n, j)
            assert lasc[j] == count_box_by_long_ascents(k, n, j)


def test_criterion_05_box_paths_are_factor_minimal():
    """Skew paths with n U D^k L factors first appear at semilength
    (k+2)n - 1, and the paths there are exactly the k-box paths."""
    for k in (1, 2):
        # what PathStats.factor_count(k) counts, read without the rest of
        # stats() on the million words of this scan
        factor = "U" + "D" * k + "L"
        bounds = {(k + 2) * n - 1: n for n in range(1, 4)}
        for m in range(max(bounds) + 1):
            by_count: Counter = Counter()
            at_bound = set()
            for p in generate_skew_dyck(m):
                c = p.word.count(factor)
                by_count[c] += 1
                if bounds.get(m) == c:
                    at_bound.add(p.word)
            for n in range(1, 4):
                if m < (k + 2) * n - 1:
                    assert by_count[n] == 0
            if m in bounds:
                n = bounds[m]
                assert len(at_bound) == count_box(k, n)
                assert at_bound == {p.word for p in generate_k_box(k, n)}
    # k = 0 has no scan of its own: U D^0 L is the forbidden factor UL,
    # so no skew path carries one.  Size-n 0-box paths are Dyck paths of
    # semilength n - 1 by convention, checked against the Dyck generator.
    for m in range(6):
        assert all(stats(p).factor_count(0) == 0 for p in generate_skew_dyck(m))
    for n in range(1, 4):
        box = {p.word for p in generate_k_box(0, n)}
        assert box == {p.word for p in generate_dyck(n - 1)}
        assert len(box) == count_box(0, n)


def test_criterion_06_bijections_round_trip():
    """All four structure maps round-trip on every path with the
    declared codomain and size shift."""
    for k in range(3):
        for n in range(1, 5):
            for p in generate_k_box(k, n):
                tup = box_to_tree_tuple(p, k)
                assert len(tup.trees) == k + 1
                assert all(t.arity == k + 2 for t in tup.trees)
                assert sum(t.node_count for t in tup.trees) == n - 1
                assert tree_tuple_to_box(tup, k).word == p.word

                q = box_to_kt_dyck(p, k)
                assert (q.k, q.t, q.size) == (k + 1, k, n - 1)
                assert kt_dyck_to_box(q).word == p.word

                s = box_to_threshold(p, k)
                assert (s.k, s.slack, len(s.entries)) == (k + 2, k, n - 1)
                assert threshold_to_box(s).word == p.word

                dec = decompose_box(p, k)
                assert len(dec.parts) == k + 1
                if k >= 1:
                    sizes = [
                        classify(part, k + 1).augmented_size
                        for part in dec.parts
                    ]
                    assert None not in sizes and sum(sizes) == n - 1
                assert compose_box(dec).word == p.word


def test_criterion_07_return_injection():
    """Dropping the last return is injective on j-return 1-box paths
    for every j >= 2 and bijective onto the 1-return paths at j = 2."""
    k = 1
    for n in range(1, 6):
        groups: dict[int, set[str]] = {}
        for p in generate_k_box(k, n):
            groups.setdefault(box_return_count(p, k), set()).add(p.word)
        for j, sources in sorted(groups.items()):
            if j == 1:
                continue
            images = [return_injection(parse_path(w), k) for w in sources]
            assert len({im.word for im in images}) == len(sources)
            for im in images:
                assert box_return_count(im, k) == j - 1
                assert classify(im, k).box_size == n
        if n >= 2:
            two = {return_injection(parse_path(w), k).word for w in groups[2]}
            assert two == groups[1]
            assert count_box_by_returns(k, n, 1) == count_box_by_returns(k, n, 2)


def test_criterion_08_moments():
    """Mean/variance closed forms equal the exact moment ratios of the
    count rows, and the long-ascent moment sums match their closed
    forms."""
    assert returns_mean(1, 3) == Fraction(12, 7)
    assert returns_variance(1, 3) == Fraction(24, 49)
    assert lasc_mean(1, 3) == Fraction(15, 7)
    assert lasc_variance(1, 3) == Fraction(20, 49)
    for k in range(4):
        for n in range(1, 11):
            total = count_box(k, n)
            ret = [count_box_by_returns(k, n, j) for j in range(n + 1)]
            las = [count_box_by_long_ascents(k, n, j) for j in range(n + 1)]
            assert sum(ret) == total

            m1 = sum(j * c for j, c in enumerate(ret))
            m2 = sum(j * j * c for j, c in enumerate(ret))
            mean = Fraction(m1, total)
            assert returns_mean(k, n) == mean
            assert returns_variance(k, n) == Fraction(m2, total) - mean * mean

            if sum(las) == 0:
                # the one degenerate row: the size-1 0-box path is the
                # empty Dyck word and has no ascents at all
                assert (k, n) == (0, 1)
                assert lasc_mean(k, n) == 0 and lasc_variance(k, n) == 0
            else:
                assert sum(las) == total
                m1 = sum(j * c for j, c in enumerate(las))
                m2 = sum(j * j * c for j, c in enumerate(las))
                mean = Fraction(m1, total)
                assert lasc_mean(k, n) == mean
                assert lasc_variance(k, n) == Fraction(m2, total) - mean * mean
            assert lasc_moment_sums(k, n) == (
                sum(j * c for j, c in enumerate(las)),
                sum(j * j * c for j, c in enumerate(las)),
            )


def test_criterion_09_identity_battery():
    """Specializations and shape facts of the count triangles: Narayana
    at k = 0, second-gonal j = 2 columns, the long-ascent diagonal,
    repeated neighbours, strict log-concavity, return monotonicity."""
    for n in range(2, 21):
        for j in range(1, n + 1):
            assert count_box_by_long_ascents(0, n, j) == narayana(n - 1, j)
    for g in range(3, 9):
        for n in range(1, 21):
            assert second_gonal(g, n) == count_box_by_long_ascents(g - 3, n + 1, 2)
    assert [second_gonal(4, n) for n in range(1, 21)] == [
        n * n for n in range(1, 21)
    ]
    assert [second_gonal(5, n) for n in range(1, 8)] == [2, 7, 15, 26, 40, 57, 77]
    for k in range(6):
        for n in range(1, 21):
            assert count_box_by_long_ascents(k + 1, n, n) == count_box(k, n)
            row_r = [count_box_by_returns(k, n, j) for j in range(1, n + 1)]
            # the virtual tail of a 0-box path adds one return, so the
            # j = 1 cell is 0 for n >= 2 and the row starts at j = 2
            start = 1 if k == 0 else 0
            tail = row_r[start:]
            assert all(a >= b for a, b in zip(tail, tail[1:]))
            if k == 1 and n >= 2:
                assert row_r[0] == row_r[1]
            row_l = [count_box_by_long_ascents(k, n, j) for j in range(n + 2)]
            for j in range(2, n):
                assert row_l[j] ** 2 > row_l[j - 1] * row_l[j + 1]
    for k in range(5):
        for i in range(1, 5):
            n = (k + 2) * i - 1
            assert count_box_by_long_ascents(k, n, (k + 1) * i - 1) == \
                count_box_by_long_ascents(k, n, (k + 1) * i)


def test_criterion_10_kt_dyck_consistency():
    """(k+1)_k-Dyck path counts match box path counts with the size
    shift, and the worked example maps both ways."""
    for k in range(5):
        for n in range(1, 11):
            assert count_kt_dyck(k + 1, k, n - 1) == count_box(k, n)
    q = box_to_kt_dyck(parse_path(KT_EXAMPLE_BOX), 2)
    assert q.word == KT_EXAMPLE_IMAGE
    assert kt_dyck_to_box(KtDyckPath(3, 2, KT_EXAMPLE_IMAGE)).word == KT_EXAMPLE_BOX


def test_criterion_11_series_residuals_and_tables():
    """All five functional equations have zero residual at truncation
    (T, X) = (6, 14) and their coefficient tables match the counting
    closed forms cell by cell."""
    T, X = 6, 14
    R = solve_skew_dyck_series(T, X)
    assert skew_equation_residual(R).is_zero()
    for n in range(1, (X + 1) // 3 + 1):
        assert R.coefficient(n, 3 * n - 1) == count_box(1, n)
    for m in range(7):
        hist = Counter(stats(p).factor_count(1) for p in generate_skew_dyck(m))
        for j in range(T + 1):
            assert R.coefficient(j, m) == hist.get(j, 0)

    for arity in (2, 3, 4):
        C = tree_series(arity, X, T)
        assert tree_equation_residual(C, arity).is_zero()
        for n in range(X + 1):
            assert C.coefficient(0, n) == fuss_catalan(arity, 1, n)

    for k in (1, 2, 3):
        G = augmented_long_ascent_series(k, T, X)
        assert augmented_long_ascent_residual(G, k).is_zero()
        assert G.coefficient(0, 0) == 1
        for n in range(1, X + 1):
            for j in range(T + 1):
                want = Fraction(binomial(k * n, j - 1) * binomial(n, j), n)
                assert G.coefficient(j, n) == want

    for k in (0, 1, 2):
        F = long_ascent_series(k, T, X)
        assert long_ascent_residual(
            F, augmented_long_ascent_series(k + 1, T, X), k
        ).is_zero()
        H = returns_series(k, T, X)
        assert returns_residual(H, tree_series(k + 2, X, T), k).is_zero()
        for n in range(1, X + 1):
            for j in range(T + 1):
                # the size-1 0-box path is the empty Dyck word with no
                # ascents, but the k = 0 long-ascent equation books it
                # under one long ascent; that single cell is excluded
                if (k, n, j) != (0, 1, 1):
                    assert F.coefficient(j, n) == count_box_by_long_ascents(k, n, j)
                assert H.coefficient(j, n) == count_box_by_returns(k, n, j)
