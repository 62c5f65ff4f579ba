"""Closed-form counting: frozen values and internal identities."""

from fractions import Fraction

import pytest

from boxpaths.counting import (
    binomial,
    catalan,
    count_box,
    count_box_by_long_ascents,
    count_box_by_returns,
    count_kt_dyck,
    count_tailed,
    exact_div,
    fuss_catalan,
    fuss_catalan_terms,
    lasc_mean,
    lasc_moment_sums,
    lasc_variance,
    narayana,
    returns_mean,
    returns_variance,
    second_gonal,
    tailed_proportion,
    tailed_proportion_limit,
)

# Distribution of returns over k-box paths of size n, rows n = 1..8.
RETURNS_K1 = [
    [1],
    [1, 1],
    [3, 3, 1],
    [12, 12, 5, 1],
    [55, 55, 25, 7, 1],
    [273, 273, 130, 42, 9, 1],
    [1428, 1428, 700, 245, 63, 11, 1],
    [7752, 7752, 3876, 1428, 408, 88, 13, 1],
]
RETURNS_K2 = [
    [1],
    [2, 1],
    [9, 5, 1],
    [52, 30, 8, 1],
    [340, 200, 60, 11, 1],
    [2394, 1425, 456, 99, 14, 1],
    [17710, 10626, 3542, 847, 147, 17, 1],
    [135720, 81900, 28080, 7150, 1400, 204, 20, 1],
]

# Distribution of long ascents over k-box paths of size n, rows n = 1..8.
LASC_K1 = [
    [1],
    [1, 1],
    [1, 4, 2],
    [1, 9, 15, 5],
    [1, 16, 56, 56, 14],
    [1, 25, 150, 300, 210, 42],
    [1, 36, 330, 1100, 1485, 792, 132],
    [1, 49, 637, 3185, 7007, 7007, 3003, 429],
]
LASC_K2 = [
    [1],
    [1, 2],
    [1, 7, 7],
    [1, 15, 45, 30],
    [1, 26, 156, 286, 143],
    [1, 40, 400, 1400, 1820, 728],
    [1, 57, 855, 4845, 11628, 11628, 3876],
    [1, 77, 1617, 13475, 51205, 92169, 74613, 21318],
]

BOX_COUNTS_K1 = [1, 2, 7, 30, 143, 728, 3876, 21318]
BOX_COUNTS_K2 = [1, 3, 15, 91, 612, 4389, 32890, 254475]


def test_binomial_convention():
    assert binomial(5, 2) == 10
    assert binomial(5, 0) == 1
    assert binomial(5, 6) == 0
    assert binomial(5, -1) == 0
    assert binomial(-1, 0) == 0


def test_exact_div_rejects_remainders():
    assert exact_div(12, 4) == 3
    with pytest.raises(ArithmeticError):
        exact_div(10, 4)
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)


def test_fuss_catalan_known_values():
    assert [fuss_catalan(2, 1, n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert [fuss_catalan(3, 1, n) for n in range(6)] == [1, 1, 3, 12, 55, 273]
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


def test_fuss_catalan_at_r_0_and_out_of_range_arguments():
    # r = 0 is Raney's convention, 1 at n = 0 and 0 beyond, at k = 0 too,
    # where kn + r is 0 for every n
    for k in range(4):
        assert [fuss_catalan(k, 0, n) for n in range(4)] == [1, 0, 0, 0]
    # at k = 0 the formula reads C(r, n)
    assert [fuss_catalan(0, 2, n) for n in range(4)] == [1, 2, 1, 0]
    for k in range(-2, 4):
        for r in range(-1, 3):
            for n in range(-1, 4):
                if n < 0 or k < 0 or r < 0:
                    with pytest.raises(ValueError, match="must be >= 0"):
                        fuss_catalan(k, r, n)
                else:
                    assert fuss_catalan(k, r, n) >= 0


def test_fuss_catalan_terms_carry_each_term_exactly():
    # the carried binomial must equal a fresh one on both sides of n = k
    for k in range(1, 7):
        for r in range(1, k + 2):
            assert fuss_catalan_terms(k, r, 60) == [
                fuss_catalan(k, r, n) for n in range(60)]
    assert fuss_catalan_terms(3, 2, 0) == []


def test_fuss_catalan_terms_reject_k_or_r_below_1():
    # the carried ratio holds only for k, r >= 1: at k = 0 it gave
    # [1, 1, 0, 0] for fuss_catalan's [1, 2, 1, 0], and r = 0 and k = -1
    # divided by zero
    for k, r in ((0, 2), (2, 0), (-1, 2)):
        with pytest.raises(ValueError, match="must be >= 1"):
            fuss_catalan_terms(k, r, 4)


@pytest.mark.parametrize("k,expected", [(1, BOX_COUNTS_K1), (2, BOX_COUNTS_K2)])
def test_count_box_rows(k, expected):
    assert [count_box(k, n) for n in range(1, 9)] == expected


def test_count_box_displayed_forms_agree():
    # (k+1)/(n-1) * C((k+2)n-2, n-2) is the other published shape (n >= 2)
    for k in range(6):
        for n in range(2, 21):
            alt = exact_div((k + 1) * binomial((k + 2) * n - 2, n - 2), n - 1)
            assert alt == count_box(k, n)
            direct = exact_div(binomial((k + 2) * n - 1, n), (k + 2) * n - 1)
            assert direct == count_box(k, n)


def test_count_box_k0_is_catalan():
    assert [count_box(0, n) for n in range(1, 8)] == [catalan(n - 1) for n in range(1, 8)]


@pytest.mark.parametrize(
    "k,table", [(1, RETURNS_K1), (2, RETURNS_K2)]
)
def test_returns_distribution_tables(k, table):
    for n, row in enumerate(table, start=1):
        assert [count_box_by_returns(k, n, j) for j in range(1, n + 1)] == row
        assert count_box_by_returns(k, n, 0) == 0
        assert count_box_by_returns(k, n, n + 1) == 0


@pytest.mark.parametrize("k,table", [(1, LASC_K1), (2, LASC_K2)])
def test_long_ascent_distribution_tables(k, table):
    for n, row in enumerate(table, start=1):
        assert [count_box_by_long_ascents(k, n, j) for j in range(1, n + 1)] == row


@pytest.mark.parametrize("k", range(6))
def test_distribution_rows_sum_to_count(k):
    for n in range(1, 21):
        total = count_box(k, n)
        assert sum(count_box_by_returns(k, n, j) for j in range(1, n + 1)) == total
        if k >= 1 or n >= 2:
            assert (
                sum(count_box_by_long_ascents(k, n, j) for j in range(1, n + 1))
                == total
            )


def test_returns_forms_agree_below_diagonal():
    # (j(k+1)-1)/(n-j) * C((k+2)n-j-2, n-j-1) is the other published shape
    for k in range(5):
        for n in range(1, 16):
            for j in range(1, n):
                alt = exact_div(
                    (j * (k + 1) - 1) * binomial((k + 2) * n - j - 2, n - j - 1),
                    n - j,
                )
                assert alt == count_box_by_returns(k, n, j)


def test_returns_row_monotone_with_k1_tie():
    # the row difference carries a factor (k+1)j - 2, so k = 0 only becomes
    # monotone from j = 2 on (and indeed f(0, n, 1) = 0 < f(0, n, 2))
    for k in range(5):
        for n in range(2, 16):
            row = [count_box_by_returns(k, n, j) for j in range(1, n + 1)]
            start = 0 if k >= 1 else 1
            tail = row[start:]
            assert all(a >= b for a, b in zip(tail, tail[1:]))
            if k == 1:
                assert row[0] == row[1]
            if k >= 2:
                assert row[0] > row[1]


def test_returns_moments_frozen():
    assert returns_mean(1, 3) == Fraction(12, 7)
    assert returns_variance(1, 3) == Fraction(24, 49)


@pytest.mark.parametrize("k", range(4))
def test_returns_moments_match_distribution(k):
    for n in range(1, 11):
        total = count_box(k, n)
        mean = Fraction(
            sum(j * count_box_by_returns(k, n, j) for j in range(1, n + 1)), total
        )
        assert returns_mean(k, n) == mean
        second = Fraction(
            sum(j * j * count_box_by_returns(k, n, j) for j in range(1, n + 1)),
            total,
        )
        assert returns_variance(k, n) == second - mean * mean


def test_lasc_moments_frozen():
    assert lasc_mean(1, 3) == Fraction(15, 7)
    assert lasc_variance(1, 3) == Fraction(20, 49)


@pytest.mark.parametrize("k", range(4))
def test_lasc_moment_sums_match_distribution(k):
    for n in range(1, 11):
        direct1 = sum(j * count_box_by_long_ascents(k, n, j) for j in range(1, n + 1))
        direct2 = sum(
            j * j * count_box_by_long_ascents(k, n, j) for j in range(1, n + 1)
        )
        assert lasc_moment_sums(k, n) == (direct1, direct2)


@pytest.mark.parametrize("k", range(4))
def test_lasc_mean_variance_match_distribution(k):
    for n in range(1, 11):
        total = count_box(k, n)
        s1, s2 = lasc_moment_sums(k, n)
        if k == 0 and n == 1:
            # the single size-1 path is the empty Dyck path: no ascents
            assert (s1, s2) == (0, 0)
            assert lasc_mean(0, 1) == 0
            assert lasc_variance(0, 1) == 0
            continue
        mean = Fraction(s1, total)
        assert lasc_mean(k, n) == mean
        assert lasc_variance(k, n) == Fraction(s2, total) - mean * mean


def test_lasc_moment_closed_forms_where_defined():
    for k in range(4):
        for n in range(1, 11):
            s1, s2 = lasc_moment_sums(k, n)
            assert s1 == binomial((k + 2) * n - 3, n - 1)
            if (k + 2) * n != 3:
                assert s2 * ((k + 2) * n - 3) == (
                    (k + 1) * n * n - n - 1
                ) * binomial((k + 2) * n - 3, n - 1)


def test_narayana_specialization():
    for n in range(2, 21):
        for j in range(1, n + 1):
            assert count_box_by_long_ascents(0, n, j) == narayana(n - 1, j)


def test_second_gonal_values():
    assert [second_gonal(4, n) for n in range(1, 8)] == [n * n for n in range(1, 8)]
    assert [second_gonal(5, n) for n in range(1, 8)] == [2, 7, 15, 26, 40, 57, 77]


def test_second_gonal_is_lasc_column():
    for k in range(3, 9):
        for n in range(1, 21):
            assert second_gonal(k, n) == count_box_by_long_ascents(k - 3, n + 1, 2)


def test_lasc_diagonal_is_lower_box_count():
    for k in range(5):
        for n in range(1, 21):
            assert count_box_by_long_ascents(k + 1, n, n) == count_box(k, n)


def test_lasc_repeated_pairs():
    for k in range(5):
        for i in range(1, 5):
            n = (k + 2) * i - 1
            if n < 1:
                continue
            assert count_box_by_long_ascents(k, n, (k + 1) * i - 1) == (
                count_box_by_long_ascents(k, n, (k + 1) * i)
            )


def test_lasc_log_concavity_strict():
    for k in range(6):
        for n in range(3, 21):
            for j in range(2, n):
                f = count_box_by_long_ascents
                assert (
                    f(k, n, j) ** 2 - f(k, n, j - 1) * f(k, n, j + 1) > 0
                )


def test_tailed_counts_and_proportion():
    assert [count_tailed(1, n) for n in range(1, 7)] == [1, 1, 3, 12, 55, 273]
    assert tailed_proportion(1, 2) == Fraction(1, 2)
    assert tailed_proportion_limit(0) == 1
    assert tailed_proportion_limit(1) == Fraction(1, 3)
    assert tailed_proportion_limit(2) == Fraction(3, 16)


def test_tailed_proportion_falling_factorial_form():
    # ((k+1)n)_k / ((k+1) * ((k+2)n-2)_k) with falling factorials
    def falling(a, m):
        out = 1
        for i in range(m):
            out *= a - i
        return out

    for k in range(5):
        for n in range(1, 11):
            form = Fraction(
                falling((k + 1) * n, k), (k + 1) * falling((k + 2) * n - 2, k)
            )
            assert tailed_proportion(k, n) == form


def test_tailed_proportion_approaches_limit():
    for k in range(4):
        limit = tailed_proportion_limit(k)
        gaps = [abs(tailed_proportion(k, n) - limit) for n in (5, 10, 20)]
        assert gaps[0] >= gaps[1] >= gaps[2]


def test_count_kt_dyck_matches_box_counts():
    for k in range(5):
        for n in range(1, 11):
            assert count_kt_dyck(k + 1, k, n - 1) == count_box(k, n)


def test_count_kt_dyck_t0_is_fuss_catalan():
    for k in range(1, 5):
        for n in range(8):
            assert count_kt_dyck(k, 0, n) == fuss_catalan(k + 1, 1, n)


def test_domain_errors():
    with pytest.raises(ValueError):
        count_box(-1, 3)
    with pytest.raises(ValueError):
        count_box(1, 0)
    with pytest.raises(ValueError):
        count_kt_dyck(2, 3, 1)
    with pytest.raises(ValueError):
        narayana(0, 1)
