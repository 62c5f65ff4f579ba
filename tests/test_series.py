"""Truncated bivariate series: arithmetic, the five equations, coefficients."""

from fractions import Fraction
from math import comb

import pytest

from boxpaths import (
    BiSeries,
    augmented_long_ascent_residual,
    augmented_long_ascent_series,
    catalan,
    count_box,
    count_box_by_long_ascents,
    count_box_by_returns,
    dump_coefficients,
    fuss_catalan,
    generate_skew_dyck,
    long_ascent_residual,
    long_ascent_series,
    returns_residual,
    returns_series,
    skew_equation_residual,
    solve_skew_dyck_series,
    tree_equation_residual,
    tree_series,
)

SKEW_COUNTS = [1, 1, 3, 10, 36, 137, 543, 2219, 9285]


def x_series(T, X):
    return BiSeries.build(T, X, [(0, 1, 1)])


def test_build_and_coefficient_window():
    s = BiSeries.build(2, 3, [(1, 2, 5), (0, 0, 1), (9, 9, 7)])
    assert s.coefficient(1, 2) == 5
    assert s.coefficient(0, 0) == 1
    assert s.coefficient(9, 9) == 0  # outside the window, silently dropped
    assert s.coefficient(2, 4) == 0


def test_arithmetic_identities():
    x = x_series(3, 6)
    one = BiSeries.constant(1, 3, 6)
    assert ((one - x) * (one + x)).coefficient(0, 2) == -1
    assert (x ** 4).coefficient(0, 4) == 1
    assert (x ** 4) == x * x * x * x
    geom = (one - x).reciprocal()
    assert all(geom.coefficient(0, n) == 1 for n in range(7))
    assert ((one - x) * geom) == one


def test_reciprocal_requires_constant_term():
    x = x_series(2, 4)
    with pytest.raises(ZeroDivisionError):
        x.reciprocal()


def test_reciprocal_is_exact_over_the_integers():
    T, X = 2, 5
    x = x_series(T, X)
    geom = (1 - x).reciprocal()
    assert all(geom.coefficient(0, n) == 1 for n in range(X + 1))
    assert all(type(c) is int for row in geom.coeffs for c in row)
    # 1/(2 - x) = 1/2 + x/4 + ... has no integer coefficients
    with pytest.raises(ArithmeticError):
        (BiSeries.constant(2, T, X) - x).reciprocal()


def test_build_rejects_non_integral_values():
    assert BiSeries.build(1, 1, [(0, 0, Fraction(6, 3))]).coefficient(0, 0) == 2
    for value in (Fraction(1, 2), 0.5, float("inf"), "1"):
        with pytest.raises(ValueError):
            BiSeries.build(1, 1, [(0, 0, value)])


def test_pow_zero_and_mismatched_orders():
    x = x_series(2, 4)
    assert x ** 0 == BiSeries.constant(1, 2, 4)
    with pytest.raises(ValueError):
        x + x_series(2, 5)


def test_skew_series_diagonal():
    R = solve_skew_dyck_series(6, 17)
    want = [1, 2, 7, 30, 143, 728]
    got = [int(R.coefficient(n, 3 * n - 1)) for n in range(1, 7)]
    assert got == want
    assert got == [count_box(1, n) for n in range(1, 7)]


def test_skew_series_satisfies_equation():
    R = solve_skew_dyck_series(5, 12)
    assert skew_equation_residual(R).is_zero()


def test_skew_series_t1_column_counts_all_skew_paths():
    R = solve_skew_dyck_series(6, 14)
    for m in range(9):
        total = sum(R.coefficient(j, m) for j in range(7))
        assert total == SKEW_COUNTS[m]


def test_skew_series_t0_column_counts_factor_free_paths():
    R = solve_skew_dyck_series(4, 8)
    for m in range(7):
        brute = sum(
            1 for p in generate_skew_dyck(m) if "UDL" not in p.word
        )
        assert R.coefficient(0, m) == brute


def test_skew_series_coefficients_are_integers():
    R = solve_skew_dyck_series(5, 11)
    assert all(type(c) is int for row in R.coeffs for c in row)


def _skew_dp(t_order, x_order):
    """table[j][m]: skew Dyck paths of semilength m <= x_order with j <= t_order
    UDL-factors, by a transfer matrix over (height, previous step, progress
    through U D L).  A path of semilength m has 2m steps and ends at height 0."""
    table = [[0] * (x_order + 1) for _ in range(t_order + 1)]
    table[0][0] = 1
    layer = {(0, "", 0): [1]}
    for step in range(1, 2 * x_order + 1):
        nxt = {}
        for (h, prev, prog), poly in layer.items():
            moves = []
            if prev != "L":
                moves.append((h + 1, "U", 1, 0))
            if h > 0:
                moves.append((h - 1, "D", 2 if prog == 1 else 0, 0))
                if prev != "U":
                    moves.append((h - 1, "L", 0, 1 if prog == 2 else 0))
            for h2, s, prog2, shift in moves:
                if h2 > 2 * x_order - step:
                    continue  # too high to come back down in time
                row = nxt.setdefault((h2, s, prog2), [0] * (t_order + 1))
                for j, c in enumerate(poly[:t_order + 1 - shift]):
                    row[j + shift] += c
        layer = nxt
        if step % 2 == 0:
            for (h, _, _), poly in layer.items():
                if h == 0:
                    for j, c in enumerate(poly):
                        table[j][step // 2] += c
    return table


def test_skew_series_matches_transfer_matrix_deep():
    T, X = 13, 40
    R = solve_skew_dyck_series(T, X)
    table = _skew_dp(T, X)
    assert [[R.coefficient(j, m) for m in range(X + 1)] for j in range(T + 1)] == table
    assert [sum(table[j][m] for j in range(T + 1)) for m in range(9)] == SKEW_COUNTS
    for n in range(1, T + 1):
        assert R.coefficient(n, 3 * n - 1) == Fraction(comb(3 * n - 1, n), 3 * n - 1)


def test_long_ascent_and_returns_series_deep():
    T, X = 10, 30
    for k in range(4):
        F = long_ascent_series(k, T, X)
        H = returns_series(k, T, X)
        for n in range(1, X + 1):
            for j in range(T + 1):
                if (k, n, j) != (0, 1, 1):  # the degenerate cell, see below
                    assert F.coefficient(j, n) == count_box_by_long_ascents(k, n, j)
                assert H.coefficient(j, n) == count_box_by_returns(k, n, j)


def test_tree_series_coefficients():
    for arity in (2, 3, 4):
        C = tree_series(arity, 10)
        assert tree_equation_residual(C, arity).is_zero()
        for n in range(11):
            assert C.coefficient(0, n) == fuss_catalan(arity, 1, n)
    assert [int(tree_series(2, 6).coefficient(0, n)) for n in range(7)] == [
        catalan(n) for n in range(7)]


def test_tree_series_powers_count_forests():
    C = tree_series(3, 8)
    for r in (2, 3):
        p = C ** r
        for n in range(9):
            assert p.coefficient(0, n) == fuss_catalan(3, r, n)


def test_augmented_series_residual_and_t1():
    for k in (1, 2, 3):
        G = augmented_long_ascent_series(k, 6, 10)
        assert augmented_long_ascent_residual(G, k).is_zero()
        # t = 1 collapses the equation to the (k+1)-ary tree equation
        for n in range(7):
            total = sum(G.coefficient(j, n) for j in range(7))
            assert total == fuss_catalan(k + 1, 1, n)


def test_long_ascent_series_matches_table():
    for k in (1, 2):
        F = long_ascent_series(k, 6, 10)
        G = augmented_long_ascent_series(k + 1, 6, 10)
        assert long_ascent_residual(F, G, k).is_zero()
        for n in range(1, 11):
            for j in range(1, min(n, 6) + 1):
                assert F.coefficient(j, n) == count_box_by_long_ascents(k, n, j)


def test_long_ascent_series_k0_degenerate_cell():
    # the series tags the unique size-1 path with t even though the empty
    # Dyck word has no ascents; everywhere else it matches the closed form
    F = long_ascent_series(0, 5, 9)
    assert F.coefficient(1, 1) == 1
    assert count_box_by_long_ascents(0, 1, 1) == 0
    for n in range(2, 10):
        for j in range(1, min(n, 5) + 1):
            assert F.coefficient(j, n) == count_box_by_long_ascents(0, n, j)


def test_returns_series_matches_table():
    for k in (0, 1, 2):
        H = returns_series(k, 6, 10)
        C = tree_series(k + 2, 10, 6)
        assert returns_residual(H, C, k).is_zero()
        for n in range(1, 11):
            for j in range(1, min(n, 6) + 1):
                assert H.coefficient(j, n) == count_box_by_returns(k, n, j)


def test_dump_coefficients_format():
    s = BiSeries.build(1, 2, [(0, 0, 1), (1, 2, 5)])
    lines = dump_coefficients(s).splitlines()
    assert lines[0] == "0\t0\t1"
    assert lines[-1] == "1\t2\t5"
    # row-major: all j=0 cells before the j=1 cells
    assert len(lines) == 2 * 3
