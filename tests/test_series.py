"""Truncated bivariate series: arithmetic, the five equations, coefficients."""

import random
import re
from fractions import Fraction
from math import comb

import pytest

from boxpaths import series
from boxpaths import (
    BiSeries,
    augmented_long_ascent_residual,
    augmented_long_ascent_series,
    catalan,
    count_box,
    count_box_by_long_ascents,
    count_box_by_returns,
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


@pytest.mark.parametrize("term", [(-1, 0, 5), (0, -1, 7), (-3, -2, 1)])
def test_build_rejects_negative_exponents(term):
    # an exponent indexes a row, so a negative one would wrap around to
    # the far end of the window
    with pytest.raises(ValueError, match=re.escape(f"term {term}")):
        BiSeries.build(2, 2, [term])


def test_build_rejects_non_integral_values():
    assert BiSeries.build(1, 1, [(0, 0, Fraction(6, 3))]).coefficient(0, 0) == 2
    for value in (Fraction(1, 2), 0.5, float("inf"), "1"):
        with pytest.raises(ValueError):
            BiSeries.build(1, 1, [(0, 0, value)])


@pytest.mark.parametrize("call", [
    lambda: BiSeries.build(-1, 3),
    lambda: BiSeries.build(2, -1),
    lambda: solve_skew_dyck_series(-1, -1),
    lambda: solve_skew_dyck_series(2, -1),
    lambda: tree_series(2, -1),
    lambda: tree_series(2, 3, -1),
    lambda: augmented_long_ascent_series(1, -1, 3),
    lambda: long_ascent_series(0, -1, 2),
    lambda: returns_series(1, 2, -1),
], ids=["build-t", "build-x", "skew", "skew-x", "tree-x", "tree-t",
        "augmented-t", "long-ascent-t", "returns-x"])
def test_negative_orders_raise_at_the_call(call):
    with pytest.raises(ValueError, match="_order must be >= 0"):
        call()


def test_zero_orders_hold_the_constant_term():
    assert BiSeries.build(0, 0, [(0, 0, 3)]).coeffs == ((3,),)
    for s in (solve_skew_dyck_series(0, 0), tree_series(3, 0),
              augmented_long_ascent_series(2, 0, 0)):
        assert s.coeffs == ((1,),)
    for s in (long_ascent_series(1, 0, 0), returns_series(1, 0, 0)):
        assert s.coeffs == ((0,),)


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


def test_skew_series_column_degrees():
    # a path of semilength n holds at most (n + 1) // 3 U D L-factors, and
    # U^j (U D L)^j (D L)^(j-1) ... reaches it; bfile skew-counts solves at
    # that t-order
    R = solve_skew_dyck_series(30, 60)
    for n in range(61):
        degree = max(j for j in range(31) if R.coefficient(j, n))
        assert degree == (n + 1) // 3, n


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


def _all_solves(T, X, ks=3):
    out = [solve_skew_dyck_series(T, X)]
    for k in range(ks):
        out += [tree_series(k + 2, X, T), augmented_long_ascent_series(k + 1, T, X),
                long_ascent_series(k, T, X), returns_series(k, T, X)]
    return out


def test_every_solve_has_a_zero_residual():
    # each solver's columns, products and growths end in a series that its
    # equation, in BiSeries arithmetic on full truncated products, holds to
    # (13, 40); R, C_(k+2), G_(k+1), F_k and H_k come in that order
    T, X = 13, 40
    R, *rest = _all_solves(T, X)
    assert skew_equation_residual(R).is_zero()
    for k in range(3):
        C, G, F, H = rest[4 * k:4 * k + 4]
        assert tree_equation_residual(C, k + 2).is_zero()
        assert augmented_long_ascent_residual(G, k + 1).is_zero()
        assert long_ascent_residual(F, G, k).is_zero()
        assert returns_residual(H, C, k).is_zero()


def _trim(poly):
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _pack(poly, width):
    """poly evaluated at t = 2^width."""
    return sum(c << j * width for j, c in enumerate(poly))


def _packed(solve, polys):
    """A rule that widens the solve to hold the digit sum of polys[n] and
    returns it packed at the solve's width, as the solvers' rules do."""
    def rule(n):
        solve.fit(sum(polys[n]))
        return _pack(polys[n], solve.width)
    return rule


def _digits(s, n):
    """Column n of s as its coefficient list, with no trailing zeros."""
    value = s[n]
    return series._unpack(value, s.solve.width, s.solve.cap)


def _naive_column(x, y, n, T):
    """Column n of the product of the series whose columns x(i) and y(i)
    give as coefficient lists, pair by pair."""
    want = [0] * (T + 1)
    for i in range(n + 1):
        for j1, c in enumerate(x(i)):
            for j2, d in enumerate(y(n - i)):
                if j1 + j2 <= T:
                    want[j1 + j2] += c * d
    return _trim(want)


def _check_products(solve, polys, T):
    """Every column of a * b and of a * a, for the two series a and b whose
    columns are the coefficient lists in polys, against the naive product."""
    a, b = (series._Columns(solve, _packed(solve, p)) for p in polys)
    for (x, y), (p, q) in (((a, b), polys), ((a, a), (polys[0], polys[0]))):
        product = x * y
        for n in range(len(p)):
            assert _digits(product, n) == _naive_column(p.__getitem__, q.__getitem__, n, T)


@pytest.mark.parametrize("seed", [0, 40, 10**9])
def test_packed_product_of_signed_columns(monkeypatch, seed):
    # a solve stores only counting columns, so the signed draws are folded
    # to their absolute values: up to 3n bits in column n, some zero, some
    # columns empty
    rng = random.Random(seed)
    T, X = 5, 12
    cols = [[[abs(rng.randint(-8**n, 8**n)) * rng.randint(0, 1)
              for _ in range(rng.randint(0, T + 1))]
             for n in range(X + 1)] for _ in range(2)]
    _check_products(series._Solve(T), cols, T)
    # full columns of equal coefficients: every digit sums the most terms
    # the columns allow, and at t_order 0 the one digit is the bound itself
    monkeypatch.setattr(series, "_PACK_SLACK", 0)
    for t_order in (T, 0):
        solve = series._Solve(t_order)
        polys = [[2**30 - 1] * (t_order + 1)] * (X + 1)
        full = series._Columns(solve, _packed(solve, polys))
        square = full * full
        for n in range(X + 1):
            assert _digits(square, n) == _naive_column(
                polys.__getitem__, polys.__getitem__, n, t_order)
    # with no slack a width is the bound's bits rounded up to whole bytes:
    # a column of (2^39 - 1)/7 widens the solve to 40 bits, and column 6
    # of its product with a column of 2s, 7 products of 2 (2^39 - 1)/7,
    # is the largest digit sum that width holds, 2^40 - 2
    solve = series._Solve(0)
    twos = series._Columns(solve, lambda n: 2)
    big = series._Columns(solve, _packed(solve, [[(2**39 - 1) // 7]] * (X + 1)))
    product = twos * big
    assert _digits(product, 6) == [2**40 - 2]
    assert solve.width == 40
    for n in range(X + 1):
        assert _digits(product, n) == _naive_column(
            lambda i: [2], lambda i: [(2**39 - 1) // 7], n, 0)


@pytest.mark.parametrize("t_order", [0, 3])
def test_packed_product_past_4096_bits(t_order):
    # column n holds digits of up to 600 n + 1 bits, so the digit bounds of
    # the columns and of their products pass 4096 bits part way through;
    # each growth adds the slack and repacks, and every product column
    # stays packed and exact
    rng = random.Random(t_order)
    X = 9
    polys = [[[rng.getrandbits(600 * n + 1) for _ in range(t_order + 1)]
              for n in range(X + 1)] for _ in range(2)]
    solve = series._Solve(t_order)
    _check_products(solve, polys, t_order)
    assert solve.width > 4096


def _read_out_reference(cols, T, X, width):
    """The t-rows of the first X + 1 packed columns, digit j of column n
    shifted down by j * width and masked, one digit at a time."""
    mask = (1 << width) - 1
    return tuple(tuple(cols[n] >> j * width & mask for n in range(X + 1))
                 for j in range(T + 1))


def _random_columns(rng, T, count, top):
    """count digit lists of up to T + 1 digits below `top`: zero columns,
    columns whose top digits are 0, and full ones."""
    out = []
    for n in range(count):
        size = (0, T + 1, rng.randint(1, T + 1))[n % 3]
        out.append([rng.randint(0, top) * rng.randint(0, 1) for _ in range(size)])
    return out


@pytest.mark.parametrize("T, X", [(0, 0), (0, 9), (4, 0), (1, 6), (7, 16), (13, 5)])
@pytest.mark.parametrize("width", [40, 72, 80])
def test_read_out_matches_a_digit_reference(T, X, width):
    rng = random.Random(1000 * T + X + width)
    solve = series._Solve(T)
    solve._resize(width)
    # digit sums stay below 2^width - 1, so the width holds every column
    polys = _random_columns(rng, T, X + 3, (1 << width) // (T + 2) - 1)
    polys[-1] = [0] * T + [(1 << width) - 2]
    s = series._Columns(solve, _packed(solve, polys))
    s[X + 2]  # columns past x_order are held but not read
    got = s.to_biseries(X)
    assert solve.width == width
    assert got.coeffs == _read_out_reference(s.cols, T, X, width)
    assert got.coeffs == tuple(zip(*[(p + [0] * (T + 1))[:T + 1] for p in polys[:X + 1]]))
    # the one digit reader stops at the top nonzero digit
    assert [series._unpack(c, width, solve.cap) for c in s.cols] == [
        _trim(p[:]) for p in polys]


@pytest.mark.parametrize("T, X", [(0, 5), (3, 8), (6, 0)])
def test_read_out_past_a_small_pack_bits(monkeypatch, T, X):
    # a solve packed at a small width grows to hold a column of 2^40 as its
    # first column, and the table is read back at the grown width
    monkeypatch.setattr(series, "_PACK_SLACK", 13)
    rng = random.Random(T + X)
    solve = series._Solve(T)
    assert solve.width == 16
    polys = _random_columns(rng, T, X + 1, 2**20)
    polys[0] = [2**40] + [0] * T
    s = series._Columns(solve, _packed(solve, polys))
    got = s.to_biseries(X)
    assert solve.width == 56
    assert got.coeffs == _read_out_reference(s.cols, T, X, 56)
    assert got.coeffs == tuple(zip(*[(p + [0] * (T + 1))[:T + 1] for p in polys]))


def test_a_digit_sum_of_cap_widens(monkeypatch):
    # a width w does not hold a digit sum of 2^w - 1 itself, whose residue
    # mod 2^w - 1 would read as 0, so a bound that equals cap widens
    monkeypatch.setattr(series, "_PACK_SLACK", 0)
    solve = series._Solve(0)
    assert solve.width == 8
    ones = series._Columns(solve, lambda n: 1)
    product = ones * series._Columns(solve, lambda n: 51)
    product[3]
    assert (solve.width, product.sums) == (8, [51, 102, 153, 204])
    product[4]
    assert (solve.width, product.sums[4]) == (16, 255)
    solve = series._Solve(0)
    a, b = (series._Columns(solve, lambda n, c=c: c) for c in (100, 155))
    assert solve.combine((1, a, 0), (1, b, 0)) == 255
    assert solve.width == 16


# the width growths of the 17 solves of _all_solves(T, X, ks=4) at
# _PACK_SLACK = 1, where each growth adds one byte
GROWTHS = {(0, 10): 19, (1, 5): 5, (6, 14): 57, (7, 16): 67, (13, 24): 117, (10, 30): 146}


@pytest.mark.parametrize("T, X", list(GROWTHS))
def test_width_growth_repacks_every_column(monkeypatch, T, X):
    # with 1 bit of slack every solve starts at 8 bits and its width grows,
    # mostly a byte at a time, mid-solve, often while a rule has forced
    # some of its columns and not yet read them; each growth repacks them
    # all.  The reference solves start at 264 bits, past every width
    # these orders need, and never grow.
    widths = []
    resize = series._Solve._resize

    def counted(solve, width):
        widths.append(width)
        resize(solve, width)

    monkeypatch.setattr(series._Solve, "_resize", counted)
    monkeypatch.setattr(series, "_PACK_SLACK", 256)
    want = _all_solves(T, X, ks=4)
    assert widths == [264] * len(want)
    widths.clear()
    monkeypatch.setattr(series, "_PACK_SLACK", 1)
    assert _all_solves(T, X, ks=4) == want
    # one start a solve, at 8 bits, and the growths of all 17 solves
    assert widths.count(8) == len(want) == 17
    assert len(widths) - len(want) == GROWTHS[T, X]


def _repack_reference(cols, T, old, new):
    """The columns' digits unpacked one by one and packed at the new width."""
    mask = (1 << 8 * old) - 1
    return [_pack([c >> 8 * old * d & mask for d in range(T + 1)], 8 * new)
            for c in cols]


@pytest.mark.parametrize("T", [0, 1, 7, 13])
def test_repack_moves_digit_bytes(T):
    rng = random.Random(T)
    for old in range(1, 17):
        for new in (old, old + 1, rng.randint(old, 64), 64):
            top = (1 << 8 * old) - 1
            # random digits of every length, zero columns, digits of all
            # 1 bits, and a column of them
            cols = [sum(rng.randint(0, top) >> rng.randint(0, 8 * old) << 8 * old * d
                        for d in range(T + 1)) for _ in range(5)]
            cols += [0, top, top << 8 * old * T, (1 << 8 * old * (T + 1)) - 1, 0]
            assert series._repack(cols, T, old, new) == _repack_reference(cols, T, old, new)
            assert series._repack([], T, old, new) == []


@pytest.mark.parametrize("slack, first", [(31, 40), (21, 24), (13, 16), (0, 8)])
def test_solve_widths_are_whole_bytes(monkeypatch, slack, first):
    # a solve starts at the width that holds a digit sum of 1: 2 bits and
    # the slack, rounded up to whole bytes.  A growth is the bits its bound
    # needs, at least one more than the old width, plus the slack, rounded
    # up to whole bytes too
    monkeypatch.setattr(series, "_PACK_SLACK", slack)
    steps = []
    resize = series._Solve._resize

    def counted(solve, width):
        steps.append((solve.width, width))
        resize(solve, width)

    monkeypatch.setattr(series._Solve, "_resize", counted)
    solves = _all_solves(13, 24)
    assert [new for old, new in steps if not old] == [first] * len(solves)
    assert all(new % 8 == 0 for _, new in steps)
    growths = [(old, new) for old, new in steps if old]
    assert growths
    step = -(-(1 + slack) // 8) * 8
    assert all(new - old >= step for old, new in growths)


def test_long_ascent_series_k0_is_x_times_d(monkeypatch):
    # F_0 = x G_1^0 (G_1 - 1 + t) = x D, so the k = 0 solve reads D
    # directly: its products are those of G_1 to one order less
    T, X = 7, 16
    F = long_ascent_series(0, T, X)
    G = augmented_long_ascent_series(1, T, X)
    assert F == x_series(T, X) * (G - 1 + BiSeries.build(T, X, [(1, 0, 1)]))
    calls = []
    product = series._product
    monkeypatch.setattr(series, "_product", lambda a, b, n: calls.append(n) or product(a, b, n))
    long_ascent_series(0, T, X)
    alone = calls[:]
    calls.clear()
    augmented_long_ascent_series(1, T, X - 1)
    assert alone == calls


def test_powers_come_from_cached_halves(monkeypatch):
    # C^e is built from powers already held: C^4 = C^2 C^2 and C^5 = C^4 C,
    # so tree_series(k, 16, 7) makes 16 product columns for each of C^2;
    # C^2, C^3; C^2, C^4; and C^2, C^4, C^5, where a chain of powers makes
    # 16 (k - 1).  The series still solves its equation.
    calls = []
    product = series._product
    monkeypatch.setattr(series, "_product", lambda a, b, n: calls.append(n) or product(a, b, n))
    made = {}
    for k in (2, 3, 4, 5):
        calls.clear()
        C = tree_series(k, 16, 7)
        made[k] = len(calls)
        assert tree_equation_residual(C, k).is_zero()
    assert made == {2: 16, 3: 32, 4: 32, 5: 48}
    # every power, in any order of first use, is the BiSeries power
    T, X = 2, 9
    C = series._tree_columns(2, series._Solve(T))
    want = tree_series(2, X, T)
    for e in (6, 0, 9, 1, 4, 7, 12, 3):
        assert C.power(e).to_biseries(X) == want ** e, e


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

