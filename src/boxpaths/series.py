"""Truncated bivariate power series and the functional equations they solve.

BiSeries holds integer coefficients c[j][n] of t^j x^n, truncated at fixed
orders.  The generating functions here mark semilength or size by x and a
path statistic by t:

  R(t, x):   skew Dyck paths, t marks UDL-factors, x marks semilength;
             x^2 R^3 - x(2-x) R^2 + (1-x^2) R - 1 + x + x^2 - t x^2 = 0
  C_k(x):    k-ary trees by node count, C = 1 + x C^k
  G_k(t, x): augmented k-Dyck paths, t marks long ascents,
             G = 1 + x G^k (G - 1 + t)
  F_k(t, x): k-box paths by long ascents, F = x G_(k+1)^k (G_(k+1) - 1 + t)
  H_k(t, x): k-box paths by returns, H = t x C^k + t x C^(k+1) H
             with C = C_(k+2)

Each equation gives the x^n coefficient of its series from the x^0..x^(n-1)
coefficients alone (R after moving (1 - x^2) R - R to the right-hand side).
The solvers therefore hold a series as a list of x-columns, each a
polynomial in t, and compute every column once, from the columns below it,
with online products (van der Hoeven, "Relax, but don't be too lazy", 2002).
Each column is stored once, as one int with coefficient j at bit j*w
(Kronecker substitution), at one width w for every series of a solve: a
rule is an integer combination of ints, and column n of a product a sum of
n + 1 big-int products.  Every series solved is a counting series, so no
digit is negative, and each solve keeps its columns' digit sums below
2^w - 1, so no digit reaches 2^w; the digits are read back once, at the
end, in one pass over the columns.
Every width is a whole number of bytes, so a growth moves each digit's
bytes to the wider width with strided byte copies, and a solve starts at
the width a growth to hold a digit sum of 1 would give.  BiSeries
arithmetic is a separate code path on full truncated products; the
*_residual functions use it to check what the solvers return.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import mul


def _integer(value) -> int:
    """`value` as an int; ValueError when it is not a whole number."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"series coefficient {value!r} is not an integer")


def _check_orders(t_order: int, x_order: int) -> None:
    """Reject a negative truncation order, which no coefficient table has."""
    if t_order < 0:
        raise ValueError("t_order must be >= 0")
    if x_order < 0:
        raise ValueError("x_order must be >= 0")


@dataclass(frozen=True)
class BiSeries:
    """Polynomial truncation of a power series in t (outer) and x (inner)."""

    t_order: int
    x_order: int
    coeffs: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(t_order: int, x_order: int, terms=()) -> "BiSeries":
        """Series with the given (j, n, value) terms, zero elsewhere; every
        exponent must be >= 0 and every value a whole number."""
        _check_orders(t_order, x_order)
        rows = [[0] * (x_order + 1) for _ in range(t_order + 1)]
        for j, n, value in terms:
            if j < 0 or n < 0:
                raise ValueError(f"term {(j, n, value)} has a negative exponent")
            value = _integer(value)
            if j <= t_order and n <= x_order:
                rows[j][n] += value
        return BiSeries(t_order, x_order,
                        tuple(tuple(row) for row in rows))

    @staticmethod
    def constant(value, t_order: int, x_order: int) -> "BiSeries":
        return BiSeries.build(t_order, x_order, [(0, 0, value)])

    def coefficient(self, j: int, n: int) -> int:
        """[t^j x^n], zero outside the truncation window."""
        if 0 <= j <= self.t_order and 0 <= n <= self.x_order:
            return self.coeffs[j][n]
        return 0

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.coeffs for c in row)

    def _same_orders(self, other: "BiSeries") -> None:
        if (self.t_order, self.x_order) != (other.t_order, other.x_order):
            raise ValueError("truncation orders differ")

    def __add__(self, other) -> "BiSeries":
        other = self._coerce(other)
        self._same_orders(other)
        return BiSeries(self.t_order, self.x_order, tuple(
            tuple(a + b for a, b in zip(ra, rb))
            for ra, rb in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other) -> "BiSeries":
        other = self._coerce(other)
        return self + (-other)

    def __rsub__(self, other) -> "BiSeries":
        return self._coerce(other) - self

    __radd__ = __add__

    def __neg__(self) -> "BiSeries":
        return BiSeries(self.t_order, self.x_order, tuple(
            tuple(-a for a in row) for row in self.coeffs))

    def _coerce(self, other) -> "BiSeries":
        if isinstance(other, BiSeries):
            return other
        return BiSeries.constant(other, self.t_order, self.x_order)

    def __mul__(self, other) -> "BiSeries":
        other = self._coerce(other)
        self._same_orders(other)
        T, X = self.t_order, self.x_order
        rows = [[0] * (X + 1) for _ in range(T + 1)]
        for j1, row in enumerate(self.coeffs):
            for n1, a in enumerate(row):
                if a == 0:
                    continue
                for j2 in range(T + 1 - j1):
                    orow = other.coeffs[j2]
                    target = rows[j1 + j2]
                    for n2 in range(X + 1 - n1):
                        b = orow[n2]
                        if b:
                            target[n1 + n2] += a * b
        return BiSeries(T, X, tuple(tuple(r) for r in rows))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "BiSeries":
        if exponent < 0:
            raise ValueError("negative powers are not supported")
        out = BiSeries.constant(1, self.t_order, self.x_order)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def reciprocal(self) -> "BiSeries":
        """Inverse series; requires an invertible constant term.  Raises
        ArithmeticError when a coefficient of the inverse is not an integer."""
        c00 = self.coeffs[0][0]
        if c00 == 0:
            raise ZeroDivisionError("series has no constant term")
        T, X = self.t_order, self.x_order
        rows = [[0] * (X + 1) for _ in range(T + 1)]
        for n in range(X + 1):
            for j in range(T + 1):
                acc = 1 if (j, n) == (0, 0) else 0
                for j2 in range(j + 1):
                    for n2 in range(n + 1):
                        if (j2, n2) == (j, n):
                            continue
                        b = rows[j2][n2]
                        if b:
                            acc -= self.coeffs[j - j2][n - n2] * b
                quotient, remainder = divmod(acc, c00)
                if remainder:
                    raise ArithmeticError(
                        f"[t^{j} x^{n}] of the reciprocal is {acc}/{c00}, "
                        "not an integer")
                rows[j][n] = quotient
        return BiSeries(T, X, tuple(tuple(r) for r in rows))


def _t(T: int, X: int) -> BiSeries:
    return BiSeries.build(T, X, [(1, 0, 1)])


def _x(T: int, X: int) -> BiSeries:
    return BiSeries.build(T, X, [(0, 1, 1)])


# ------------------------------------------------------------ the solvers


# Bits added to the width a growth needs, at every width, so that growths
# are rare; the sum is then rounded up to whole bytes.  Most growths come
# from a digit sum one bit too wide, and 1 + 31 bits is 4 whole bytes, so
# such a growth widens by 32 bits with nothing lost to rounding; a slack of
# 32 widens it by 40, and made solve_skew_dyck_series(51, 100) about 1.5 %
# slower.  A solve starts at the width that holds a digit sum of 1:
# 2 + 31 bits, rounded up to 40.
_PACK_SLACK = 31


def _unpack(value: int, width: int, cap: int) -> list[int]:
    """The base-2^width digits of a non-negative value, lowest first, with
    no trailing zeros; cap is 2^width - 1.  The one digit reader: a shift
    and a mask per digit, up to the value's bit length."""
    return [value >> s & cap for s in range(0, value.bit_length(), width)]


def _repack(cols: list[int], T: int, old: int, new: int) -> list[int]:
    """Columns of T + 1 digits of `old` bytes each, as digits of `new` bytes.

    The columns are laid end to end as little-endian bytes, so that byte b
    of every digit sits at b, b + old, b + 2 old, ...; one strided copy
    per byte of the old digit moves it to b, b + new, ..., and the bytes
    above each digit's old top stay zero."""
    old_size, new_size = (T + 1) * old, (T + 1) * new
    raw = b"".join([c.to_bytes(old_size, "little") for c in cols])
    out = bytearray(len(cols) * new_size)
    for b in range(old):
        out[b::new] = raw[b::old]
    return [int.from_bytes(out[i:i + new_size], "little")
            for i in range(0, len(out), new_size)]


class _Solve:
    """The one Kronecker width w that every series of a solve shares.

    Each x-column is stored once, as its polynomial in t evaluated at
    t = 2^w, so an integer combination of columns is the packed combination
    and t times a column is a shift by w, masked to T + 1 digits.  Every
    series a solver builds is a counting series, so every digit is a
    non-negative count, and the solve keeps each column's digit sum, its
    value at t = 1, below 2^w - 1.  So every digit is below 2^w: the int's
    base-2^w digits are the coefficients, and its residue mod 2^w - 1 is
    its digit sum.  Before a rule packs a column, it passes `fit` a bound
    on that column's digit sum, and calls `fit` only once the bound has
    reached `cap`, since every other bound fits.  A bound that does not fit
    repacks every column of the solve at a wider width: the bound's bits plus
    _PACK_SLACK, rounded up to whole bytes, so that a repack is a strided
    copy of digit bytes (`_repack`).  So a rule forces every column it
    reads before it reads any, and never combines a value packed at the
    old width.  A solve starts at width 0 and grows, with no column yet,
    to hold the digit sum 1 of its constant columns."""

    def __init__(self, T: int):
        self.T = T
        self.series: list[_Columns] = []
        self.width = self.cap = 0
        self.fit(1)

    def _resize(self, width: int) -> None:
        self.width = width
        self.cap = (1 << width) - 1
        self.mask = (1 << (self.T + 1) * width) - 1
        self.t = (1 << width) & self.mask  # t packed; 0 when T = 0

    def fit(self, bound: int) -> None:
        """Widen the solve, if need be, to hold a digit sum of `bound`.
        `combine` and `_product` test `bound >= cap` before they call it,
        so that a bound that fits costs them no call."""
        if bound < self.cap:
            return
        width = -(-((bound + 1).bit_length() + _PACK_SLACK) // 8) * 8
        for s in self.series:
            s.cols[:] = _repack(s.cols, self.T, self.width // 8, width // 8)
        self._resize(width)

    def combine(self, *terms: tuple, extra: int = 0) -> int:
        """The sum of c * series[m] over the (c, series, m) terms, which is a
        counting column: its digit sum is at most that of its positive
        terms, plus `extra`.  A column below x^0 is 0.  Only a column that
        is not yet held is forced, and every one is forced before any is
        read; the terms are then read from the stored columns directly."""
        for _, s, m in terms:
            if len(s.cols) <= m:
                s[m]
        bound = extra + sum(c * s.sums[m] for c, s, m in terms
                            if c > 0 and m >= 0)
        if bound >= self.cap:
            self.fit(bound)
        return sum(c * s.cols[m] for c, s, m in terms if m >= 0)


class _Columns:
    """A series in x held as its x-columns, packed at its solve's width, and
    each column's digit sum.  `rule(n)` returns column n, packed.  It may
    read only columns below n of this series, and columns up to n of the
    series it is built from.  Each column is computed on first use and
    kept."""

    def __init__(self, solve: _Solve, rule):
        self.solve = solve
        self._rule = rule
        self.cols: list[int] = []
        self.sums: list[int] = []
        self._powers: dict[int, _Columns] = {}
        solve.series.append(self)

    def __getitem__(self, n: int) -> int:
        """Column n, packed; 0 below x^0.  A column not yet held is computed,
        with every one below it, and kept.  The solver's own loops test
        `len(cols) <= n` and index `cols` directly, so that a held column
        costs no call."""
        cols = self.cols
        if n < len(cols):
            return cols[n] if n >= 0 else 0
        solve = self.solve
        while len(cols) <= n:
            value = self._rule(len(cols))
            self.sums.append(value % solve.cap)
            cols.append(value)
        return cols[n]

    def __mul__(self, other: "_Columns") -> "_Columns":
        """Online product: column n is the sum of a[i] b[n-i], i = 0..n."""
        return _Columns(self.solve, lambda n: _product(self, other, n))

    def power(self, e: int) -> "_Columns":
        """self^e, from the powers already built: self^(e-1) times self when
        e is odd or self^(e-1) is held, else the square of self^(e/2), so
        C^4 = C^2 C^2 and C^5 = C^4 C take 3 products where a chain of
        powers takes 4."""
        powers = self._powers
        if not powers:
            powers.update({0: _Columns(self.solve, lambda n: 0 if n else 1),
                           1: self})
        if e not in powers:
            if e % 2 or e - 1 in powers:
                powers[e] = self.power(e - 1) * self
            else:
                half = self.power(e // 2)
                powers[e] = half * half
        return powers[e]

    def to_biseries(self, x_order: int) -> BiSeries:
        """The series to x^x_order, its digits read back in one pass: each
        column unpacked by `_unpack`, and the columns transposed into t-rows
        by zip_longest, which pads a short column with zeros.  No column has
        more than T + 1 digits; rows of zeros make up any t-rows above the
        highest digit of every column."""
        self[x_order]
        solve = self.solve
        width, cap = solve.width, solve.cap
        rows = tuple(zip_longest(
            *[_unpack(c, width, cap) for c in self.cols[:x_order + 1]],
            fillvalue=0))
        zeros = ((0,) * (x_order + 1),) * (solve.T + 1 - len(rows))
        return BiSeries(solve.T, x_order, rows + zeros)


def _product(a: _Columns, b: _Columns, n: int) -> int:
    """Column n of the online product a * b, by Kronecker substitution: the
    sum of the n + 1 int products a[i] b[n-i], masked to T + 1 digits.
    Every digit of the sum, above t^T too, is at most its digit sum, the
    sum of the n + 1 products of the factors' digit sums; once that fits
    the width, no digit carries; a bound that reaches `cap` widens the
    solve first.  A factor column is forced only when it is not yet held,
    and both before either is read."""
    if len(a.cols) <= n:
        a[n]
    if len(b.cols) <= n:
        b[n]
    bound = sum(map(mul, a.sums[:n + 1], b.sums[n::-1]))
    solve = a.solve
    if bound >= solve.cap:
        solve.fit(bound)
    return sum(map(mul, a.cols[:n + 1], b.cols[n::-1])) & solve.mask


def solve_skew_dyck_series(t_order: int, x_order: int) -> BiSeries:
    """R(t, x): [t^j x^n] counts skew Dyck paths of semilength n with j
    UDL-factors.  Column n comes from the cubic written as
    R = x^2 R + (1 - x - x^2 + t x^2) + x(2 - x) R^2 - x^2 R^3."""
    _check_orders(t_order, x_order)
    solve = _Solve(t_order)

    def column(n: int) -> int:
        # the constant 1 - x - x^2 + t x^2 adds at most 1 to a digit sum
        value = solve.combine((1, R, n - 2), (2, R2, n - 1), (-1, R2, n - 2),
                              (-1, R3, n - 2), extra=1)
        return value + (1, -1, solve.t - 1)[n] if n < 3 else value

    R = _Columns(solve, column)
    R2 = R.power(2)
    R3 = R.power(3)
    return R.to_biseries(x_order)


def skew_equation_residual(R: BiSeries) -> BiSeries:
    """x^2 R^3 - x(2-x) R^2 + (1-x^2) R - 1 + x + x^2 - t x^2."""
    T, X = R.t_order, R.x_order
    t, x = _t(T, X), _x(T, X)
    one = BiSeries.constant(1, T, X)
    R2 = R * R
    return (x * x * R2 * R - x * (2 - x) * R2 + (one - x * x) * R
            - one + x + x * x - t * x * x)


def _tree_columns(k: int, solve: _Solve) -> _Columns:
    """C_k = 1 + x C_k^k."""
    C = _Columns(solve, lambda n: C.power(k)[n - 1] if n else 1)
    return C


def tree_series(k: int, x_order: int, t_order: int = 0) -> BiSeries:
    """C_k(x) = 1 + x C_k(x)^k, counting k-ary trees by nodes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_orders(t_order, x_order)
    return _tree_columns(k, _Solve(t_order)).to_biseries(x_order)


def tree_equation_residual(C: BiSeries, k: int) -> BiSeries:
    return C - 1 - _x(C.t_order, C.x_order) * C ** k


def _augmented_columns(k: int, solve: _Solve) -> tuple[_Columns, _Columns]:
    """G_k = 1 + x G_k^k D with D = G_k - 1 + t; returns (G_k, D)."""
    D = _Columns(solve, lambda n: G[n] if n else solve.t)
    G = _Columns(solve, lambda n: GkD[n - 1] if n else 1)
    GkD = G.power(k) * D
    return G, D


def augmented_long_ascent_series(k: int, t_order: int, x_order: int) -> BiSeries:
    """G_k(t, x) = 1 + x G^k (G - 1 + t): augmented k-Dyck paths by size (x)
    and long ascents (t)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_orders(t_order, x_order)
    return _augmented_columns(k, _Solve(t_order))[0].to_biseries(x_order)


def augmented_long_ascent_residual(G: BiSeries, k: int) -> BiSeries:
    t, x = _t(G.t_order, G.x_order), _x(G.t_order, G.x_order)
    return G - 1 - x * G ** k * (G - 1 + t)


def long_ascent_series(k: int, t_order: int, x_order: int) -> BiSeries:
    """F_k(t, x): [t^j x^n] counts k-box paths of size n with j long ascents."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_orders(t_order, x_order)
    solve = _Solve(t_order)
    G, D = _augmented_columns(k + 1, solve)
    GkD = G.power(k) * D if k else D  # F_0 = x D
    return _Columns(solve, lambda n: GkD[n - 1]).to_biseries(x_order)


def long_ascent_residual(F: BiSeries, G: BiSeries, k: int) -> BiSeries:
    """F_k - x G_(k+1)^k (G_(k+1) - 1 + t) for the pair (F_k, G_(k+1))."""
    t, x = _t(F.t_order, F.x_order), _x(F.t_order, F.x_order)
    return F - x * G ** k * (G - 1 + t)


def returns_series(k: int, t_order: int, x_order: int) -> BiSeries:
    """H_k(t, x): [t^j x^n] counts k-box paths of size n with j returns.

    H = t x C^k + t x C^(k+1) H where C = C_(k+2) counts the augmented
    (k+1)-Dyck prefixes between consecutive returns.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_orders(t_order, x_order)
    solve = _Solve(t_order)
    C = _tree_columns(k + 2, solve)

    def column(n: int) -> int:
        value = solve.combine((1, C.power(k), n - 1), (1, CH, n - 1))
        return value << solve.width & solve.mask

    H = _Columns(solve, column)
    CH = C.power(k + 1) * H
    return H.to_biseries(x_order)


def returns_residual(H: BiSeries, C: BiSeries, k: int) -> BiSeries:
    """H (1 - t x C^(k+1)) - t x C^k for the pair (H_k, C_(k+2))."""
    t, x = _t(H.t_order, H.x_order), _x(H.t_order, H.x_order)
    return H * (1 - t * x * C ** (k + 1)) - t * x * C ** k
