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
A product packs each factor column into one int, coefficient j at bit j*w
(Kronecker substitution), so its column n is a sum of n + 1 big-int
products, read back as T + 1 unsigned base-2^w digits, since every factor
is a counting series.  The width w bounds every digit of the sum; past
_PACK_BITS bits, or for a negative coefficient, the product multiplies
coefficient by coefficient instead.  BiSeries arithmetic is a separate
code path on full truncated products; the *_residual functions use it to
check what the solvers return.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        value must be a whole number."""
        _check_orders(t_order, x_order)
        rows = [[0] * (x_order + 1) for _ in range(t_order + 1)]
        for j, n, value in terms:
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


def _trim(poly: list[int]) -> list[int]:
    while poly and not poly[-1]:
        poly.pop()
    return poly


class _Columns:
    """A series in x held as its x-columns.  Column n is a polynomial in t,
    a list of ints truncated at t^T with no trailing zeros.  `rule(n)`
    returns column n and may read only columns below n of this series, and
    columns up to n of the series it is built from; each column is computed
    on first use and kept.  The rule of a product is a _Product, which keeps
    its factors' columns packed into ints."""

    def __init__(self, T: int, rule):
        self.T = T
        self._rule = rule
        self._cols: list[list[int]] = []
        self._powers: list[_Columns] = []

    def __getitem__(self, n: int) -> list[int]:
        if n < 0:
            return []
        cols = self._cols
        while len(cols) <= n:
            cols.append(self._rule(len(cols)))
        return cols[n]

    def __mul__(self, other: "_Columns") -> "_Columns":
        """Online product: column n is the sum of a[i] b[n-i], i = 0..n."""
        return _Columns(self.T, _Product(self, other))

    def power(self, e: int) -> "_Columns":
        """self^e, each power the product of the one below and self."""
        powers = self._powers
        if not powers:
            powers += [_Columns(self.T, lambda n: [] if n else [1]), self]
        while len(powers) <= e:
            powers.append(powers[-1] * self)
        return powers[e]

    def to_biseries(self, x_order: int) -> BiSeries:
        T = self.T
        cols = [(self[n] + [0] * (T + 1))[:T + 1] for n in range(x_order + 1)]
        return BiSeries(T, x_order, tuple(zip(*cols)))


# A product packs its columns while a packed coefficient needs at most this
# many bits, and runs the coefficient loop past it: packed ints carry every
# coefficient at the width of the largest, and digits above t^T that the loop
# skips, which past this width costs more than the loop's Python overhead.
# Set from timed solves at orders (21, 59), (51, 100) and (101, 200).
_PACK_BITS = 384
# Bits added to the width a repack needs, so that repacks are rare.
_PACK_SLACK = 32


def _pack(poly: list[int], width: int) -> int:
    """poly evaluated at t = 2^width."""
    value = 0
    for c in reversed(poly):
        value = (value << width) + c
    return value


def _bit_length(poly: list[int]) -> int:
    """Bit length of poly's largest coefficient; -1 if one is negative."""
    if not poly:
        return 0
    return max(poly).bit_length() if min(poly) >= 0 else -1


def _loop_product(a: _Columns, b: _Columns, n: int) -> list[int]:
    """Column n of a * b, coefficient by coefficient."""
    T = a.T
    out = [0] * (T + 1)
    for i in range(n + 1):
        q = b[n - i]
        if not q:
            continue
        for di, c in enumerate(a[i]):
            if c:
                for dj, d in enumerate(q[:T + 1 - di], di):
                    out[dj] += c * d
    return _trim(out)


class _Product:
    """The rule of the online product a * b, by Kronecker substitution.

    Every factor column is packed as one int, its value at t = 2^w, and
    column n is the sum of the n + 1 int products A[i] B[n-i].  With no
    negative coefficient, digit j of that sum in base 2^w is the t^j
    coefficient when no digit reaches 2^w, so nothing carries.  A digit sums
    at most (n+1)(T+1) products below 2^(bits(a) + bits(b)), the running
    maxima of the factors' coefficient bit lengths, so a width of
    bits(a) + bits(b) + bits(n+1) + bits(T+1) holds it.  When that outgrows
    w, both factors are packed again, _PACK_SLACK bits wider; once it
    passes _PACK_BITS, or a factor column has a negative coefficient, this
    and every later column run the coefficient loop instead.  When a is b,
    as in R * R, the two packed lists are one."""

    def __init__(self, a: _Columns, b: _Columns):
        self.a, self.b = a, b
        self.packed_a: list[int] = []
        self.packed_b = self.packed_a if a is b else []
        self.bits_a = self.bits_b = 0
        self.width = 0

    def _repack(self, width: int, n: int) -> None:
        """Pack columns 0..n of both factors at `width` bits a coefficient."""
        a, b, T = self.a, self.b, self.a.T
        self.packed_a[:] = [_pack(a[i], width) for i in range(n + 1)]
        if b is not a:
            self.packed_b[:] = [_pack(b[i], width) for i in range(n + 1)]
        self.width = width
        self.shifts = range(0, (T + 1) * width, width)
        self.digit_mask = (1 << width) - 1

    def __call__(self, n: int) -> list[int]:
        a, b, T = self.a, self.b, self.a.T
        if self.width is None:
            return _loop_product(a, b, n)
        col_a, col_b = a[n], b[n]
        bits_a, bits_b = _bit_length(col_a), _bit_length(col_b)
        self.bits_a = max(self.bits_a, bits_a)
        self.bits_b = max(self.bits_b, bits_b)
        need = (self.bits_a + self.bits_b + (n + 1).bit_length()
                + (T + 1).bit_length())
        if need > _PACK_BITS or bits_a < 0 or bits_b < 0:
            self.width = self.packed_a = self.packed_b = None
            return _loop_product(a, b, n)
        if need > self.width:
            self._repack(min(_PACK_BITS, need + _PACK_SLACK), n)
        else:
            self.packed_a.append(_pack(col_a, self.width))
            if b is not a:
                self.packed_b.append(_pack(col_b, self.width))
        total = sum(map(mul, self.packed_a, reversed(self.packed_b)))
        mask = self.digit_mask
        return _trim([total >> s & mask for s in self.shifts])


def _combine(*terms: tuple[int, list[int]]) -> list[int]:
    """The sum of c * poly over the (c, poly) pairs."""
    out = [0] * max(len(p) for _, p in terms)
    for c, poly in terms:
        for j, v in enumerate(poly):
            out[j] += c * v
    return _trim(out)


def _times_t(poly: list[int], T: int) -> list[int]:
    return _trim(([0] + poly)[:T + 1]) if poly else []


def solve_skew_dyck_series(t_order: int, x_order: int) -> BiSeries:
    """R(t, x): [t^j x^n] counts skew Dyck paths of semilength n with j
    UDL-factors.  Column n comes from the cubic written as
    R = x^2 R + (1 - x - x^2 + t x^2) + x(2 - x) R^2 - x^2 R^3."""
    _check_orders(t_order, x_order)
    T = t_order
    const = [[1], [-1], _trim([-1, 1][:T + 1])]

    def column(n: int) -> list[int]:
        return _combine((1, R[n - 2]), (1, const[n] if n < 3 else []),
                        (2, R2[n - 1]), (-1, R2[n - 2]), (-1, R3[n - 2]))

    R = _Columns(T, column)
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


def _tree_columns(k: int, T: int) -> _Columns:
    """C_k = 1 + x C_k^k."""
    C = _Columns(T, lambda n: C.power(k)[n - 1] if n else [1])
    return C


def tree_series(k: int, x_order: int, t_order: int = 0) -> BiSeries:
    """C_k(x) = 1 + x C_k(x)^k, counting k-ary trees by nodes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_orders(t_order, x_order)
    return _tree_columns(k, t_order).to_biseries(x_order)


def tree_equation_residual(C: BiSeries, k: int) -> BiSeries:
    return C - 1 - _x(C.t_order, C.x_order) * C ** k


def _augmented_columns(k: int, T: int) -> tuple[_Columns, _Columns]:
    """G_k = 1 + x G_k^k D with D = G_k - 1 + t; returns (G_k, D)."""
    D = _Columns(T, lambda n: G[n] if n else _times_t([1], T))
    G = _Columns(T, lambda n: GkD[n - 1] if n else [1])
    GkD = G.power(k) * D
    return G, D


def augmented_long_ascent_series(k: int, t_order: int, x_order: int) -> BiSeries:
    """G_k(t, x) = 1 + x G^k (G - 1 + t): augmented k-Dyck paths by size (x)
    and long ascents (t)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _check_orders(t_order, x_order)
    return _augmented_columns(k, t_order)[0].to_biseries(x_order)


def augmented_long_ascent_residual(G: BiSeries, k: int) -> BiSeries:
    t, x = _t(G.t_order, G.x_order), _x(G.t_order, G.x_order)
    return G - 1 - x * G ** k * (G - 1 + t)


def long_ascent_series(k: int, t_order: int, x_order: int) -> BiSeries:
    """F_k(t, x): [t^j x^n] counts k-box paths of size n with j long ascents."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_orders(t_order, x_order)
    G, D = _augmented_columns(k + 1, t_order)
    GkD = G.power(k) * D
    return _Columns(t_order, lambda n: GkD[n - 1]).to_biseries(x_order)


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
    T = t_order
    C = _tree_columns(k + 2, T)

    def column(n: int) -> list[int]:
        return _times_t(_combine((1, C.power(k)[n - 1]), (1, CH[n - 1])), T)

    H = _Columns(T, column)
    CH = C.power(k + 1) * H
    return H.to_biseries(x_order)


def returns_residual(H: BiSeries, C: BiSeries, k: int) -> BiSeries:
    """H (1 - t x C^(k+1)) - t x C^k for the pair (H_k, C_(k+2))."""
    t, x = _t(H.t_order, H.x_order), _x(H.t_order, H.x_order)
    return H * (1 - t * x * C ** (k + 1)) - t * x * C ** k

