"""Closed-form counting for k-box paths and related families.

Everything here is exact integer or Fraction arithmetic.  A k-box path of
size n is a skew Dyck path of semilength (k+2)n - 1 containing exactly n
UD^kL-factors; k = 0 means Dyck paths of semilength n - 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

from .paths import _check_box_args


def binomial(a: int, b: int) -> int:
    """C(a, b), with 0 whenever the arguments leave 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def exact_div(num: int, den: int) -> int:
    """Divide integers that must divide evenly."""
    if den == 0:
        raise ZeroDivisionError(f"exact_div({num}, 0)")
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return q


def fuss_catalan(k: int, r: int, n: int) -> int:
    """r/(kn+r) * C(kn+r, n): lattice paths weighted by the cycle lemma.

    For r = 0 this is Raney's convention, 1 at n = 0 and 0 beyond, which
    the formula gives wherever kn > 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0:
        raise ValueError("k must be >= 0")
    if r < 0:
        raise ValueError("r must be >= 0")
    if r == 0:
        return int(n == 0)
    return exact_div(r * binomial(k * n + r, n), k * n + r)


def fuss_catalan_terms(k: int, r: int, count: int) -> list[int]:
    """fuss_catalan(k, r, n) for n = 0, 1, ..., count - 1 (k, r >= 1).

    Once n passes k, C(kn + r, n) comes from the previous term's binomial
    C(M, n - 1), M = k(n - 1) + r, times the ratio
    (M+1)...(M+k) / (n (M-n+2)...(M-n+k)) of two k-factor products, which
    costs less than a fresh comb; before that, a fresh comb costs less.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if r < 1:
        raise ValueError("r must be >= 1")
    out: list[int] = []
    c = 1  # C(kn + r, n)
    for n in range(count):
        m = k * n + r
        if n > k:
            prev = m - k
            c = c * prod(range(prev + 1, m + 1)) // (
                n * prod(range(prev - n + 2, prev - n + k + 1)))
        else:
            c = comb(m, n)
        out.append(exact_div(r * c, m))
    return out


def catalan(n: int) -> int:
    """The n-th Catalan number."""
    return fuss_catalan(2, 1, n)


def count_box(k: int, n: int) -> int:
    """Number of k-box paths of size n, i.e. C((k+2)n-1, n)/((k+2)n-1)."""
    _check_box_args(k, n)
    return fuss_catalan(k + 2, k + 1, n - 1)


def count_tailed(k: int, n: int) -> int:
    """Number of k-box paths of size n ending with U^(k+1)D^kL."""
    _check_box_args(k, n)
    return fuss_catalan(k + 2, 1, n - 1)


def tailed_proportion(k: int, n: int) -> Fraction:
    """Fraction of k-box paths of size n that are tailed."""
    return Fraction(count_tailed(k, n), count_box(k, n))


def tailed_proportion_limit(k: int) -> Fraction:
    """Limit of tailed_proportion(k, n) as n grows: (k+1)^(k-1)/(k+2)^k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return Fraction((k + 1) ** (k - 1) if k >= 1 else 1, (k + 2) ** k)


def count_box_by_returns(k: int, n: int, j: int) -> int:
    """Number of k-box paths of size n with exactly j returns."""
    _check_box_args(k, n)
    if not 1 <= j <= n:
        return 0
    if j == n:
        # the (k+2)n-j-1 denominator cancels except at k=0, j=n=1 where the
        # single path (the empty Dyck path plus its virtual tail) remains
        return 1
    return exact_div(
        (j * (k + 1) - 1) * binomial((k + 2) * n - j - 1, n - j),
        (k + 2) * n - j - 1,
    )


def returns_mean(k: int, n: int) -> Fraction:
    """Mean number of returns over k-box paths of size n."""
    _check_box_args(k, n)
    return Fraction((k + 2) * ((k + 2) * n - 1), (k + 1) * ((k + 1) * n + 1))


def returns_variance(k: int, n: int) -> Fraction:
    """Variance of the number of returns over k-box paths of size n."""
    _check_box_args(k, n)
    return Fraction(
        (k + 2) * ((k + 2) * n - 1) * ((2 * k + 1) * ((k + 1) * n) - 2) * (n - 1),
        (k + 1) ** 2 * ((k + 1) * n + 1) ** 2 * ((k + 1) * n + 2),
    )


def count_box_by_long_ascents(k: int, n: int, j: int) -> int:
    """Number of k-box paths of size n with exactly j long ascents.

    For k = 0 this counts Dyck paths of semilength n-1 with j peaks (all
    ascents of the virtual 0-box path are long), the Narayana numbers.
    """
    _check_box_args(k, n)
    if not 1 <= j <= n:
        return 0
    return exact_div(
        binomial((k + 1) * n - 2, j - 1) * binomial(n - 1, j - 1), j
    )


def lasc_moment_sums(k: int, n: int) -> tuple[int, int]:
    """(sum of j*f, sum of j^2*f) over the long-ascent distribution f.

    Closed forms: C((k+2)n-3, n-1) and ((k+1)n^2-n-1)/((k+2)n-3) times the
    same binomial.  The second is 0/0 at (k, n) = (1, 1); the true value
    there is 1 (the unique path has one long ascent).
    """
    _check_box_args(k, n)
    first = binomial((k + 2) * n - 3, n - 1)
    if (k + 2) * n == 3:
        return first, 1
    second = exact_div(
        ((k + 1) * n * n - n - 1) * first, (k + 2) * n - 3
    )
    return first, second


def lasc_mean(k: int, n: int) -> Fraction:
    """Mean number of long ascents over k-box paths of size n."""
    _check_box_args(k, n)
    if n == 1:
        # formula is 0/0 at k=0 (the empty Dyck path has no ascent at all)
        return Fraction(1 if k >= 1 else 0)
    return Fraction(n * ((k + 1) * n - 1), (k + 2) * n - 2)


def lasc_variance(k: int, n: int) -> Fraction:
    """Variance of the number of long ascents over k-box paths of size n."""
    _check_box_args(k, n)
    if n == 1:
        return Fraction(0)
    return Fraction(
        ((k + 1) * n - 1) * ((k + 1) * n - 2) * n * (n - 1),
        ((k + 2) * n - 2) ** 2 * ((k + 2) * n - 3),
    )


def narayana(n: int, j: int) -> int:
    """Narayana number N(n, j) = C(n, j)C(n, j-1)/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 1 <= j <= n:
        return 0
    return exact_div(binomial(n, j) * binomial(n, j - 1), n)


def second_gonal(k: int, n: int) -> int:
    """Second n-th k-gonal number: n((k-2)n + (k-4))/2."""
    return exact_div(n * ((k - 2) * n + (k - 4)), 2)


def count_kt_dyck(k: int, t: int, n: int) -> int:
    """Number of paths from the origin to ((k+1)n, 0) with steps (1,1) and
    (1,-k) never going below y = -t, for 0 <= t <= k."""
    if not 0 <= t <= k:
        raise ValueError("need 0 <= t <= k")
    if n < 0:
        raise ValueError("n must be >= 0")
    return fuss_catalan(k + 1, t + 1, n)

