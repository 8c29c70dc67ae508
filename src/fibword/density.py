"""Occurrence counting and subword densities over the infinite word.

Densities are exact rationals internally and only become doubles at the
interface.  Samples of counts (``density``, the letter curve and
``pal_density_table``) hold the count and build the ``Fraction`` when it
is read; ratio-curve samples hold it from the start.  The ratio and
letter-density curves both converge to phi - 1; the integral model and
the exponential-sum form are exposed as parameterized evaluators so their
limits can be inspected rather than asserted.  The integral model needs
only the standard library: double-exponential quadrature on one route, the
regularized incomplete gamma by series and continued fraction on the other.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from functools import cache
from itertools import accumulate, count, islice, repeat
from operator import add

from .fibonacci import PHI, fib, infinite_prefix
from .words import Word, _admit, _letter_masks, _Record, _require_same_alphabet


class DensitySample:
    """One point of a density curve: prefix length ``n`` and exact ``value``,
    given as a ``Fraction`` or as an occurrence ``count`` (value = count / n,
    built on every read of ``.value`` and never stored; ``count`` is None
    otherwise).  Slotted and, like Word, never mutated; compares and hashes
    by (n, value)."""

    __slots__ = ("n", "_held")  # an int count or a Fraction value as given, any other input as (count, value)

    def __init__(self, n: int, value: Fraction | None = None, count: int | None = None):
        if (value is None) == (count is None):
            raise TypeError("DensitySample takes exactly one of value and count")
        self.n, self._held = n, count if type(count) is int else value if type(value) is Fraction else (count, value)

    def __reduce__(self) -> tuple:
        count = self.count  # pickles hold the constructor's arguments, not the slots
        return DensitySample, (self.n, self.value if count is None else None, count)

    count = property(lambda self: held if type(held := self._held) is int else held[0] if type(held) is tuple else None)

    @property
    def value(self) -> Fraction:
        if type(held := self._held) is not tuple:  # an int count or a Fraction value
            return Fraction(held, self.n) if type(held) is int else held
        count, value = held
        return value if count is None else Fraction(count, self.n)

    @property
    def value_real(self) -> float:
        if type(held := self._held) is not tuple:  # count / n rounds correctly, as float(Fraction(count, n)) does
            return held / self.n if type(held) is int else float(held)
        count, value = held
        return float(value) if count is None else count / self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensitySample):
            return NotImplemented
        return self.n == other.n and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.n, self.value))

    def __repr__(self) -> str:
        return f"DensitySample(n={self.n!r}, value={self.value!r})"


def count_occurrences(pattern: Word, text: Word) -> int:
    """Occurrences of pattern in text, counted with overlap
    ("aa" occurs twice in "aaa").  Shift-AND over the text's letter bitmasks
    marks the starts that match the first min(|pattern|, 64) symbols; up to 64
    symbols their number is the count, past them str.startswith confirms each."""
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    _require_same_alphabet(pattern, text)
    p, t = pattern.text, text.text
    masks = _letter_masks(text)
    hits = masks[p[0]]
    for j, c in enumerate(p[1:64], 1):
        hits &= masks[c] >> j
    if len(p) <= 64:
        return hits.bit_count()
    gaps = bin(hits)[:1:-1].split("1")[:-1]  # the zeros before each candidate start
    starts = map(add, accumulate(map(len, gaps)), range(len(gaps)))  # zeros + ones before
    return sum(map(t.startswith, repeat(p), starts))


def density(pattern: Word, prefix_len: int) -> DensitySample:
    """Occurrence density of pattern in the first prefix_len symbols of the
    infinite word, as an exact rational."""
    if prefix_len < 1:
        raise ValueError("prefix length must be positive")
    return DensitySample(prefix_len, count=count_occurrences(pattern, infinite_prefix(prefix_len)))


def ratio_curve(n_max: int) -> list[DensitySample]:
    """Samples (n, F_n / F_{n+1}) for n = 1..n_max, exact; they oscillate around and
    converge to phi - 1.  F_n and F_(n+1) are coprime, so each pair is set into a
    Fraction as it stands, in lowest terms without a gcd."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    _admit("ratio_curve", n_max)  # the Fractions grow to ~7,000 bits at 10**4
    out, f, g = [], 1, 1
    for n in range(1, n_max + 1):
        r = object.__new__(Fraction)  # as Fraction._from_coprime_ints (Python 3.12) builds it
        r._numerator, r._denominator = f, g
        out.append(DensitySample(n, r))
        f, g = g, f + g
    return out


def letter_density_curve(letter: str, n_max: int) -> list[DensitySample]:
    """Samples (n, |prefix_n|_letter / n) for n = 1..n_max, exact, built
    from the letter counts."""
    if letter not in ("0", "1"):
        raise ValueError("letter must be '0' or '1'")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    _admit("letter_density_curve", n_max)
    marks = dict.fromkeys(b"01", 0) | {ord(letter): 1}  # the letter becomes byte 1, the other 0
    ints = list(range(n_max + 1))  # a count is at most its n, so it is the int object of an earlier n
    counts = map(ints.__getitem__, accumulate(infinite_prefix(n_max).text.translate(marks).encode()))
    samples = list(map(object.__new__, repeat(DensitySample, n_max)))  # the count form, each slot set in C
    deque(map(DensitySample.n.__set__, samples, islice(ints, 1, None)), 0)
    deque(map(DensitySample._held.__set__, samples, counts), 0)
    return samples


class IntegralParams(_Record):
    """Parameters of the integral model: the oriented integral of
    exp(-x*(1 + 1/tau)) * x**(k-1) from a to b.

    a > b is allowed and flips the sign (oriented-integral convention); b and
    tau may be +inf; k must be finite, gamma(k) a float (~5.6e-309 < k < ~171.62).
    """

    a: float
    b: float
    k: float
    tau: float

    def __post_init__(self) -> None:
        if not (self.k > 0 and self.tau > 0):
            raise ValueError("k and tau must be positive")
        if math.isinf(self.k):
            raise ValueError("k must be finite")
        if not (math.isfinite(self.a) and self.a >= 0):
            raise ValueError("a must be finite and nonnegative")
        if math.isnan(self.b) or self.b < 0:
            raise ValueError("b must be nonnegative (or +inf)")
        try:
            math.gamma(self.k)  # the closed form's domain, and _scaled's k < 171.7
        except OverflowError:
            raise ValueError(f"gamma({self.k!r}) overflows a float") from None


class IntegralResult(_Record):
    """Both evaluation routes of the integral model.

    quadrature_error is the integrator's absolute-error estimate for the
    integrand it evaluates, whose lam is the double 1.0 + 1.0/tau.
    integral_density returns only values that agree to 1e-9 relative.
    """

    quadrature: float
    closed_form: float
    quadrature_error: float


_EPS = math.ulp(1.0)
_FLOOR_SCALE = 2.0**-16  # keeps the rounding floor finite; exact while it stays normal


@cache
def _de_nodes(level: int, sign: int) -> tuple[tuple[float, float], ...]:
    """(offset, weight / (pi/2)) of the tanh-sinh nodes that step 2**-level adds on one side of
    t = 0, outwards: at sign * t > 0, and at t = 0 on the side sign < 0.  With u = pi/2 sinh t, a
    node lies 1 - tanh(u) = 2e/(1 + e) half-widths from its end, e = exp(-2u)."""
    first = 1 if level or sign > 0 else 0
    nodes = []
    for j in range(first, 7 * 2**level, 2 if level else 1):
        t = j / 2**level
        e = math.exp(-math.pi * math.sinh(t))
        nodes.append((2 * e / (1 + e), 4 * math.cosh(t) * e / (1 + e) ** 2))
    return tuple(nodes)


def _quad(log_f, a: float, b: float) -> tuple[float, float]:
    """The integral of exp(log_f(x)) over the finite [a, b], a <= b, and an error estimate, by
    tanh-sinh quadrature (Takahasi & Mori, Publ. RIMS 9, 1974).

    The step halves until two levels agree within the rounding floor (summed times _FLOOR_SCALE):
    50 eps per term as in QUADPACK, plus the 2 eps |log f| that exp inherits from the few
    roundings of log f.  Each side of t = 0 walks outwards until its terms fall and are negligible,
    or x is within 1e-307 of its end (so log_f < 709 for k > 0); the estimate adds the last term.
    """
    half = (b - a) / 2
    width = half * math.pi / 2
    terms, floor, old = [], 0.0, math.inf
    for level in range(10):
        cut = 0.0
        for end, scale, sign in ((a, half, -1), (b, -half, 1)):  # x = end + scale * offset
            last = 0.0
            for offset, weight in _de_nodes(level, sign):
                if not 1e-307 < width * offset:  # so is every later offset
                    cut = max(cut, last)
                    break
                e = log_f(end + scale * offset)
                y = width * weight * math.exp(e)
                terms.append(y)
                floor += y * (_FLOOR_SCALE * (50 + 2 * abs(e)))
                if y < last and y * (_FLOOR_SCALE * 1e20) < floor:  # floor > 50 * the sum
                    break
                last = y
        try:
            value = math.fsum(terms) / 2**level
        except OverflowError:  # a partial sum passes the largest float, though no term does
            try:
                value = math.fsum(t / 2**level for t in terms)
            except OverflowError:  # so does this level's estimate
                value = math.inf
        rounding = floor * (_EPS / _FLOOR_SCALE) / 2**level
        change, old = abs(value - old), value
        if level > 2 and change <= rounding:
            break
    return value, max(change, rounding) + cut


def _scaled(k: float, lam: float, x: float, s: float) -> float:
    """s * x**k * exp(-lam x), in halves: k log x - lam x < 712 for k < 171.7 and lam >= 1, so
    neither half overflows.  x = 0 gives 0, or NaN when lam is inf."""
    half = math.exp(((k * math.log(x) if x else -math.inf) - lam * x) / 2)
    return half * s * half


def _lower_piece(k: float, lam: float, x1: float, x2: float) -> float:
    """gamma(k) lam**-k (P(k, lam x2) - P(k, lam x1)) for 0 <= x1 < x2 <= (k + 1) / lam, by the
    series P(k, z) = z**k e**-z / gamma(k) * sum of t_i(z) = z**i / (k (k+1) ... (k+i))
    (Gautschi, ACM TOMS 5, 1979).  Term i of the difference is t_i(z2) (1 - (x1/x2)**(k+i) e**d),
    d = lam (x2 - x1), through log1p and expm1, so a narrow interval does not cancel."""
    z, d = lam * x2, lam * (x2 - x1)
    log_ratio = -math.log1p((x2 - x1) / x1) if x1 else -math.inf  # log(x1 / x2)
    parts, total, term = [], 0.0, 1 / k
    for i in count():
        part = -term * math.expm1((k + i) * log_ratio + d)
        parts.append(part)
        total += part
        # z <= k + 1, so parts i, i+1, ... sum to at most term (k+i)/(i-1) min(1, (k+i) |log_ratio|)
        if i > 1 and term * (k + i) * min(1.0, (k + i) * -log_ratio) <= _EPS * (i - 1) * abs(total):
            break
        term *= z / (k + i + 1)
    return _scaled(k, lam, x2, math.fsum(parts))


def _upper_piece(k: float, lam: float, x1: float, x2: float) -> float:
    """gamma(k) lam**-k (Q(k, lam x1) - Q(k, lam x2)) for k + 1 <= lam x1 < lam x2 <= inf, by
    Q(k, z) = z**k e**-z / gamma(k) * f_0(z), f_i = c_i / (z + 2i + 1 - k - f_{i+1}), c_0 = 1,
    c_i = i (i - k): 100 levels of the continued fraction, summed from the bottom, with the
    difference f_i(z2) - f_i(z1) alongside, so a narrow interval does not cancel."""
    z, d = lam * x1, lam * (x2 - x1)
    f1 = f2 = df = 0.0  # f_i(z), f_i(z + d) and f2 - f1
    for i in range(100, -1, -1):
        c, b = i * (i - k) if i else 1.0, 2 * i + 1 - k
        den1, den2 = z + b - f1, z + d + b - f2
        f1, f2 = c / den1, c / den2
        df = (df - d) / den2 * f1  # c (df - d) / (den1 den2), in an order that does not overflow
    if d == math.inf:  # Q(k, lam x2) is 0
        return _scaled(k, lam, x1, f1)
    # Q(z1) - Q(z2) = z1**k e**-z1 / gamma(k) (f1 - r f2), r = (x2/x1)**k e**-d, and
    # f1 - r f2 = -df + (1 - r) f2
    return _scaled(k, lam, x1, -df - math.expm1(k * math.log1p(d / z) - d) * f2)


def integral_density(params: IntegralParams) -> IntegralResult:
    """Evaluate the integral model by tanh-sinh quadrature over [a, b], cut
    where the integrand is negligible, and by the closed form gamma(k) lam**-k
    (P(k, lam b) - P(k, lam a)), lam = 1 + 1/tau, over the uncut [a, b]: the
    series of P below lam x = k + 1 and the continued fraction of Q above.

    Raises ValueError, with both values, when |quadrature - closed form|
    exceeds 1e-9 * max(|closed form|, 1e-300) or is NaN.  a == b takes the
    same path and gives zeros; IntegralParams refuses k past gamma's range.
    """
    lam, k = 1.0 + 1.0 / params.tau, params.k
    lo, hi = sorted((params.a, params.b))
    # past end, finite as lam >= 1, the integrand is below e**-50 of its largest value on [lo, inf)
    end = min(hi, max(lo, (k - 1) / lam) + (50 + 15 * math.sqrt(k)) / lam)
    # x = s * y, s a power of two (exact ends): below 1, log s + log y keeps what x would lose
    s = 2.0 ** min(math.frexp(end)[1], 0)
    log_s = math.log(s)
    value, error = _quad(lambda y: -lam * s * y + (k - 1.0) * math.log(y) + k * log_s, lo / s, end / s)
    mid = min(max(lo, (k + 1) / lam), hi)
    closed = (_lower_piece(k, lam, lo, mid) if lo < mid else 0.0) + (
        _upper_piece(k, lam, mid, hi) if mid < hi else 0.0
    )
    if params.a > params.b:
        value, closed = -value, -closed
    gap = abs(value - closed) / max(abs(closed), 1e-300)
    if not gap <= 1e-9:  # a NaN on either route fails this too
        raise ValueError(
            f"integral routes disagree: quadrature {value!r}, closed form {closed!r}, "
            f"relative gap {gap:.3g} > 1e-09"
        )
    return IntegralResult(value, closed, error)


def exp_sum_approx(n: int) -> float:
    """exp(-n * (phi - 1)): the exponential-sum form of the density.

    Tends to 0 as n grows, which is why it cannot reproduce the phi - 1
    limit; exposed for inspection.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.exp(-n * (PHI - 1.0))


def triangle_ratio(n: int) -> float:
    """sqrt(F_{n+2} / F_n) at double precision.

    F_{n+2}/F_n tends to phi**2, so the measured limit of this quantity is
    phi itself (about 1.6180), not sqrt(phi).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return math.sqrt(fib(n + 2) / fib(n))
