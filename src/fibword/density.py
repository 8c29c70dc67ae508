"""Occurrence counting and subword densities over the infinite word.

Densities are exact rationals internally and only become doubles at the
interface.  Samples of counts (``density``, the letter curve and
``pal_density_table``) hold the count and build the ``Fraction`` when it
is read; ratio-curve samples hold it from the start.  The ratio and
letter-density curves both converge to phi - 1; the integral model and
the exponential-sum form are exposed as parameterized evaluators so their
limits can be inspected rather than asserted.  Only the integral model
needs scipy, so it is imported there and every other caller starts
without it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from operator import add

from .fibonacci import PHI, fib, infinite_prefix
from .words import Word, _letter_masks, _require_same_alphabet


class DensitySample:
    """One point of a density curve: prefix length ``n`` and exact ``value``,
    given as a ``Fraction`` or as an occurrence ``count`` (value = count / n,
    built on every read of ``.value`` and never stored; ``count`` is None
    otherwise).  Slotted and, like Word, never mutated; compares and hashes
    by (n, value)."""

    __slots__ = ("n", "count", "_value")

    def __init__(self, n: int, value: Fraction | None = None, count: int | None = None):
        if (value is None) == (count is None):
            raise TypeError("DensitySample takes exactly one of value and count")
        self.n, self.count, self._value = n, count, value

    @property
    def value(self) -> Fraction:
        return self._value if self.count is None else Fraction(self.count, self.n)

    @property
    def value_real(self) -> float:
        # count / n rounds correctly, exactly as float(Fraction(count, n)) does.
        return float(self._value) if self.count is None else self.count / self.n

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
    masks = _letter_masks(t, text.alphabet)
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
    """Samples (n, F_n / F_{n+1}) for n = 1..n_max, exact.

    Values oscillate around and converge to phi - 1.  Each is 1 / (1 + the
    one before), whose gcds are trivial: F_n and F_(n+1) are coprime.
    """
    if not 1 <= n_max <= 10**4:
        raise ValueError("n_max must be between 1 and 10**4")
    out = []
    r = Fraction(1)  # F_1 / F_2
    for n in range(1, n_max + 1):
        out.append(DensitySample(n, r))
        r = 1 / (1 + r)
    return out


def letter_density_curve(letter: str, n_max: int) -> list[DensitySample]:
    """Samples (n, |prefix_n|_letter / n) for n = 1..n_max <= 10**6, exact,
    built from the letter counts."""
    if letter not in ("0", "1"):
        raise ValueError("letter must be '0' or '1'")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max > 10**6:
        raise ValueError("n_max must be at most 10**6 (about 130 bytes per sample)")
    counts = accumulate(map(letter.__eq__, infinite_prefix(n_max).text), initial=0)
    next(counts)  # the initial 0, which makes every count an int
    return list(map(DensitySample, range(1, n_max + 1), repeat(None), counts))


@dataclass(frozen=True)
class IntegralParams:
    """Parameters of the integral model: the oriented integral of
    exp(-x*(1 + 1/tau)) * x**(k-1) from a to b.

    a > b is allowed and flips the sign (oriented-integral convention);
    b and tau may be +inf, k may not.
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


@dataclass(frozen=True)
class IntegralResult:
    """Both evaluation routes of the integral model.

    quadrature_error is the integrator's absolute-error estimate (the
    residual).  integral_density returns only values that agree to 1e-9
    relative.
    """

    quadrature: float
    closed_form: float
    quadrature_error: float


def integral_density(params: IntegralParams) -> IntegralResult:
    """Evaluate the integral model by adaptive quadrature and, separately,
    through the lower-incomplete-gamma closed form.

    Raises ValueError, with both values, when |quadrature - closed form|
    exceeds 1e-9 * max(|closed form|, 1e-300) or is NaN, and when gamma(k) or
    the integrand overflows a float; the integrator's warning is not printed.
    """
    from scipy.integrate import IntegrationWarning, quad
    from scipy.special import gammainc

    lam = 1.0 + 1.0 / params.tau
    if params.a == params.b:
        return IntegralResult(0.0, 0.0, 0.0)

    k = params.k

    def integrand(x: float) -> float:
        return math.exp(-lam * x) * x ** (k - 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        try:
            value, residual = quad(integrand, params.a, params.b, epsabs=1e-12, epsrel=1e-12, limit=400)
        except OverflowError:
            raise ValueError(
                f"the integrand's x ** {k - 1.0!r} overflows a float on [{params.a!r}, {params.b!r}]"
            ) from None

    upper = 1.0 if math.isinf(params.b) else float(gammainc(k, lam * params.b))
    lower = float(gammainc(k, lam * params.a))
    try:
        gamma_k = math.gamma(k)
    except OverflowError:
        raise ValueError(f"gamma({k!r}) overflows a float") from None
    closed = gamma_k * lam ** (-k) * (upper - lower)
    gap = abs(value - closed) / max(abs(closed), 1e-300)
    if not gap <= 1e-9:  # a NaN on either route fails this too
        raise ValueError(
            f"integral routes disagree: quadrature {value!r}, closed form {closed!r}, "
            f"relative gap {gap:.3g} > 1e-09"
        )
    return IntegralResult(value, closed, residual)


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
