"""Occurrence counting and subword densities over the infinite word.

Densities are exact rationals internally and only become doubles at the
interface.  The ratio and letter-density curves both converge to phi - 1;
the integral model and the exponential-sum form are exposed as
parameterized evaluators so their limits can be inspected rather than
asserted.  Only the integral model needs scipy, so it is imported there
and every other caller starts without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .fibonacci import PHI, fib, infinite_prefix
from .words import Word, _require_same_alphabet


@dataclass(frozen=True)
class DensitySample:
    """One point of a density curve: prefix length and exact value."""

    n: int
    value: Fraction

    @property
    def value_real(self) -> float:
        return float(self.value)


def count_occurrences(pattern: Word, text: Word) -> int:
    """Occurrences of pattern in text, counted with overlap
    ("aa" occurs twice in "aaa")."""
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    _require_same_alphabet(pattern, text)
    p, t = pattern.text, text.text
    count, start = 0, 0
    while True:
        idx = t.find(p, start)
        if idx < 0:
            return count
        count += 1
        start = idx + 1


def density(pattern: Word, prefix_len: int) -> DensitySample:
    """Occurrence density of pattern in the first prefix_len symbols of the
    infinite word, as an exact rational."""
    if prefix_len < 1:
        raise ValueError("prefix length must be positive")
    count = count_occurrences(pattern, infinite_prefix(prefix_len))
    return DensitySample(prefix_len, Fraction(count, prefix_len))


def ratio_curve(n_max: int) -> list[DensitySample]:
    """Samples (n, F_n / F_{n+1}) for n = 1..n_max, exact.

    Values oscillate around and converge to phi - 1.
    """
    if not 1 <= n_max <= 10**4:
        raise ValueError("n_max must be between 1 and 10**4")
    out = []
    a, b = 1, 1  # F_1, F_2
    for n in range(1, n_max + 1):
        out.append(DensitySample(n, Fraction(a, b)))
        a, b = b, a + b
    return out


def letter_density_curve(letter: str, n_max: int) -> list[DensitySample]:
    """Samples (n, |prefix_n|_letter / n) for n = 1..n_max <= 10**6, exact."""
    if letter not in ("0", "1"):
        raise ValueError("letter must be '0' or '1'")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max > 10**6:
        raise ValueError("n_max must be at most 10**6 (about 250 bytes per sample)")
    text = infinite_prefix(n_max).text
    out = []
    count = 0
    for n, ch in enumerate(text, start=1):
        if ch == letter:
            count += 1
        out.append(DensitySample(n, Fraction(count, n)))
    return out


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
        if math.isinf(self.b) and self.b < 0:
            raise ValueError("only +inf is permitted for b")


@dataclass(frozen=True)
class IntegralResult:
    """Both evaluation routes of the integral model.

    quadrature_error is the integrator's absolute-error estimate (the
    residual); the two values should agree to ~1e-9 relative wherever both
    converge.
    """

    quadrature: float
    closed_form: float
    quadrature_error: float


def integral_density(params: IntegralParams) -> IntegralResult:
    """Evaluate the integral model by adaptive quadrature and, separately,
    through the lower-incomplete-gamma closed form."""
    from scipy.integrate import quad
    from scipy.special import gammainc

    lam = 1.0 + 1.0 / params.tau
    if params.a == params.b:
        return IntegralResult(0.0, 0.0, 0.0)

    k = params.k

    def integrand(x: float) -> float:
        return math.exp(-lam * x) * x ** (k - 1.0)

    value, residual = quad(
        integrand, params.a, params.b, epsabs=1e-12, epsrel=1e-12, limit=400
    )

    upper = 1.0 if math.isinf(params.b) else float(gammainc(k, lam * params.b))
    lower = float(gammainc(k, lam * params.a))
    closed = math.gamma(k) * lam ** (-k) * (upper - lower)
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
