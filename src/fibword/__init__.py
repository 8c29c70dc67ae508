"""Combinatorics on words, centered on the Fibonacci word.

Generation by recurrence, morphism fixed point, or direct symbol access;
occurrence counting and exact-rational subword densities with their
golden-ratio limits; palindromic factor and subsequence counting;
square-free enumeration with growth-bound tables; Catalan-indexed and
fuzzy variants.  Every counting routine is paired with an independent
brute-force oracle (fibword.oracle) so each number can be re-derived.
"""

from . import oracle
from .catalan import (
    CatalanRecord,
    catalan,
    catalan_fib_ratio,
    catalan_record,
    catalan_table,
    fib_word_at_catalan,
    limit_function_g,
    table_expr,
)
from .density import (
    DensitySample,
    IntegralParams,
    IntegralResult,
    count_occurrences,
    density,
    exp_sum_approx,
    integral_density,
    letter_density_curve,
    ratio_curve,
    triangle_ratio,
)
from .fibonacci import (
    BINET_MAX_N,
    DEFAULT_SEEDS,
    FIBONACCI_MORPHISM,
    PHI,
    REFERENCE_SEEDS,
    SIZE_GUARD,
    FibSeeds,
    fib,
    fib_binet,
    fib_word,
    golden_ratio_bounds,
    infinite_prefix,
    k_fib,
    k_fib_ratio,
    nth_symbol,
)
from .fuzzy import FuzzyWord, fuzzy_concat, fuzzy_fib_word, word_membership
from .palindromes import (
    PalindromeReport,
    is_numeric_palindrome,
    is_palindrome,
    pal_density_table,
    pal_factors,
    palindrome_report,
    sp_count,
    sp_delta,
)
from .squarefree import (
    DELTA_MORPHISM,
    THUE_MORSE_MORPHISM,
    BoundRow,
    brandenburg_table,
    delta_decode,
    delta_encode,
    enumerate_square_free,
    has_overlap,
    is_square_free,
    square_free_count,
    thue_morse_prefix,
)
from .words import (
    AB,
    ABC,
    BINARY,
    Alphabet,
    Morphism,
    Word,
    distinct_factors,
    is_factor,
    is_scattered_subword,
    letter_count,
)

__version__ = "0.1.0"
