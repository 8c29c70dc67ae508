"""Combinatorics on words, centered on the Fibonacci word.

Generation by recurrence, morphism fixed point, or direct symbol access;
occurrence counting and exact-rational subword densities with their
golden-ratio limits; palindromic factor and subsequence counting;
square-free enumeration with growth-bound tables; Catalan-indexed and
fuzzy variants.  Every counting routine is paired with an independent
brute-force oracle (fibword.oracle) so each number can be re-derived.
Each name is imported from its module, e.g. ``from fibword.words import Word``.
"""

__version__ = "0.1.0"
