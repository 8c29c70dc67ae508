"""The bit-parallel kernels against the brute-force oracles on drawn inputs.

Each kernel has word-size edges: shift-AND counting confirms patterns past 64
symbols with startswith, distinct_factors reads blocks of k + 63 symbols, the
repetition tests shift whole letter masks, and the eertree's factors are
sorted without a key when the alphabet is in code-point order.  Alphabets
come in and out of that order, with one, two, three and two CJK letters.
SP sums a row's letters in chains of maps built into a list every 8 letters,
so its words repeat 8-10 letters.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibword import oracle
from fibword.density import count_occurrences
from fibword.fibonacci import infinite_prefix
from fibword.palindromes import pal_factors, sp_count
from fibword.squarefree import delta_decode, has_overlap, is_square_free, thue_morse_prefix
from fibword.words import AB, Alphabet, Word, distinct_factors

LETTERS = ["ab", "ba", "01", "10", "abc", "cab", "a", "zyx", "一二"]
FIB = infinite_prefix(400).text
UNARY = Alphabet("a")
_TM = thue_morse_prefix(256).text.translate(str.maketrans("01", "ab"))
SQUARE_FREE = delta_decode(Word(AB, _TM[: _TM.rindex("a", 0, 200)]))  # 99 ternary symbols


@st.composite
def words(draw, max_size=400):
    """A word over a drawn alphabet: random, or a drawn period repeated."""
    alphabet = Alphabet(draw(st.sampled_from(LETTERS)))
    if draw(st.booleans()):
        return Word(alphabet, draw(st.text(alphabet.symbols, max_size=max_size)))
    period = draw(st.text(alphabet.symbols, min_size=1, max_size=8))
    return Word(alphabet, (period * max_size)[: draw(st.integers(0, max_size))])


@st.composite
def words_and_patterns(draw):
    """A word and a nonempty pattern of up to 150 symbols, cut from the word or drawn."""
    w, m = draw(words()), draw(st.integers(1, 150))
    if len(w) and draw(st.booleans()):
        i = draw(st.integers(0, len(w) - 1))
        return w, w[i : i + m]
    return w, Word(w.alphabet, draw(st.text(w.alphabet.symbols, min_size=1, max_size=m)))


def _binary(text: str) -> Word:
    return Word(Alphabet("01"), text)


@settings(max_examples=400, deadline=None)
@given(words_and_patterns())
@example((_binary(FIB), _binary(FIB[10:74])))  # |p| = 64, the last pattern counted by bits alone
@example((_binary(FIB), _binary(FIB[10:75])))  # |p| = 65, the first confirmed by startswith
@example((_binary(FIB), _binary(FIB[:128])))
@example((_binary(FIB[:200]), _binary("1" + FIB[:127])))  # 128 symbols, absent
@example((Word(UNARY, "a" * 300), Word(UNARY, "a" * 65)))
@example((Word(Alphabet("ba"), "ab" * 100), Word(Alphabet("ba"), "ba" * 32)))
def test_count_occurrences_matches_brute_count(case):
    w, pattern = case
    assert count_occurrences(pattern, w) == oracle.brute_count(pattern, w)


@settings(max_examples=300, deadline=None)
@given(words(), st.integers(0, 140))
@example(_binary(FIB[: 1 + 62]), 1)  # the whole text one symbol short of a block
@example(_binary(FIB[: 1 + 63]), 1)  # exactly one block
@example(_binary(FIB[: 1 + 64]), 1)  # a second window, in a second block
@example(_binary(FIB[: 40 + 63]), 40)
@example(_binary(FIB[: 40 + 64 + 63]), 40)
@example(_binary(FIB[: 40 + 64 + 64]), 40)
@example(_binary(FIB[: 137 + 63]), 137)
@example(Word(UNARY, "a" * 203), 140)
@example(Word(Alphabet("cab"), "cabbac" * 30), 65)
def test_distinct_factors_match_the_brute_factor_set(w, k):
    assert distinct_factors(w, k) == sorted(oracle.brute_factor_set(w, k))


@settings(max_examples=300, deadline=None)
@given(words())
@example(_binary(FIB))
@example(Word(UNARY, "a" * 400))
@example(Word(Alphabet("zyx"), "xyzzyx" * 50))
@example(Word(Alphabet("10"), FIB[:300]))
@example(Word(Alphabet("一二"), "一二二一二一一二二一"))
@example(Word(Alphabet("abc"), "abacabab"))  # the prefix abacaba is a palindrome: the last b's walk reads the sentinel
@example(Word(Alphabet("abc"), "abcab"))  # the last b rereads the jump from a that the first b stored past the sentinel
@example(Word(Alphabet("abc"), "bcabababcabababb"))  # symbols 12 and 14 reread the jumps from aba and ababa
@example(Word(Alphabet("ab"), "aabbaabbbaab"))  # even palindromes grow from the empty root, odd ones from the imaginary
def test_pal_factors_match_the_brute_pal_factor_set(w):
    assert list(pal_factors(w).pal_factors) == sorted(oracle.brute_pal_factor_set(w))


TEN = Alphabet("abcdefghij")


@st.composite
def letters_twice(draw):
    """8-10 letters, each twice, in a drawn order: 16-20 symbols, within the oracle's guard."""
    letters = "abcdefghij"[: draw(st.integers(8, 10))]
    return Word(TEN, "".join(draw(st.permutations(letters * 2))))


@settings(max_examples=12, deadline=None)  # ~0.1 s each
@given(letters_twice())
@example(Word(TEN, "jabcdefghiihgfedcbaj"))  # row 1: one right end, 9 letters twice: a list after 8, then one more
@example(Word(TEN, "jabcdefghhgfedcbaj"))  # exactly 8 letters twice, built into a list at the row's end
@example(Word(TEN, "abcdefghijabcdefghij"))  # every row has one right end and no letter twice
def test_sp_count_matches_the_brute_count(w):
    assert sp_count(w) == oracle.brute_sp_count(w)


@settings(max_examples=300, deadline=None)
@given(words(max_size=120))
@example(SQUARE_FREE)  # square-free: every period is tested to the end
@example(thue_morse_prefix(120))  # overlap-free
@example(Word(UNARY, "a"))
@example(_binary(FIB[:120]))
def test_repetition_masks_match_the_scans(w):
    assert is_square_free(w) == (not oracle.brute_square_scan(w))
    assert has_overlap(w) == oracle.brute_overlap_scan(w)
