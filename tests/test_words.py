from fractions import Fraction
from itertools import product

import pytest
from conftest import (
    conjugate_by,
    is_counter_regular,
    is_cyclically_reduced,
    relabel_mirror,
    word_of,
)
from hypothesis import given, settings, strategies as st

from filebasis.words import (
    MAX_WORD_LETTERS,
    MalformedWordError,
    cyclic_join,
    cyclic_reduce,
    deglex_successor,
    encode,
    free_reduce,
    insert,
    invert,
    is_regular,
    iter_reduced_words,
    iter_regular_words,
    least_rotation,
    match_face_label,
    parse_letter,
    parse_word,
    relator_variants,
    seam_positions,
    word_runs,
    word_text,
)

letters = st.tuples(st.integers(1, 4), st.sampled_from([1, -1]))
letter_lists = st.lists(letters, max_size=30)


def w(text: str, n: int = 4) -> str:
    return parse_word(text, n)


class TestReduce:
    def test_cancellation(self):
        assert word_of([(1, 1), (1, -1)]) == ""

    def test_run_merging(self):
        assert word_runs(word_of([(1, 1), (1, 1), (2, 1)])) == [(1, 2), (2, 1)]

    def test_inner_cancellation(self):
        out = word_of([(2, 1), (1, 1), (1, -1), (3, 1)])
        assert word_runs(out) == [(2, 1), (3, 1)]

    def test_bad_index(self):
        with pytest.raises(MalformedWordError):
            encode([(0, 1)])
        with pytest.raises(MalformedWordError):
            parse_word("x2 x5^-1", 4)

    @given(letter_lists)
    def test_idempotent(self, raw):
        once = word_of(raw)
        assert free_reduce(once) == once

    @given(letter_lists)
    def test_length_shrinks(self, raw):
        assert len(word_of(raw)) <= len(raw)

    @given(letter_lists)
    def test_parity_preserved(self, raw):
        assert len(word_of(raw)) % 2 == len(raw) % 2

    @given(letter_lists)
    def test_reduced_invariant(self, raw):
        code = word_of(raw)
        assert all(ord(a) ^ ord(b) != 1 for a, b in zip(code, code[1:]))


# naive references for the word kernel, on (index, sign) tuples


def naive_free_reduce(seq):
    seq = list(seq)
    i = 0
    while i + 1 < len(seq):
        if seq[i] == (seq[i + 1][0], -seq[i + 1][1]):
            del seq[i : i + 2]
            i = 0
        else:
            i += 1
    return tuple(seq)


def naive_cyclic_reduce(seq):
    seq = naive_free_reduce(seq)
    while len(seq) > 1 and seq[0] == (seq[-1][0], -seq[-1][1]):
        seq = seq[1:-1]
    return seq


@st.composite
def near_powers(draw, min_len=1, max_repeats=12):
    """Code strings u^k with at least min_len letters, or u^k with one
    letter changed or added."""
    unit = encode(draw(st.lists(letters, min_size=1, max_size=5)))
    least_repeats = -(-min_len // len(unit))
    code = unit * draw(st.integers(least_repeats, max(least_repeats, max_repeats)))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(code)))
        code = code[:at] + chr(draw(st.integers(0, 7))) + code[at + draw(st.integers(0, 1)) :]
    return code


@st.composite
def many_run_starts(draw):
    """Code strings with 9 to 40 maximal runs of the least letter (code 0),
    made of a few repeated pieces, so that many rotations tie for long."""
    pieces = draw(
        st.lists(
            st.tuples(st.integers(1, 3), st.lists(st.integers(1, 7), min_size=1, max_size=3)),
            min_size=1,
            max_size=3,
        )
    )
    pieces = ["\x00" * run + "".join(map(chr, rest)) for run, rest in pieces]
    return "".join(draw(st.lists(st.sampled_from(pieces), min_size=9, max_size=40)))


class TestKernel:
    @given(letter_lists)
    def test_free_reduce_deletes_inverse_pairs(self, raw):
        assert free_reduce(encode(raw)) == encode(naive_free_reduce(raw))

    @given(letter_lists)
    def test_cyclic_reduce_strips_inverse_ends(self, raw):
        core, conjugator = cyclic_reduce(encode(raw))
        assert core == encode(naive_cyclic_reduce(raw))
        assert free_reduce(conjugator + core + invert(conjugator)) == free_reduce(encode(raw))

    @given(
        st.lists(st.sampled_from([(1, 1), (1, -1), (2, 1)]), max_size=12).map(encode)
        | letter_lists.map(encode)
        | near_powers()
        # more than 8 competing run starts, and more than 64 letters: the
        # two-pointer path of least_rotation
        | many_run_starts()
        | near_powers(min_len=65, max_repeats=40)
        | st.lists(letters, min_size=65, max_size=200).map(encode)
    )
    @settings(max_examples=300)
    def test_least_rotation_is_min_rotation(self, code):
        rotations = [code[k:] + code[:k] for k in range(len(code))]
        assert least_rotation(code) == min(rotations, default="")

    def test_least_rotation_of_long_near_powers(self):
        # 400,000 letters: a quadratic comparison of candidates would not finish
        for code in (encode([(1, 1), (2, 1)]) * 199_999 + encode([(1, 1), (3, 1)]),
                     encode([(1, 400_000), (2, 1)])):
            assert least_rotation(code) == code
            assert least_rotation(code[7:] + code[:7]) == code

    def test_least_rotation_of_every_nine_block_word(self):
        # all 3^9 words of nine blocks x1^-a x2, a in {1, 2, 3}: each has
        # nine runs of its least letter x1^-1, so each takes the loop for
        # more than 8 run starts
        blocks = [encode([(1, -a), (2, 1)]) for a in (1, 2, 3)]
        for parts in product(blocks, repeat=9):
            code = "".join(parts)
            assert least_rotation(code) == min(code[k:] + code[:k] for k in range(len(code)))

    @given(letter_lists, letter_lists, st.data())
    def test_insert_reduces_at_the_seams(self, raw, raw_variant, data):
        word, variant = free_reduce(encode(raw)), free_reduce(encode(raw_variant))
        j = data.draw(st.integers(0, len(word)))
        assert insert(word, j, variant) == free_reduce(word[:j] + variant + word[j:])

    @given(letter_lists, letter_lists)
    def test_seam_positions_are_where_insertion_shortens(self, raw, raw_variant):
        variant = free_reduce(encode(raw_variant))
        word = free_reduce(encode(raw))
        full = len(word) + len(variant)
        linear = [j for j in range(len(word) + 1) if len(insert(word, j, variant)) < full]
        assert seam_positions(word, variant, cyclic=False) == linear
        word = cyclic_reduce(word)[0]
        full = len(word) + len(variant)
        cyclic = [j for j in range(len(word)) if len(cyclic_join(word, j, variant)) < full]
        assert seam_positions(word, variant, cyclic=True) == cyclic

    @given(letter_lists, letter_lists, st.lists(letters, max_size=3), st.data())
    def test_cyclic_insert_is_canonical_cyclic_reduction(self, raw, raw_relator, outer, data):
        word = least_rotation(cyclic_reduce(encode(raw))[0])
        # a rotation of a relator that is freely but, through the outer
        # conjugator, often not cyclically reduced: then not freely reduced
        relator = free_reduce(encode(outer) + encode(raw_relator) + invert(encode(outer)))
        k = data.draw(st.integers(0, len(relator)))
        variant = relator[k:] + relator[:k]
        face = free_reduce(variant)
        j = data.draw(st.integers(0, max(len(word) - 1, 0)))
        rotation = word[j:] + word[:j]
        expected = least_rotation(cyclic_reduce(rotation + variant)[0])
        assert least_rotation(cyclic_join(word, j, face)) == expected

    @given(letter_lists, st.lists(letter_lists, max_size=3), st.data())
    def test_match_face_label_finds_rotations(self, raw_label, raws, data):
        relators = [encode(raw) for raw in raws]
        # often a rotation of a relator or of its inverse, else any word
        label = encode(raw_label)
        if relators and data.draw(st.booleans()):
            pos = data.draw(st.integers(0, len(relators) - 1))
            base = data.draw(st.sampled_from((relators[pos], invert(relators[pos]))))
            k = data.draw(st.integers(0, len(base)))
            label = base[k:] + base[:k]
        # the first match, relator by relator, r before r^-1, least rotation first
        found = [
            (pos, sign, rot)
            for pos, r in enumerate(relators)
            for sign, target in ((1, r), (-1, invert(r)))
            for rot in range(len(label))
            if label[rot:] + label[:rot] == target
        ]
        assert match_face_label(label, relators) == (found[0] if found else None)

    @given(st.lists(letter_lists, max_size=3), st.lists(letters, max_size=3))
    def test_relator_variants_pair_rotations_with_reductions(self, raws, outer):
        relators = [free_reduce(encode(outer) + encode(raw) + invert(encode(outer))) for raw in raws]
        pairs = relator_variants(relators)
        rotations = {
            base[k:] + base[:k] for r in relators for base in (r, invert(r)) for k in range(len(base))
        }
        assert [variant for variant, _ in pairs] == sorted(rotations)
        assert all(face == free_reduce(variant) for variant, face in pairs)

    @given(letter_lists, letter_lists)
    def test_encoding_preserves_tuple_order(self, a, b):
        assert (encode(a) < encode(b)) == (tuple(a) < tuple(b))
        assert (encode(a) == encode(b)) == (tuple(a) == tuple(b))

    @given(letters)
    def test_inverse_letter_code(self, letter):
        index, sign = letter
        code = encode([letter])
        assert encode([(index, -sign)]) == invert(code) == chr(ord(code) ^ 1)

    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(-3, 3)), max_size=12))
    def test_parse_word_merges_runs_on_a_stack(self, runs):
        # zero exponents, repeated and cancelling indices: merged on a stack
        text = " ".join(f"x{index}^{exp}" for index, exp in runs)
        assert parse_word(text, 3) == free_reduce(encode(runs))

    def test_parse_word_never_expands_cancelling_runs(self):
        big = 10**12
        assert parse_word(f"x1^{big} x2 x2^-1 x1^{1 - big}", 3) == encode([(1, 1)])
        assert parse_word(f"x2 x1^{big} x1^-{big} x2^-1 x3", 3) == encode([(3, 1)])
        with pytest.raises(MalformedWordError):
            parse_word(f"x1^{big} x0", 3)

    def test_parse_word_caps_the_letters_it_spells(self):
        # runs merge before the cap is checked, so cancelling runs of any size pass
        assert parse_word(f"x1^{10**12} x1^{-(10**12)}", 3) == ""
        assert len(parse_word(f"x1^{MAX_WORD_LETTERS - 1} x2", 3)) == MAX_WORD_LETTERS
        for text in (f"x1^{MAX_WORD_LETTERS} x2", f"x1^{-(10**12)}", "x2^" + "9" * 5000):
            with pytest.raises(MalformedWordError):
                parse_word(text, 3)

    @given(letter_lists)
    def test_code_round_trip(self, raw):
        code = free_reduce(encode(raw))
        assert encode(word_runs(code)) == code
        assert parse_word(word_text(encode(raw)), 4) == code


class TestGroupOps:
    @given(letter_lists)
    def test_inverse_cancels(self, raw):
        word = word_of(raw)
        assert free_reduce(word + invert(word)) == ""

    @given(letter_lists, letter_lists)
    def test_product_length(self, a, b):
        x, y = word_of(a), word_of(b)
        assert len(free_reduce(x + y)) <= len(x) + len(y)

    def test_conjugate(self):
        a, g = w("x1"), w("x2")
        assert conjugate_by(g, a) == w("x1 x2 x1^-1")


class TestCyclicReduce:
    def test_simple(self):
        core, conj = cyclic_reduce(w("x1 x2 x1^-1"))
        assert core == w("x2")
        assert conj == w("x1")

    def test_fixed_point(self):
        core, conj = cyclic_reduce(w("x1^5"))
        assert core == w("x1^5")
        assert conj == ""

    def test_negative_conjugator(self):
        core, conj = cyclic_reduce(w("x3^-1 x2 x1 x3"))
        assert core == w("x2 x1")
        assert conj == w("x3^-1")

    @given(letter_lists)
    def test_decomposition(self, raw):
        word = word_of(raw)
        core, conj = cyclic_reduce(word)
        assert conjugate_by(core, conj) == word
        assert is_cyclically_reduced(core)


class TestRegularity:
    def test_empty_both(self):
        assert is_regular("") and is_counter_regular("")

    def test_letter_power_both(self):
        assert is_regular(w("x1^3")) and is_counter_regular(w("x1^3"))

    def test_decreasing_not_regular(self):
        assert not is_regular(w("x2 x1"))

    def test_negative_exponents_fine(self):
        assert is_regular(w("x1^-2 x3^4"))

    @given(letter_lists)
    def test_both_iff_letter_power(self, raw):
        word = word_of(raw)
        both = is_regular(word) and is_counter_regular(word)
        assert both == (len(word_runs(word)) <= 1)

    @given(letter_lists)
    def test_counter_is_inverse_regular(self, raw):
        word = word_of(raw)
        assert is_counter_regular(word) == is_regular(invert(word))

    @given(letter_lists)
    def test_regular_iff_indices_increase_by_run(self, raw):
        indices = [index for index, _ in word_runs(word_of(raw))]
        assert is_regular(word_of(raw)) == all(a < b for a, b in zip(indices, indices[1:]))


class TestMirror:
    def test_single_letter(self):
        assert relabel_mirror(w("x1", 3), 3) == w("x3^-1", 3)

    def test_example(self):
        assert relabel_mirror(w("x1^2 x2", 3), 3) == parse_word("x3^-2 x2^-1", 3)

    @given(letter_lists)
    def test_involution(self, raw):
        word = word_of(raw)
        assert relabel_mirror(relabel_mirror(word, 4), 4) == word

    @given(letter_lists)
    def test_swaps_regularity(self, raw):
        word = word_of(raw)
        m = relabel_mirror(word, 4)
        assert is_regular(word) == is_counter_regular(m)
        assert is_counter_regular(word) == is_regular(m)


class TestText:
    def test_parse_print_roundtrip(self):
        for text in ["", "x1", "x1^-1", "x2 x1^-3", "x1^5 x2^5 x3^5 x1^-1 x2^-1"]:
            assert word_text(parse_word(text, 5)) == text

    def test_prints_the_free_reduction(self):
        assert word_text(encode([(1, 1), (2, 1), (2, -1), (1, 2), (3, -1)])) == "x1^3 x3^-1"
        assert word_text(encode([(2, 1), (2, -1)])) == ""

    def test_bad_tokens(self):
        for text in ["y1", "x", "x1^", "x0", "x1 ^2", "x\u0661", "x1^\u0663"]:
            with pytest.raises(MalformedWordError):
                parse_word(text, 4)

    def test_letters_take_ascii_digits_only(self):
        # diagram labels go through parse_letter; int() would read these digits
        assert parse_letter("x1^-1", 4) == parse_word("x1^-1", 4)
        for text in ["x\u0661", "x\u0661^-1", "x1^-\u0661"]:
            with pytest.raises(MalformedWordError):
                parse_letter(text, 4)

    def test_out_of_alphabet(self):
        with pytest.raises(MalformedWordError):
            parse_word("x5", 4)

    @given(letter_lists)
    def test_roundtrip_random(self, raw):
        word = word_of(raw)
        assert parse_word(word_text(word), 4) == word


def deglex_key(code):
    # deg-lex order of code strings: by length, then by letter with
    # x_1 < x_1^-1 < x_2 < ... , the order of code ^ 1
    return (len(code), [ord(c) ^ 1 for c in code])


def sorted_reduced_codes(n, max_length):
    """Every reduced code string over x_1..x_n up to max_length letters,
    built by brute force and sorted by deglex_key."""
    codes, layer = [""], [""]
    for _ in range(max_length):
        layer = [
            code + chr(c)
            for code in layer
            for c in range(2 * n)
            if not code or ord(code[-1]) ^ c != 1
        ]
        codes += layer
    return sorted(codes, key=deglex_key)


SORTED_CODES = {n: sorted_reduced_codes(n, 4) for n in (1, 2, 3)}


def position(text, n):
    """Position of a word of length <= 4 in the deg-lex enumeration."""
    return SORTED_CODES[n].index(parse_word(text, n))


class TestDeglex:
    def test_letter_rank_bijection(self):
        # a letter's deg-lex rank is its code with the last bit flipped
        for r in range(8):
            index, sign = r // 2 + 1, 1 if r % 2 == 0 else -1
            assert ord(encode([(index, sign)])) ^ 1 == r
        singles = [word for _, word in zip(range(9), iter_reduced_words(4))][1:]
        assert singles == [chr(r ^ 1) for r in range(8)]

    def test_length_dominates(self):
        assert position("x3 x3", 3) < position("x1 x1 x1", 3)
        assert position("x3^-1", 3) < position("x1 x1", 3)

    def test_alphabetic(self):
        assert position("x1 x2 x3", 3) < position("x1 x3 x2", 3)

    def test_letter_before_inverse(self):
        assert position("x1", 3) < position("x1^-1", 3) < position("x2", 3)
        assert position("x2^-1 x1", 3) < position("x2^-1 x1^-1", 3)

    def test_successor_start(self):
        assert deglex_successor("", 3) == w("x1", 3)

    def test_successor_wraps_length(self):
        assert deglex_successor(w("x3^-1", 3), 3) == w("x1^2", 3)
        assert deglex_successor(w("x3^-3", 3), 3) == w("x1^4", 3)

    def test_successor_example(self):
        assert deglex_successor(w("x1 x2", 3), 3) == w("x1 x2^-1", 3)
        # the fill after x1^-1 is x1^-1, not the cancelling x1
        assert deglex_successor(w("x3 x1 x3^-1", 3), 3) == w("x3 x1^-2", 3)
        # x2 x2^-1 cancels, so x2 x3 follows x2^2
        assert deglex_successor(w("x2^2", 3), 3) == w("x2 x3", 3)

    def test_enumeration_matches_sorting(self):
        by_successor = []
        for word in iter_reduced_words(3):
            if len(word) > 4:
                break
            by_successor.append(word)
        # independently: all reduced words of length <= 4, sorted by key
        assert by_successor == SORTED_CODES[3]
        assert len(by_successor) == 1 + 6 + 30 + 150 + 750

    @given(st.sampled_from((1, 2, 3)), st.data())
    def test_successor_is_next_in_sorted_order(self, n, data):
        codes = SORTED_CODES[n]
        k = data.draw(st.integers(0, len(codes) - 2))
        assert deglex_successor(codes[k], n) == codes[k + 1]

    @given(letter_lists)
    def test_successor_is_greater(self, raw):
        code = free_reduce(encode(raw))
        assert deglex_key(deglex_successor(code, 4)) > deglex_key(code)


class TestRegularEnumeration:
    def test_regular_stream_is_sorted_and_regular(self):
        seen = [encode(runs) for runs in iter_regular_words(3, 4)]
        keys = [deglex_key(u) for u in seen]
        assert keys == sorted(keys)
        assert all(is_regular(u) for u in seen)
        assert len(set(seen)) == len(seen)

    def test_regular_stream_complete(self):
        # against the filtered full enumeration
        expected = []
        for word in iter_reduced_words(2):
            if len(word) > 4:
                break
            if is_regular(word):
                expected.append(word)
        assert [encode(runs) for runs in iter_regular_words(2, 4)] == expected
