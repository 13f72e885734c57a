"""Group words over a finite alphabet, and the word kernel.

A word is a code string: the letter x_i^s is the code point
``2*(i-1) + (s > 0)`` and a word is the `str` of its letters.  The inverse
of code c is ``c ^ 1``, and the deg-lex letter order x_1 < x_1^-1 < x_2 <
... < x_n^-1 is that of ``c ^ 1``.  A `str` puts no cap on the alphabet
and stores code points below 256 in one byte each.  Every algorithm on
words (free and cyclic reduction, least rotation, relator insertion,
deg-lex enumeration) runs on this one form, and text is read into it
(`parse_word`) and printed from it (`word_text`) at the edges.
`parse_word` gives a freely reduced code string, and so does every
procedure that returns a word; the public decision procedures reduce
their word arguments on entry.

Reduction and least rotation take any code string.  The insertion steps
(`insert`, `cyclic_join`) take reduced inputs, so that letters cancel
only at the seams, and their docstrings say which.
"""

from __future__ import annotations

import re
from itertools import groupby
from typing import Iterable, Iterator, Optional, Sequence


class DataError(ValueError):
    """Input data that is malformed or outside its alphabet (exit 65)."""


class MalformedWordError(DataError):
    """A letter index is outside the alphabet, or word text does not parse."""


# -- the word kernel -----------------------------------------------------


def encode(runs: Iterable[tuple[int, int]]) -> str:
    """Code string of runs (index, exponent); a letter (index, sign) is a run."""
    parts = []
    for index, exp in runs:
        if index < 1:
            raise MalformedWordError(f"letter index {index} out of range")
        parts.append(chr(2 * (index - 1) + (exp > 0)) * abs(exp))
    return "".join(parts)


def invert(code: str) -> str:
    """Inverse of any code string."""
    return "".join(chr(ord(c) ^ 1) for c in reversed(code))


def free_reduce(code: str) -> str:
    """Free reduction of any code string."""
    out: list[str] = []
    for c in code:
        if out and ord(out[-1]) ^ ord(c) == 1:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def cyclic_reduce(code: str) -> tuple[str, str]:
    """(core, conjugator) with code = conjugator core conjugator^-1 freely;
    code is any code string."""
    return _strip_ends(free_reduce(code))


def _strip_ends(code: str) -> tuple[str, str]:
    # (core, conjugator) of a freely reduced code string
    i, j = 0, len(code) - 1
    while i < j and ord(code[i]) ^ ord(code[j]) == 1:
        i += 1
        j -= 1
    return code[i : j + 1], code[:i]


def _cancelled(left: str, right: str) -> int:
    # how many letters of left's end cancel against right's start
    k, limit = 0, min(len(left), len(right))
    while k < limit and ord(left[-1 - k]) ^ ord(right[k]) == 1:
        k += 1
    return k


_FEW_STARTS = 8


def least_rotation(code: str) -> str:
    """Least rotation of any code string, in linear time.

    The least rotation starts at the first letter of a maximal run of the
    least letter.  When there are at most `_FEW_STARTS` such starts, their
    rotations are compared whole.  Otherwise the textbook two-pointer loop
    compares letter by letter: when the rotations at i and j first differ
    at offset k, the larger one and the k rotations after it are dropped.
    """
    if not code:
        return code
    n = len(code)
    least = min(code)
    first_other = n - len(code.lstrip(least))
    # from a letter other than the least one, no run of it wraps around
    text = code[first_other:] + code[:first_other]
    doubled = text + text
    # few run starts: compare their rotations whole, in O(_FEW_STARTS * n)
    starts: list[int] = []
    i = text.find(least)
    while i != -1 and len(starts) <= _FEW_STARTS:
        starts.append(i)
        i = text.find(least, n - len(text[i:].lstrip(least)))
    if len(starts) <= _FEW_STARTS:
        return min(doubled[i : i + n] for i in starts)
    # each mismatch drops k + 1 rotations, so O(n) letters are compared
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = doubled[i + k], doubled[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    i = min(i, j)
    return doubled[i : i + n]


def seam_positions(word: str, variant: str, *, cyclic: bool) -> list[int]:
    """Positions j, in increasing order, at which inserting the freely
    reduced variant into the reduced word cancels a letter at a seam.

    Such a j has word[j-1] inverse to variant[0] or word[j] inverse to
    variant[-1], so only those two letters of variant matter.  Linear
    positions (`insert`) run over 0..len(word); cyclic ones (`cyclic_join`,
    on a cyclically reduced word) over 0..len(word)-1, with word[-1]
    before position 0.  At every other position nothing cancels and the
    result has len(word) + len(variant) letters.
    """
    n = len(word)
    found = set()
    for letter, shift in ((variant[:1], 1), (variant[-1:], 0)):
        if not letter:
            break  # an empty variant has no seam letters
        inverse = chr(ord(letter) ^ 1)
        i = word.find(inverse)
        while i != -1:
            found.add(i + shift)
            i = word.find(inverse, i + 1)
    if cyclic and n in found:
        found.remove(n)
        found.add(0)
    return sorted(found)


def insert(word: str, j: int, variant: str) -> str:
    """Free reduction of word with variant inserted at position j.

    word and variant must be freely reduced, so letters cancel only at the
    two seams.
    """
    left = word[:j]
    k = _cancelled(left, variant)
    head = left[: len(left) - k] + variant[k:]
    tail = word[j:]
    k = _cancelled(head, tail)
    return head[: len(head) - k] + tail[k:]


def cyclic_join(word: str, j: int, variant: str) -> str:
    """Cyclically reduced core of the rotation of word that starts at
    position j, followed by variant.

    word must be cyclically reduced, so that each of its rotations is
    freely reduced, and variant freely reduced: letters cancel only where
    the rotation meets variant, then at the two ends.
    """
    rotation = word[j:] + word[:j]
    k = _cancelled(rotation, variant)
    return _strip_ends(rotation[: len(rotation) - k] + variant[k:])[0]


def match_face_label(label: str, relators: Sequence[str]) -> Optional[tuple[int, int, int]]:
    """(relator position, sign, rotation) such that the face label read
    from `rotation` equals relator^sign, or None; all are code strings.  Uses
    substring search in the doubled label, so matching stays linear in the
    boundary length; the lowest match is the least rotation."""
    k = len(label)
    if k == 0:
        return None
    doubled = label * 2
    for pos, r in enumerate(relators):
        for sign, target in ((1, r), (-1, invert(r))):
            if len(target) != k:
                continue
            rot = doubled.find(target)
            if rot >= 0:
                return (pos, sign, rot)
    return None


def relator_variants(relators: Iterable[str]) -> tuple[tuple[str, str], ...]:
    """The faces over the relators: every rotation of each relator code
    string and of its inverse, deduplicated, sorted, each paired with its
    free reduction, which insertion takes (a rotation of a relator that is
    not cyclically reduced is not freely reduced)."""
    variants: set[str] = set()
    for r in relators:
        for base in (r, invert(r)):
            variants.update(base[k:] + base[:k] for k in range(len(base)))
    return tuple((variant, free_reduce(variant)) for variant in sorted(variants))


def ab_vector(code: str, n: int) -> tuple[int, ...]:
    """Image of code in the free abelian group on x_1..x_n: exponent sums."""
    vec = [0] * n
    for c in map(ord, code):
        vec[c >> 1] += 1 if c & 1 else -1
    return tuple(vec)


def perm_powers(p: tuple[int, ...]) -> list[tuple[int, ...]]:
    """p^0, p^1, ... up to p's order, for a permutation p of range(len(p))
    that moves point j to p[j]."""
    powers = [tuple(range(len(p)))]
    while True:
        q = tuple(map(p.__getitem__, powers[-1]))
        if q == powers[0]:
            return powers
        powers.append(q)


def perm_image(runs: Iterable[tuple[int, int]], powers: Sequence[list]) -> tuple[int, ...]:
    """The permutation a word moves points by, letter by letter from the
    left, given its runs (index, exponent) and, for each x_i, the powers of
    its image (`perm_powers`) as powers[i-1]: a run costs one power taken
    modulo the image's order."""
    image = powers[0][0]
    for index, exp in runs:
        cycle = powers[index - 1]
        p = cycle[exp % len(cycle)]
        image = tuple(map(p.__getitem__, image))
    return image


_TOKEN = re.compile(r"^x(\d+)(?:\^(-?\d+))?$", re.ASCII)

# the most letters word text may spell, so that no exponent makes the
# reader allocate without bound; far above the longest word a query reads,
# r1 at n=63 (39,755 letters)
MAX_WORD_LETTERS = 2**24


def parse_word(text: str, n: int) -> str:
    """Reduced code string over x_1..x_n of the grammar of
    whitespace-separated `x<i>` / `x<i>^<k>` tokens.

    Runs are merged on a stack by adding exponents, so no run is expanded
    before the end: a zero exponent is dropped, and a run that cancels to
    zero is popped, which lets its neighbours meet.  A word that would
    spell more than `MAX_WORD_LETTERS` letters is rejected before it is.
    """
    stack: list[tuple[int, int]] = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise MalformedWordError(f"bad token {token!r}")
        try:
            index, exp = int(m.group(1)), int(m.group(2) or 1)
        except ValueError as exc:  # more digits than int() converts
            raise MalformedWordError(f"bad token {token!r}") from exc
        if not 1 <= index <= n:
            raise MalformedWordError(f"letter index {index} out of range")
        if stack and stack[-1][0] == index:
            exp += stack.pop()[1]
        if exp:
            stack.append((index, exp))
    if sum(abs(exp) for _, exp in stack) > MAX_WORD_LETTERS:
        raise MalformedWordError(f"word spells more than {MAX_WORD_LETTERS} letters")
    return encode(stack)


def parse_letter(text: str, n: int) -> str:
    """Code of a single letter over x_1..x_n, `x<i>` or `x<i>^-1`."""
    m = _TOKEN.match(text)
    if m is None or m.group(2) not in (None, "-1"):
        raise MalformedWordError(f"bad letter {text!r}")
    return parse_word(text, n)


def word_runs(code: str) -> list[tuple[int, int]]:
    """Maximal runs (index, exponent) of the letters of a code string."""
    runs = []
    for c, group in groupby(map(ord, code)):
        count = sum(1 for _ in group)
        runs.append((c // 2 + 1, count if c & 1 else -count))
    return runs


def word_text(code: str) -> str:
    """The free reduction of a code string in the grammar `parse_word` reads."""
    return " ".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in word_runs(free_reduce(code)))


def is_regular(code: str) -> bool:
    """Whether a reduced code string is a regular word x_1^{k_1}...x_n^{k_n}:
    its letter indices never decrease, and one index is one letter."""
    return all(a == b or ord(a) >> 1 < ord(b) >> 1 for a, b in zip(code, code[1:]))


# -- deg-lex order -------------------------------------------------------


def deglex_successor(code: str, n: int) -> str:
    """Least reduced code string over x_1..x_n strictly after the reduced
    code string `code` in deg-lex order: by length, then letter by letter
    in the order of ``ord(c) ^ 1``."""
    for i in reversed(range(len(code))):
        cancelling = ord(code[i - 1]) ^ 1 if i else -1
        for key in range((ord(code[i]) ^ 1) + 1, 2 * n):
            c = key ^ 1
            if c != cancelling:
                # the least letter after c is x_1, or x_1^-1 after x_1^-1
                return code[:i] + chr(c) + ("\x00" if c == 0 else "\x01") * (len(code) - i - 1)
    # code is the last word of its length; the next is x_1^(length+1)
    return "\x01" * (len(code) + 1)


def iter_reduced_words(n: int) -> Iterator[str]:
    """All reduced code strings over x_1..x_n in deg-lex order, from the
    empty word."""
    code = ""
    while True:
        yield code
        code = deglex_successor(code, n)


def _regular_runs(n: int, first: int, remaining: int) -> Iterator[tuple[tuple[int, int], ...]]:
    # runs (index, exponent) over x_first..x_n of the regular words with
    # `remaining` letters, in deg-lex order
    if remaining == 0:
        yield ()
        return
    for index in range(first, n + 1):
        for sign in (1, -1):
            for count in range(remaining, 0, -1):
                for tail in _regular_runs(n, index + 1, remaining - count):
                    yield ((index, sign * count),) + tail


def iter_regular_words(n: int, max_length: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Runs (index, exponent) of the regular words x_1^{k_1}...x_n^{k_n} in
    deg-lex order, lengths 0..max_length; `encode` spells each one."""
    for length in range(max_length + 1):
        yield from _regular_runs(n, 1, length)
