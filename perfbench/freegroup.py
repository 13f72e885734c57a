"""The benchmark's own free-group arithmetic, used to make inputs and to
check answers independently of the package under test.

A letter is a pair (index, sign) with sign in {+1, -1}; a word is a tuple
of letters.  Text uses the CLI grammar: whitespace-separated `x<i>` or
`x<i>^<k>` tokens.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")


def parse(text: str) -> tuple:
    letters = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad token {token!r}")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        if exp == 0:
            raise ValueError(f"zero exponent in {token!r}")
        letters.extend([(int(m.group(1)), 1 if exp > 0 else -1)] * abs(exp))
    return tuple(letters)


def text(word) -> str:
    """Run-length text of a word; the word is freely reduced first."""
    parts = []
    for index, exp in runs(reduce(word)):
        parts.append(f"x{index}" if exp == 1 else f"x{index}^{exp}")
    return " ".join(parts)


def runs(word) -> list:
    out: list = []
    for index, sign in word:
        if out and out[-1][0] == index:
            out[-1][1] += sign
        else:
            out.append([index, sign])
    return [(i, e) for i, e in out if e]


def inverse(word) -> tuple:
    return tuple((i, -s) for i, s in reversed(word))


def reduce(word) -> tuple:
    out: list = []
    for index, sign in word:
        if out and out[-1] == (index, -sign):
            out.pop()
        else:
            out.append((index, sign))
    return tuple(out)


def cyclic_reduce(word) -> tuple:
    word = reduce(word)
    i, j = 0, len(word) - 1
    while i < j and word[i] == (word[j][0], -word[j][1]):
        i += 1
        j -= 1
    return word[i : j + 1]


def least_rotation(word) -> tuple:
    """Least rotation in the tuple order of letters; quadratic, for short words."""
    if not word:
        return ()
    return min(word[k:] + word[:k] for k in range(len(word)))


def is_rotation(a, b) -> bool:
    return len(a) == len(b) and (not a or any(a[k:] + a[:k] == b for k in range(len(a))))


def is_regular(word) -> bool:
    indices = [i for i, _ in runs(reduce(word))]
    return all(a < b for a, b in zip(indices, indices[1:]))


def abelian(word, n: int) -> tuple:
    vec = [0] * n
    for index, sign in word:
        vec[index - 1] += sign
    return tuple(vec)


def in_lattice(target, generators) -> bool:
    """Exact membership of an integer vector in the integer span of generators.

    Row-reduces the generators over the integers with Euclid's algorithm
    (a Hermite-style echelon form), then peels the target off pivot by pivot.
    """
    rows = [list(g) for g in generators if any(g)]
    echelon = []
    col = 0
    width = len(target)
    while rows and col < width:
        rows = [r for r in rows if any(r)]
        live = [r for r in rows if r[col] != 0]
        if not live:
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            for r in live[1:]:
                q = r[col] // pivot[col]
                for k in range(width):
                    r[k] -= q * pivot[k]
            live = [r for r in live if r[col] != 0]
        pivot = live[0]
        echelon.append((col, pivot))
        rows = [r for r in rows if r is not pivot]
        col += 1
    rest = list(target)
    for col, pivot in echelon:
        if rest[col] % pivot[col]:
            return False
        q = rest[col] // pivot[col]
        for k in range(width):
            rest[k] -= q * pivot[k]
    return not any(rest)


def random_reduced(rng, length: int, n: int) -> tuple:
    """A uniformly drawn freely reduced word of the given length."""
    out: list = []
    while len(out) < length:
        letter = (rng.randint(1, n), rng.choice((1, -1)))
        if out and out[-1] == (letter[0], -letter[1]):
            continue
        out.append(letter)
    return tuple(out)
