import random
from fractions import Fraction

import pytest

from filebasis import diagram as dg
from filebasis.construction import ConstructionParams, generate
from filebasis.decision import Budget
from filebasis.words import MalformedWordError, cyclic_reduce, encode, free_reduce, invert, is_regular


def word_of(raw):
    """The reduced code string of (index, sign) letters or (index, exponent) runs."""
    return free_reduce(encode(raw))


def conjugate_by(g, a):
    """a g a^-1, freely reduced."""
    return free_reduce(a + g + invert(a))


def is_cyclically_reduced(code):
    return cyclic_reduce(code)[0] == code


def is_counter_regular(code):
    """Regular read backwards: the inverse is regular."""
    return is_regular(invert(code))


def relabel_mirror(code, n):
    """Replace each letter x_i^s by x_{n+1-i}^{-s}; involutive.  The code
    2(i-1) + (s > 0) becomes 2(n-i) + (s < 0) = 2n - 1 - code."""
    if any(ord(c) >= 2 * n for c in code):
        raise MalformedWordError("letter index exceeds alphabet size")
    return "".join(chr(2 * n - 1 - ord(c)) for c in code)


def degenerate_path_diagram(code):
    """Face-free disc whose single contour reads code code^-1."""
    stops = [f"v{j}" for j in range(len(code) + 1)]
    darts, invs, froms, labels = dg._path(code, stops, lambda j: f"d{j}")
    contour = darts[::2] + darts[::-2]
    return dg._diagram(stops, darts, invs, froms, labels, [], [contour] if contour else [])


# permutations of range(k) as words move points, composed letter by letter
# with code of its own (`words.perm_image` works on runs)
IDENTITY = (0, 1, 2)  # of S_3, where the finite quotients lie


def inverse_perm(p):
    inverse = [0] * len(p)
    for j, k in enumerate(p):
        inverse[k] = j
    return tuple(inverse)


def compose(p, q):
    """Move a point by p, then by q."""
    return tuple(q[j] for j in p)


def moved_by(code, images):
    """The permutation a code string moves points by, composed letter by
    letter from the left: x_i by images[i-1], x_i^-1 by its inverse."""
    perm = tuple(range(len(images[0])))
    for c in map(ord, code):
        p = images[c >> 1]
        perm = compose(perm, p if c & 1 else inverse_perm(p))
    return perm


@pytest.fixture(scope="session")
def toy_params():
    return ConstructionParams(3, Fraction(1, 15), 2)


@pytest.fixture(scope="session")
def toy_budget():
    return Budget(max_edges=10**6, max_word_len=60, max_states=8000)


@pytest.fixture(scope="session")
def toy_presentation(toy_params, toy_budget):
    return generate(toy_params, 1, toy_budget)


# an independent bounded Cayley-ball oracle (closure of short words under
# relator insertion, computed by plain BFS with its own small code path),
# with a hand-written map into A5 as its certificate of inequality:
# x1 -> c, x2 -> c^-1, x3 -> d, with c and d 5-cycles of different cyclic
# subgroups.  It sends the toy relator r1 to the identity (asserted in
# test_decision), so words it sends to different permutations differ in G.
A5_C, A5_D = (1, 2, 3, 4, 0), (2, 0, 4, 1, 3)
TOY_A5_MAP = (A5_C, inverse_perm(A5_C), A5_D)


def _oracle_reduce(code):
    out = []
    for c in code:
        if out and ord(out[-1]) ^ ord(c) == 1:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def _oracle_cancelled(left, right):
    # how many letters of left's end cancel against right's start
    k, limit = 0, min(len(left), len(right))
    while k < limit and ord(left[-1 - k]) ^ ord(right[k]) == 1:
        k += 1
    return k


def _oracle_join(word, j, variant):
    """word with variant inserted at position j, freely reduced; both are
    reduced, so letters cancel only at the two seams."""
    left, right = word[:j], word[j:]
    k = _oracle_cancelled(left, variant)
    head = left[: len(left) - k] + variant[k:]
    k = _oracle_cancelled(head, right)
    return head[: len(head) - k] + right[k:]


class CayleyBallOracle:
    def __init__(self, relators, radius, images):
        """images map the generators to permutations that send every
        relator to the identity."""
        self.images = images
        self.variants = set()
        for r in relators:
            for base in (r, invert(r)):
                self.variants.update(_oracle_reduce(base[k:] + base[:k]) for k in range(len(base)))
        self.radius = radius
        self.closures = {}  # start -> (words reached, whether no child left the ball)

    def closure(self, start):
        """The reduced words that relator insertions reach from the reduced
        start without leaving the ball, and whether none left it."""
        if start not in self.closures:
            seen = {start}
            queue = [start]
            complete = True
            while queue:
                word = queue.pop()
                for variant in self.variants:
                    for j in range(len(word) + 1):
                        child = _oracle_join(word, j, variant)
                        if len(child) > self.radius:
                            complete = False
                        elif child not in seen:
                            seen.add(child)
                            queue.append(child)
            self.closures[start] = (seen, complete)
        return self.closures[start]

    def equal(self, u, v):
        """False when the images of u and v differ; otherwise True/False when
        the closure from u within the ball settles it, None when the ball
        boundary was reached (indeterminate)."""
        start, target = _oracle_reduce(u), _oracle_reduce(v)
        if moved_by(start, self.images) != moved_by(target, self.images):
            return False
        if max(len(start), len(target)) > self.radius:
            return None
        seen, complete = self.closure(start)
        if target in seen:
            return True
        return False if complete else None


@pytest.fixture(scope="session")
def ball_oracle(toy_presentation):
    """The oracle over the toy relator r1 in the ball of radius 21, with the
    A5 map, built once so that the tests that use it share the closures it
    keeps."""
    return CayleyBallOracle([toy_presentation.relators[0].r], radius=21, images=TOY_A5_MAP)


@pytest.fixture(scope="session")
def theorem_params():
    return ConstructionParams(63, Fraction(1, 315), 315)


@pytest.fixture()
def rng():
    return random.Random(20260824)


def pytest_runtest_logreport(report):
    # one pass/fail line per acceptance criterion
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    status = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {status} {name}")
