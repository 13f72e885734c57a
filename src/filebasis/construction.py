"""Parameter validation and the inductive construction of the relator family.

Relators have the shape r_i = x_1^{m_i} x_2^{m_i} ... x_n^{m_i} w_i^{-1}
with m_i = N|w_i| + i, where w_i is the deg-lex-least reduced word that
does not start with x_1^{+-1}, does not end with x_n^{+-1}, and is not
equal (under the bounded equality test) to any regular word within the
completeness length bound.  All inequality checks use exact rationals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice, permutations, product
from typing import Sequence

from . import decision
from .words import (
    DataError,
    ab_vector,
    cyclic_reduce,
    encode,
    free_reduce,
    invert,
    is_regular,
    iter_reduced_words,
    parse_word,
    perm_image,
    perm_powers,
    relator_variants,
    word_runs,
    word_text,
)


class MalformedParamsError(ValueError):
    pass


class ConstructionError(DataError):
    pass


@dataclass(frozen=True)
class ConstructionParams:
    """n, lambda1, N plus the derived constants lambda2, mu, q (each computed once)."""

    n: int
    lambda1: Fraction
    N: int

    def __post_init__(self) -> None:
        try:
            object.__setattr__(self, "lambda1", Fraction(self.lambda1))
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise MalformedParamsError(f"bad rational {self.lambda1!r}: {exc}") from exc
        if self.n < 1:
            raise MalformedParamsError(f"n must be positive, got {self.n}")
        if not 0 < self.lambda1 < 1:
            raise MalformedParamsError(f"lambda1 must lie in (0,1), got {self.lambda1}")
        if self.N < 1:
            raise MalformedParamsError(f"N must be positive, got {self.N}")

    @cached_property
    def lambda2(self) -> Fraction:
        return Fraction(2, self.n)

    @cached_property
    def mu(self) -> Fraction:
        return self.lambda1 + 5 * self.lambda2

    @cached_property
    def q(self) -> Fraction:
        """Isoperimetric constant q = 1/(1-2*mu), an exact rational.

        When mu >= 1/2 the bound 1/(1-2*mu) is meaningless (negative or
        infinite), which happens at toy alphabet sizes; q then falls back
        to 1 so the derived edge budgets stay positive.
        """
        if self.mu >= Fraction(1, 2):
            return Fraction(1)
        return 1 / (1 - 2 * self.mu)


@dataclass(frozen=True)
class ParamCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ParamReport:
    checks: tuple[ParamCheck, ...]
    theorem_scale: bool

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "all_passed": self.all_passed,
            "theorem_scale": self.theorem_scale,
        }


def validate_params(p: ConstructionParams) -> ParamReport:
    """Exact-rational pass/fail for each inequality the construction needs."""
    n, l1 = p.n, p.lambda1
    l2, mu = p.lambda2, p.mu
    checks = []

    lhs_21 = (4 + Fraction(2 * n, 1) * l1 / (1 - l1)) * l1
    checks.append(
        ParamCheck(
            "small-cancellation bound",
            lhs_21 <= Fraction(1, n),
            f"(4 + 2n*l1/(1-l1))*l1 = {lhs_21} vs 1/n = {Fraction(1, n)}",
        )
    )
    checks.append(
        ParamCheck(
            "exponent-growth bound",
            l1 * n * p.N >= 1,
            f"l1*n*N = {l1 * n * p.N} vs 1",
        )
    )
    lhs_51 = 2 * l1 + 13 * l2
    checks.append(
        ParamCheck(
            "selection-density bound",
            lhs_51 < 1,
            f"2*l1 + 13*l2 = {lhs_51} vs 1",
        )
    )
    checks.append(
        ParamCheck("mu below one-half", mu < Fraction(1, 2), f"mu = {mu} vs 1/2")
    )

    lhs_52 = 1 - 2 * mu - 2 * l1 - Fraction(2 * n, 1) * l1 * l1 / (1 - l1)
    rhs_52 = 1 - Fraction(21, n)
    scale_ok = n >= 63 and lhs_52 >= rhs_52
    return ParamReport(tuple(checks), theorem_scale=scale_ok)


@dataclass(frozen=True)
class Relator:
    """Relator i, r = x_1^m ... x_n^m w^-1, with w and r as code strings."""

    i: int
    w: str
    m: int
    r: str


def regular_head(n: int, m: int) -> str:
    """The word x_1^m x_2^m ... x_n^m."""
    return encode((j, m) for j in range(1, n + 1))


def build_relator(p: ConstructionParams, i: int, w: str) -> Relator:
    """Assemble relator i from the free reduction of its word w; m = N|w| + i.

    Structural identities are asserted.  Shape and growth constraints on w
    are not: `check_relator` names their violations, since toy parameter
    sets can violate the growth inequality while remaining useful test
    fixtures.
    """
    if i < 1:
        raise ConstructionError(f"relator index must be positive, got {i}")
    w = free_reduce(w)
    if any(index > p.n for index, _ in word_runs(w)):
        raise ConstructionError("w uses letters outside the alphabet")
    m = p.N * len(w) + i
    r = free_reduce(regular_head(p.n, m) + invert(w))
    rel = Relator(i=i, w=w, m=m, r=r)
    if len(r) != p.n * m + len(w):
        raise ConstructionError("relator length does not match n*m + |w|")
    return rel


def _shape_problems(w: str, n: int) -> list[str]:
    """The shape constraints on a relator's word w that w violates; the
    empty word is regular."""
    runs = word_runs(w)
    problems = []
    if runs and runs[0][0] == 1:
        problems.append("w starts with x_1^{+-1}")
    if runs and runs[-1][0] == n:
        problems.append("w ends with x_n^{+-1}")
    if is_regular(w):
        problems.append("w is regular")
    return problems


def check_relator(p: ConstructionParams, rel: Relator) -> list[str]:
    """Names of violated per-relator constraints (empty list when clean)."""
    problems = []
    if rel.m != p.N * len(rel.w) + rel.i:
        problems.append("exponent is not N|w| + i")
    if rel.r != free_reduce(regular_head(p.n, rel.m) + invert(rel.w)):
        problems.append("relator is not x_1^m...x_n^m w^-1")
    if len(rel.r) != p.n * rel.m + len(rel.w):
        problems.append("length identity n*m + |w| fails")
    if cyclic_reduce(rel.r)[0] != rel.r:
        problems.append("relator is not cyclically reduced")
    problems += _shape_problems(rel.w, p.n)
    if p.lambda1 * (p.n * rel.m + len(rel.w)) < len(rel.w):
        problems.append("growth inequality l1*(n*m + |w|) >= |w| fails")
    return problems


# Presentation.quotients tries S_3^n only up to this size (n <= 4, about
# 5 ms at n=4 and 1 ms at n=3); beyond it, as at n=63, it finds none
_QUOTIENT_ASSIGNMENTS = 6**4


def _commute(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(a[b[j]] == b[a[j]] for j in range(len(a)))


def _relabel(p: tuple[int, ...], c: tuple[int, ...]) -> tuple[int, ...]:
    # p with every point j renamed c[j]: a conjugate of p
    q = [0] * len(p)
    for j, k in enumerate(p):
        q[c[j]] = c[k]
    return tuple(q)


@dataclass(frozen=True)
class Presentation:
    params: ConstructionParams
    relators: tuple[Relator, ...] = ()
    truncated: bool = False  # generation stopped early on budget exhaustion

    def validate(self) -> list[str]:
        """Re-check per-relator and cross-relator constraints."""
        problems = []
        for rel in self.relators:
            for issue in check_relator(self.params, rel):
                problems.append(f"relator {rel.i}: {issue}")
        ms = [rel.m for rel in self.relators]
        if len(set(ms)) != len(ms):
            problems.append("exponents m_i are not pairwise distinct")
        lengths = [len(rel.r) for rel in self.relators]
        if any(a > b for a, b in zip(lengths, lengths[1:])):
            problems.append("relator lengths are not nondecreasing")
        return problems

    def relator_words(self) -> list[str]:
        return [rel.r for rel in self.relators]

    # -- search data, computed once per presentation ----------------------

    @cached_property
    def faces(self) -> tuple[tuple[str, str], ...]:
        """Each relator variant with its free reduction, for the searches only."""
        return relator_variants(self.relator_words())

    @cached_property
    def lattice(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Echelon basis of the integer span of the relators' abelian images:
        (pivot column, row) pairs with increasing pivots, each row of length n
        zero before its pivot and positive at it.  Built column by column by
        Euclid's algorithm on the live rows; zero images drop out."""
        n = self.params.n
        rows = [list(ab_vector(r, n)) for r in self.relator_words()]
        basis = []
        for col in range(n):
            live = [row for row in rows if row[col]]
            while len(live) > 1:
                pivot = min(live, key=lambda row: abs(row[col]))
                for row in live:
                    if row is not pivot:
                        k = row[col] // pivot[col]
                        row[col:] = [a - k * b for a, b in zip(row[col:], pivot[col:])]
                live = [row for row in live if row[col]]
            if live:
                pivot = live[0]
                rows.remove(pivot)
                basis.append((col, tuple(a if pivot[col] > 0 else -a for a in pivot)))
        return tuple(basis)

    @cached_property
    def quotients(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The transitive, non-abelian permutation representations of the
        group of degree 3, one per conjugacy class, each as the generators'
        images: permutations p of (0, 1, 2) moving point j to p[j], which a
        word applies letter by letter from the left (`words.perm_image`).

        The assignments of S_3 images are tried, x_1's only up to
        conjugacy, and one is kept only after every relator maps to the
        identity; its image is non-abelian, so it is all of S_3 and
        transitive.  Abelian images add nothing to the exact lattice test.
        Empty, which separates nothing, when S_3^n has more than
        `_QUOTIENT_ASSIGNMENTS` assignments."""
        n = self.params.n
        if 6**n > _QUOTIENT_ASSIGNMENTS:
            return ()
        s3 = list(permutations(range(3)))
        identity = s3[0]
        cycles = {p: perm_powers(p) for p in s3}
        relators = [word_runs(r) for r in self.relator_words()]
        # a class's least member sends x_1 to the least conjugate of its image
        firsts = {min(_relabel(p, c) for c in s3) for p in s3}
        classes = set()
        for images in product(firsts, *[s3] * (n - 1)):
            powers = [cycles[p] for p in images]
            if any(perm_image(runs, powers) != identity for runs in relators):
                continue
            if all(_commute(a, b) for a, b in combinations(images, 2)):
                continue
            classes.add(min(tuple(_relabel(p, c) for p in images) for c in s3))
        return tuple(sorted(classes))

    @cached_property
    def max_relator_len(self) -> int:
        """L, the length of the longest relator (0 when there is none)."""
        return max((len(rel.r) for rel in self.relators), default=0)

    # -- JSON round-trip -------------------------------------------------

    def as_dict(self) -> dict:
        data = {
            "n": self.params.n,
            "lambda1": str(self.params.lambda1),
            "N": self.params.N,
            "relators": [
                {"i": rel.i, "w": word_text(rel.w), "m": rel.m, "r": word_text(rel.r)}
                for rel in self.relators
            ],
        }
        if self.truncated:  # written only when set, so complete output is unchanged
            data["truncated"] = True
        return data

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=2)

    @staticmethod
    def from_dict(data: dict) -> "Presentation":
        try:
            params = ConstructionParams(n=int(data["n"]), lambda1=data["lambda1"], N=int(data["N"]))
            relators = tuple(
                Relator(
                    i=int(item["i"]),
                    w=parse_word(item["w"], params.n),
                    m=int(item["m"]),
                    r=parse_word(item["r"], params.n),
                )
                for item in data.get("relators", [])
            )
        except (KeyError, TypeError, ValueError, OverflowError, AttributeError) as exc:
            # AttributeError: a relator's w or r that is not text
            raise MalformedParamsError(f"bad presentation data: {exc}") from exc
        truncated = data.get("truncated", False)
        if not isinstance(truncated, bool):
            raise MalformedParamsError(f"bad presentation data: truncated={truncated!r}")
        return Presentation(params=params, relators=relators, truncated=truncated)


def next_w(
    p: ConstructionParams, relators: Sequence[Relator], budget: "decision.Budget"
) -> "decision.Outcome":
    """Deg-lex-least candidate word for the next relator.

    A candidate must avoid x_1^{+-1} at the start and x_n^{+-1} at the
    end, and must not be equal (bounded equality test) to any regular
    word of length up to (n+1)|w| + n^4 L: its regular normal form search
    must answer no.  With no relators yet the test collapses to
    free-group equality, where a reduced word equals a regular word only
    if it is itself regular, so shape filtering alone decides; this keeps
    step 1 fast even at large n.
    """
    n = p.n
    presentation = Presentation(p, tuple(relators))
    for w in islice(iter_reduced_words(n), budget.max_states):
        if _shape_problems(w, n):
            continue
        if not relators:
            return decision.Outcome(decision.YES, witness=w)
        out = decision.regular_normal_form(presentation, w, budget)
        if out.exceeded:
            return out
        if out.is_no:
            return decision.Outcome(decision.YES, witness=w)
    return decision.Outcome(decision.EXCEEDED)


def generate(
    p: ConstructionParams, count: int, budget: "decision.Budget"
) -> Presentation:
    """Run the inductive construction for `count` steps.

    Deterministic for fixed inputs.  The produced family never reaches a
    fixed point: the full relator set is infinite, so generation is
    bounded only by `count` and the budget.  Budget exhaustion truncates
    the output and sets the truncated flag.
    """
    relators: list[Relator] = []
    for step in range(1, count + 1):
        out = next_w(p, relators, budget)
        if out.exceeded:
            return Presentation(p, tuple(relators), truncated=True)
        relators.append(build_relator(p, step, out.witness))
    return Presentation(p, tuple(relators))
