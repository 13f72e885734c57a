"""Budgeted decision procedures: bounded-diagram tests, word problem,
regular normal forms, conjugacy.

Every procedure is three-valued: "yes" and "no" are certified (a yes
carries a replayable witness, a no is produced only when the bounded
search space was exhausted or an abelianized obstruction exists), and
resource exhaustion is reported as "budget-exceeded", never converted
into a no.

The disc-diagram test uses an exact accounting identity: in any diagram
whose darts are partitioned between face boundary cycles and the contour,

    2 * edges = sum of face boundary lengths + contour length.

So a disc diagram with contour label z and at most E edges exists if and
only if z has a filling whose total face boundary length is at most
2E - |z|.  The search for fillings runs over cyclically reduced cyclic
words with relator-variant insertions, ordered by accumulated face area.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, takewhile
from math import ceil, floor
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .words import (
    ab_vector,
    cyclic_join,
    cyclic_reduce,
    encode,
    free_reduce,
    insert,
    invert,
    iter_reduced_words,
    iter_regular_words,
    least_rotation,
    match_face_label,
    perm_image,
    perm_powers,
    relator_variants,
    seam_positions,
    word_runs,
)

if TYPE_CHECKING:
    from .construction import Presentation

YES = "yes"
NO = "no"
EXCEEDED = "budget-exceeded"
OBSTRUCTED = "abelianized obstruction"  # witness of a no from the abelian image
ENGINES = ("diagram", "rewrite", "both")


@dataclass(frozen=True)
class Budget:
    """Resource limits; exceeding any cap yields budget-exceeded, never a wrong answer."""

    max_edges: int = 10**6
    max_word_len: int = 200
    max_states: int = 20000

    def __post_init__(self) -> None:
        if self.max_edges <= 0 or self.max_word_len <= 0 or self.max_states <= 0:
            raise ValueError("all budget caps must be positive")


@dataclass(frozen=True)
class Outcome:
    value: str
    witness: object = None

    @property
    def is_yes(self) -> bool:
        return self.value == YES

    @property
    def is_no(self) -> bool:
        return self.value == NO

    @property
    def exceeded(self) -> bool:
        return self.value == EXCEEDED


@dataclass(frozen=True)
class FillWitness:
    """A disc diagram described by its contour word and face-insertion trace;
    words are code strings of the word kernel."""

    contour: str
    trace: tuple[tuple[int, str], ...]  # (insert position, face label)
    edges: int
    area: int  # total face boundary length


@dataclass(frozen=True)
class RewriteWitness:
    """Insertion chains from u and from v meeting at a common reduced word."""

    meeting_point: str
    steps_from_u: tuple[str, ...]
    steps_from_v: tuple[str, ...]


@dataclass(frozen=True)
class ConjugacyWitness:
    conjugator: str
    certificate: object = None  # fill witness for s u s^-1 v^-1, if a filling was needed
    lemmas: tuple[FillWitness, ...] = ()  # fillings of the trivial words it uses as faces


# ---------------------------------------------------------------------------
# abelianized obstruction


def _ab_in_lattice(target: Sequence[int], basis: Sequence[tuple[int, Sequence[int]]]) -> bool:
    """Exact membership of `target` in the lattice of the echelon basis
    `basis` (as in `Presentation.lattice`): reduced row by row in pivot
    order, a member leaves no remainder at any pivot and ends at zero."""
    rest = list(target)
    for col, row in basis:
        k, r = divmod(rest[col], row[col])
        if r:
            return False
        if k:
            rest[col:] = [a - k * b for a, b in zip(rest[col:], row[col:])]
    return not any(rest)


def ab_obstructed(code: str, presentation: Presentation) -> bool:
    """True when the abelianization certifies that no filling of code exists."""
    return not _ab_in_lattice(ab_vector(code, presentation.params.n), presentation.lattice)


def _separated_from(g: str, presentation: Presentation) -> Callable[[Sequence], bool]:
    """Test of a word's runs: true when some finite quotient
    (`Presentation.quotients`) sends the word and g to different
    permutations, so that the word is not g in the group."""
    runs_g, images = word_runs(g), []
    for quotient in presentation.quotients:
        powers = [perm_powers(p) for p in quotient]
        images.append((powers, perm_image(runs_g, powers)))
    return lambda runs: any(perm_image(runs, powers) != image for powers, image in images)


# ---------------------------------------------------------------------------
# area-bounded filling search (the disc-diagram engine)


@dataclass
class _SearchResult:
    witness: Optional[FillWitness] = None
    complete: bool = True  # search space exhausted without hitting a cap

    @property
    def found(self) -> bool:
        return self.witness is not None


def _filling(contour: str, trace: tuple = (), area: int = 0) -> FillWitness:
    """The witness of a filling of contour by the faces trace inserts, whose
    boundaries have total length area: 2 * edges = area + |contour|."""
    return FillWitness(contour, trace, (area + len(contour)) // 2, area)


def _verdict(witness: object, complete: bool) -> Outcome:
    """yes with a witness; no only after a complete search; else budget-exceeded."""
    if witness is not None:
        return Outcome(YES, witness=witness)
    return Outcome(NO if complete else EXCEEDED)


def _fill_search(
    faces: Sequence[tuple[str, str]],
    contour: str,
    area_bound: int,
    budget: Budget,
) -> _SearchResult:
    """Dijkstra over canonical cyclic words; cost = accumulated face boundary length.

    faces pairs each relator variant, as the trace records it, with its
    free reduction, which is what gets inserted (`relator_variants`).  A
    filling of the contour, which need not be reduced, comes back as its
    witness.
    """
    start = least_rotation(cyclic_reduce(contour)[0])
    if not start:
        return _SearchResult(_filling(contour))
    if area_bound <= 0 or not faces:
        return _SearchResult()
    min_variant = min(len(variant) for variant, _ in faces)
    best: dict[str, int] = {start: 0}
    parent: dict[str, tuple] = {start: None}
    heap: list[tuple[int, str]] = [(0, start)]
    complete = True
    while heap:
        area, word = heapq.heappop(heap)
        if area > best.get(word, -1):
            continue
        # seam positions in word; faces with equal end letters share them
        cancelling: dict[str, list[int]] = {}
        for variant, face in faces:
            child_area = area + len(variant)
            if child_area > area_bound:
                continue
            if child_area + min_variant > area_bound:
                # no further insertion fits under the bound, so only an empty
                # child counts; both words are reduced, so that needs the
                # whole seam to cancel: a rotation of word reading face^-1
                j = (word + word).find(invert(face)) if len(face) == len(word) else -1
                positions = (j,) if j >= 0 else ()
            elif len(word) + len(face) <= budget.max_word_len:
                positions = range(len(word))
            else:
                # a child in which no seam cancels has len(word) + len(face)
                # letters, too many to keep: visit only the cancelling seams
                ends = face[:1] + face[-1:]
                if ends not in cancelling:
                    cancelling[ends] = seam_positions(word, face, cyclic=True)
                positions = cancelling[ends]
                if len(positions) < len(word):
                    complete = False
            for j in positions:
                core = cyclic_join(word, j, face)
                if not core:
                    trace = _rebuild_trace(parent, word) + ((j, variant),)
                    return _SearchResult(_filling(contour, trace, child_area))
                if len(core) > budget.max_word_len:
                    complete = False
                    continue
                # only a child that may be stored is worth canonicalising
                child = least_rotation(core)
                if child_area < best.get(child, area_bound + 1):
                    if child not in best and len(best) >= budget.max_states:
                        # give up promptly rather than churn a capped frontier
                        return _SearchResult(complete=False)
                    best[child] = child_area
                    parent[child] = (word, j, variant)
                    heapq.heappush(heap, (child_area, child))
    return _SearchResult(complete=complete)


def _rebuild_trace(parent: dict, word: str) -> tuple:
    steps = []
    while parent.get(word) is not None:
        prev, j, variant = parent[word]
        steps.append((j, variant))
        word = prev
    return tuple(reversed(steps))


def replay_fill(witness: FillWitness, presentation: Presentation) -> bool:
    """Independent replay of a fill witness by pure free/cyclic reduction."""
    return _replay(witness, presentation.relator_words())


def _replay(witness: FillWitness, relators: Sequence[str]) -> bool:
    # each face is matched against the relators, in time linear in its length
    word = least_rotation(cyclic_reduce(witness.contour)[0])
    area = 0
    for j, variant in witness.trace:
        if match_face_label(variant, relators) is None or (word and not 0 <= j < len(word)):
            return False
        word = least_rotation(cyclic_join(word, j, free_reduce(variant)))
        area += len(variant)
    return not word and area == witness.area and 2 * witness.edges == area + len(witness.contour)


# ---------------------------------------------------------------------------
# the C and D predicates


def in_C(
    presentation: Presentation, E: Fraction | int, u: str, v: str, budget: Budget
) -> Outcome:
    """Does a disc diagram over the relators with at most E edges have contour uv^-1?"""
    z = u + invert(v)
    e_genuine = floor(E)
    if ab_obstructed(z, presentation):
        return Outcome(NO, witness=OBSTRUCTED)
    e_cap = min(e_genuine, budget.max_edges)
    area_bound = 2 * e_cap - len(z)
    if area_bound < 0:
        # even a degenerate diagram needs |z|/2 edges
        return _verdict(None, 2 * e_genuine < len(z))
    result = _fill_search(presentation.faces, z, area_bound, budget)
    return _verdict(result.witness, result.complete and e_cap == e_genuine)


def d_edge_bound(presentation: Presentation, u: str, v: str) -> Fraction:
    q = presentation.params.q
    return Fraction(1 + q * presentation.max_relator_len, 2) * (len(u) + len(v))


def in_D(presentation: Presentation, u: str, v: str, budget: Budget) -> Outcome:
    """The bounded-diagram equality test with E = (1+qL)/2 * (|u|+|v|)."""
    return in_C(presentation, d_edge_bound(presentation, u, v), u, v, budget)


# ---------------------------------------------------------------------------
# rewriting engine (bidirectional relator-insertion search)


def rewrite_search(presentation: Presentation, u: str, v: str, budget: Budget) -> Outcome:
    """Bidirectional search by relator insertion plus free reduction.

    A no is certified only when both reachable sets close without hitting
    any cap (which happens e.g. over an empty relator set).
    """
    start_u, start_v = free_reduce(u), free_reduce(v)
    faces = [face for _, face in presentation.faces]
    sides: list[dict] = [{start_u: None}, {start_v: None}]
    frontiers = [[start_u], [start_v]]
    complete = True

    def chain(side: int, word) -> tuple:
        steps = []
        while word is not None:
            steps.append(word)
            word = sides[side][word]
        return tuple(reversed(steps))

    if start_u == start_v:
        return Outcome(YES, witness=RewriteWitness(start_u, (start_u,), (start_v,)))
    while frontiers[0] or frontiers[1]:
        side = 0 if frontiers[0] and (not frontiers[1] or len(sides[0]) <= len(sides[1])) else 1
        frontier = frontiers[side]
        frontiers[side] = []
        for word in frontier:
            for face in faces:
                if len(word) + len(face) <= budget.max_word_len:
                    positions: Sequence[int] = range(len(word) + 1)
                else:
                    # as in _fill_search: only a cancelling seam can shorten
                    # the child enough to keep
                    positions = seam_positions(word, face, cyclic=False)
                    if len(positions) < len(word) + 1:
                        complete = False
                for j in positions:
                    child = insert(word, j, face)
                    if len(child) > budget.max_word_len:
                        complete = False
                        continue
                    if child in sides[side]:
                        continue
                    if len(sides[0]) + len(sides[1]) >= budget.max_states:
                        return Outcome(EXCEEDED)
                    sides[side][child] = word
                    frontiers[side].append(child)
                    if child in sides[1 - side]:
                        chains = (chain(0, child), chain(1, child))
                        return Outcome(
                            YES, witness=RewriteWitness(child, chains[0], chains[1])
                        )
    return _verdict(None, complete)


def replay_rewrite(witness: RewriteWitness, presentation: Presentation, u: str, v: str) -> bool:
    """Independent replay of a rewrite witness, with no list of faces: a step
    a -> b inserts a face at position j exactly when b is reduced and
    a[:j]^-1 b a[j:]^-1 reduces to a face.  With r = c k c^-1 and k cyclically
    reduced, the faces of r are the rotations of k^+-1, which
    `match_face_label` tests, and t k^+-1 t^-1 for each suffix t of c."""
    relators = [cyclic_reduce(r) for r in presentation.relator_words()]
    cores = [k for k, _ in relators]

    def is_face(f: str) -> bool:
        core, t = cyclic_reduce(f)
        return any(
            match_face_label(core, [k]) and (not t or c.endswith(t) and core in (k, invert(k)))
            for k, c in relators
        )

    def step(a: str, b: str) -> bool:
        # each candidate face is a conjugate of b a^-1, so the cyclic core of
        # b a^-1 must be a rotation of some k^+-1: one linear test first
        if b != free_reduce(b) or match_face_label(cyclic_reduce(b + invert(a))[0], cores) is None:
            return False
        inserted = (free_reduce(invert(a[:j]) + b + invert(a[j:])) for j in range(len(a) + 1))
        return any(map(is_face, inserted))

    def check_chain(start: str, steps: Sequence[str]) -> bool:
        if not steps or steps[0] != start or steps[-1] != witness.meeting_point:
            return False
        return all(map(step, steps, steps[1:]))

    return check_chain(free_reduce(u), witness.steps_from_u) and check_chain(
        free_reduce(v), witness.steps_from_v
    )


# ---------------------------------------------------------------------------
# top-level procedures


def equals_in_G(
    presentation: Presentation, u: str, v: str, budget: Budget, engine: str = "diagram"
) -> Outcome:
    """Bounded equality test in the presented group, on the free reductions
    of u and v.

    A yes is always sound.  A no is exact for the bounded-diagram question;
    it implies inequality in the group whenever f(k) = qk is an isoperimetric
    function of the presentation (guaranteed at theorem scale, not at toy
    parameters).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    u, v = free_reduce(u), free_reduce(v)
    if u == v:
        return Outcome(YES, witness=_filling(u + invert(v)))
    if engine == "rewrite":
        return rewrite_search(presentation, u, v, budget)
    d = in_D(presentation, u, v, budget)
    if engine == "diagram" or d.is_yes or d.witness == OBSTRUCTED:
        # insertions keep the abelian image in its lattice coset, so
        # rewriting cannot reach a yes from an obstructed pair
        return d
    r = rewrite_search(presentation, u, v, budget)
    return d if d.is_no and not r.is_yes else r


def regular_normal_form(
    presentation: Presentation, g: str, budget: Budget, engine: str = "diagram"
) -> Outcome:
    """Deg-lex-least regular word equal to g within the bounded search.

    The scan runs over the regular words up to the completeness length
    (n+1)|g| + n^4 L.  When max_word_len cuts it shorter, a scan that
    matches nothing is budget-exceeded, not no.  So is a scan that
    max_states cuts short.

    Unless the engine is `rewrite`, which searches every candidate, the
    scan skips candidates that cannot equal g.  The exact lattice test
    skips those whose exponent vector lies outside the coset ab(g) +
    lattice.  Once the scan can no longer answer no, because the
    completeness length exceeds max_word_len or an earlier search was
    capped, a candidate that a finite quotient (`Presentation.quotients`,
    built on the first such candidate) separates from g is skipped too:
    its search could only answer no or budget-exceeded, so the verdict and
    the witness stay those of the first yes.  While a no is still
    possible every coset candidate is searched, since a capped search
    must make the verdict budget-exceeded.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    n = presentation.params.n
    g = free_reduce(g)
    bound = (n + 1) * len(g) + n**4 * presentation.max_relator_len
    complete = bound <= budget.max_word_len
    ab_g = ab_vector(g, n)
    separated = None
    candidates = iter_regular_words(n, min(bound, budget.max_word_len))
    for runs in islice(candidates, budget.max_states):
        if engine != "rewrite":
            # a regular word's abelian image is its exponent vector; outside
            # the coset ab(g) + lattice, in_C answers an obstructed no
            diff = list(ab_g)
            for index, exp in runs:
                diff[index - 1] -= exp
            if not _ab_in_lattice(diff, presentation.lattice):
                continue
            # once no `no` is possible, skipping a candidate that is not g
            # in G leaves the verdict that of the first yes
            if not complete:
                separated = separated or _separated_from(g, presentation)
                if separated(runs):
                    continue
        u = encode(runs)
        out = equals_in_G(presentation, u, g, budget, engine=engine)
        if out.is_yes:
            return _verdict(u, True)
        complete = complete and not out.exceeded
    return _verdict(None, next(candidates, None) is None and complete)


def _free_conjugacy(u: str, v: str) -> Optional[str]:
    """A conjugator with s u s^-1 = v in the free group, or None."""
    core_u, a = cyclic_reduce(u)
    core_v, b = cyclic_reduce(v)
    if len(core_u) != len(core_v):
        return None
    # the least k with core_v = p^-1 core_u p, p the first k letters of core_u
    k = (core_u + core_u).find(core_v)
    if k < 0:
        return None
    return free_reduce(b + invert(core_u[:k]) + invert(a))


def are_conjugate(presentation: Presentation, u: str, v: str, budget: Budget) -> Outcome:
    """Bounded conjugacy test following the trivial-word / annulus algorithm,
    on the free reductions of u and v.

    The annular-diagram step is realized by cutting the annulus: a
    conjugator s of length at most q(|u|+|v|) plus a disc filling of
    s u s^-1 v^-1 with face area at most 2q(|u|+|v|) - |u| - |v|.
    """
    n = presentation.params.n
    u, v = free_reduce(u), free_reduce(v)

    # Step 1: handle trivial inputs by the equality test.
    tu = equals_in_G(presentation, u, "", budget)
    tv = equals_in_G(presentation, v, "", budget)
    if tu.is_yes or tv.is_yes:
        eq = equals_in_G(presentation, u, v, budget)
        if eq.is_yes:
            return Outcome(YES, witness=ConjugacyWitness("", eq.witness))
        return eq
    complete = not (tu.exceeded or tv.exceeded)

    # Free-group conjugacy is a sound fast path (degenerate annulus).
    s = _free_conjugacy(u, v)
    if s is not None:
        return Outcome(YES, witness=ConjugacyWitness(s))

    # Abelianized conjugacy obstruction: conjugate elements have equal images.
    if ab_obstructed(u + invert(v), presentation):
        return Outcome(NO, witness=OBSTRUCTED)

    bound_len = ceil(presentation.params.q * (len(u) + len(v)))
    words = takewhile(lambda w: len(w) <= bound_len, iter_reduced_words(n))
    short = list(islice(words, budget.max_states))
    complete = complete and next(words, None) is None

    # Step 2: trivial words up to the length bound (budget-capped), kept
    # with their fillings for the certificates that insert them.  A rotation
    # of a kept word or of its inverse is trivial and adds no face: skipped.
    trivial: list[FillWitness] = []
    for w in short:
        if not w or any(match_face_label(w, [f.contour]) for f in trivial):
            continue
        t = equals_in_G(presentation, w, "", budget)
        if t.is_yes:
            trivial.append(t.witness)
        complete = complete and not t.exceeded

    # Steps 3-4: cut-annulus search over conjugators.  Every z below has
    # the abelian image of u v^-1, which passed the test above, and the
    # trivial words' images lie in the relator lattice: no z is obstructed.
    relators, contours = presentation.relator_words(), [f.contour for f in trivial]
    faces = relator_variants(relators + contours) if contours else presentation.faces
    area_bound = 2 * bound_len - (len(u) + len(v))
    for s in short:
        z = free_reduce(s + u + invert(s) + invert(v))
        result = _fill_search(faces, z, area_bound, budget)
        if result.found:
            # the trivial words whose faces it inserts beyond the relators'
            # own, which are matched only when there are trivial words
            trace = result.witness.trace if trivial else ()
            used = [variant for _, variant in trace if not match_face_label(variant, relators)]
            lemmas = tuple(f for f in trivial if match_face_label(f.contour, used))
            return _verdict(ConjugacyWitness(s, result.witness, lemmas), True)
        complete = complete and result.complete
    return _verdict(None, complete)


def replay_conjugacy(witness: ConjugacyWitness, presentation: Presentation, u: str, v: str) -> bool:
    """Independent replay of a conjugacy witness: s u s^-1 = v freely, or
    its certificate fills s u s^-1 v^-1 with faces of the relators and of
    its lemmas, trivial words whose own fillings replay."""
    s, certificate = witness.conjugator, witness.certificate
    z = free_reduce(s + u + invert(s) + invert(v))
    if certificate is None:
        return not z
    relators = presentation.relator_words() + [f.contour for f in witness.lemmas]
    return (
        all(replay_fill(lemma, presentation) for lemma in witness.lemmas)
        and free_reduce(certificate.contour) == z
        and _replay(certificate, relators)
    )
