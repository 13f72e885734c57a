"""Combinatorial maps and diagrams: dart-involution 2-complexes, labeled
faces and contours, selections, and the structural checkers.

A diagram is one record, `Diagram`, stored abstractly: darts with an
involution, vertex origins and letter labels, faces with boundary cycles,
and contour cycles.  The central structural invariant is the dart
partition: every dart lies in exactly one face boundary cycle or exactly
one contour, never both and never twice.  Sphericity of the ambient
surface is validated through the Euler characteristic (V - E + F + C = 2
for connected disc/annular/spherical maps, counting contour regions as
faces); no geometric embedding is kept.  Every checker takes the record;
a submap is a set of vertices, darts and faces inside it.

Darts and vertices are numbered once, when a diagram is read or built
(`_diagram`): darts 0 .. 2E-1 and vertices 0 .. V-1, in the order given.
The involution and the origins are tuples indexed by dart, cycles are
tuples of darts, and the labels are one code string indexed by dart, in
the letter encoding of `words`.  Three indexes are cached on the record at
first use: each dart's terminus, each dart's face and position, and each
vertex's outgoing darts.  The ids of the diagram file are kept, one tuple
for darts and one for vertices; reports and `diagram_to_dict` use them.
Faces keep their ids as keys.  A diagram that differs from another only
in its cycles is made from it with `dataclasses.replace`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .words import (
    DataError, encode, invert, match_face_label, parse_letter, relator_variants, word_text,
)


class DiagramError(DataError):
    pass


class PreconditionError(DiagramError):
    """A valid map outside a checker's hypotheses; the main lemma's carries
    the map's condition B reports, which may be an empty list."""

    def __init__(self, message: str, reports: Optional[Sequence] = None) -> None:
        super().__init__(message)
        self.reports = reports


@dataclass(frozen=True)
class Diagram:
    """A labelled map over numbered darts and vertices, with its contours.

    `inv[d]` is None where d's inverse is not a dart, and `origin[d]` None
    where d's origin is not a vertex.  `dart_ids` goes on past the darts
    with the ids that cycles name but no dart has, so that validation can
    report them.
    """

    vertices: tuple  # vertex -> its id
    dart_ids: tuple  # dart -> its id
    inv: tuple  # dart -> dart
    origin: tuple  # dart -> vertex
    labels: str  # dart -> code letter
    faces: dict  # face id -> tuple of darts (boundary cycle)
    contours: tuple  # cyclic dart sequences

    def edge_count(self) -> int:
        return len(self.inv) // 2

    def reverse(self, cycle: Sequence) -> tuple:
        """The cycle walked backwards, over the inverse darts."""
        return tuple(map(self.inv.__getitem__, reversed(cycle)))

    def face_code(self, face_id) -> str:
        """The face label as a code string."""
        return "".join(map(self.labels.__getitem__, self.faces[face_id]))

    @property
    def is_disc(self) -> bool:
        return len(self.contours) == 1

    # -- indexes, computed once per diagram --------------------------------

    @cached_property
    def terminus(self) -> list:
        """Dart -> the vertex it ends at."""
        return list(map(self.origin.__getitem__, self.inv))

    @cached_property
    def face_of(self) -> list:
        """Dart -> (face id, position in that face's boundary cycle), None
        for a dart on no face."""
        face_of: list = [None] * len(self.inv)
        for fid, cycle in self.faces.items():
            for pos, d in enumerate(cycle):
                face_of[d] = (fid, pos)
        return face_of

    @cached_property
    def out_darts(self) -> list:
        """Vertex -> the darts leaving it."""
        out: list = [[] for _ in self.vertices]
        for d, v in enumerate(self.origin):
            out[v].append(d)
        return out


@dataclass(frozen=True)
class FaceSelection:
    """One face's maximal selected subpath, by position in the boundary cycle."""

    face: object
    start: int  # index into the face's boundary cycle
    length: int

    def darts(self, d: Diagram) -> tuple:
        cycle = d.faces[self.face]
        k = len(cycle)
        return tuple(cycle[(self.start + j) % k] for j in range(self.length))


@dataclass(frozen=True)
class Selection:
    per_face: dict  # face id -> FaceSelection

    def marks(self, d: Diagram) -> bytearray:
        """Dart -> 1 on a designated subpath, 0 elsewhere."""
        marks = bytearray(len(d.inv))
        for fs in self.per_face.values():
            for dart in fs.darts(d):
                marks[dart] = 1
        return marks


@dataclass(frozen=True)
class DiagramMetrics:
    S: int  # selected external edges
    Sigma: int  # sum of face boundary lengths
    E: int  # edge count
    F: int  # face count


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationIssue:
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]
    face_matches: dict  # face id -> (relator index in list, sign, rotation) or None

    @property
    def ok(self) -> bool:
        return not self.issues

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "issues": [{"location": i.location, "message": i.message} for i in self.issues],
            "face_matches": {
                str(f): None if m is None else {"relator": m[0], "sign": m[1], "rotation": m[2]}
                for f, m in self.face_matches.items()
            },
        }


def _components(d: Diagram, keep: Optional[bytearray] = None) -> list[list]:
    """Vertex lists of the connected components of d, with the darts marked
    in `keep` (all darts when None) as its edges."""
    terminus, out_darts = d.terminus, d.out_darts
    seen = bytearray(len(d.vertices))
    components = []
    for v0 in range(len(d.vertices)):
        if seen[v0]:
            continue
        seen[v0] = 1
        component = [v0]
        for v in component:  # grows while it is walked
            for dart in out_darts[v]:
                w = terminus[dart]
                if not seen[w] and (keep is None or keep[dart]):
                    seen[w] = 1
                    component.append(w)
        components.append(component)
    return components


def validate_diagram(d: Diagram, relators: Sequence[str]) -> ValidationReport:
    """Full structural check plus face-label matching against the relators."""
    issues: list[ValidationIssue] = []
    inv, origin, ids = d.inv, d.origin, d.dart_ids
    darts = len(inv)

    for k, (j, v) in enumerate(zip(inv, origin)):
        if j is None or inv[j] != k or j == k or v is None:
            where = f"dart {ids[k]!r}"
            if j is None:
                issues.append(ValidationIssue(where, "involution image missing"))
            elif inv[j] != k:
                issues.append(ValidationIssue(where, "involution is not involutive"))
            elif j == k:
                issues.append(ValidationIssue(where, "involution has a fixed point"))
            if v is None:
                issues.append(ValidationIssue(where, "origin is not a vertex"))

    if issues:
        return ValidationReport(tuple(issues), {})

    # every face cycle and contour is a closed walk over known darts, and
    # together they partition the darts: each lies in exactly one of them
    terminus = d.terminus
    cycles = [(f"face {fid!r}", "empty boundary cycle", cycle) for fid, cycle in d.faces.items()]
    cycles += [(f"contour {k}", "empty contour", cycle) for k, cycle in enumerate(d.contours)]
    count = [0] * darts
    for where, empty, cycle in cycles:
        if not cycle:
            issues.append(ValidationIssue(where, empty))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            if a >= darts:
                issues.append(ValidationIssue(where, f"unknown dart {ids[a]!r}"))
                continue
            count[a] += 1
            if b < darts and terminus[a] != origin[b]:
                issues.append(
                    ValidationIssue(where, f"cycle breaks between darts {ids[a]!r} and {ids[b]!r}")
                )
    if count.count(1) != darts:
        homes: dict = {k: [] for k, times in enumerate(count) if times != 1}
        for where, _, cycle in cycles:
            for a in cycle:
                if a in homes:
                    homes[a].append(where)
        for k, where in homes.items():
            issues.append(
                ValidationIssue(
                    f"dart {ids[k]!r}",
                    f"appears {len(where)} times ({', '.join(where) or 'nowhere'}), expected once",
                )
            )

    if len(_components(d)) > 1:
        issues.append(ValidationIssue("map", "underlying complex is not connected"))

    # Euler characteristic, counting contour regions as faces.  An edgeless
    # single vertex is exempt: its complementary region has no contour cycle.
    if darts:
        chi = len(d.vertices) - d.edge_count() + len(d.faces) + len(d.contours)
        if chi != 2:
            issues.append(
                ValidationIssue("map", f"Euler characteristic {chi} != 2")
            )
    elif len(d.vertices) != 1 or d.faces or d.contours:
        issues.append(ValidationIssue("map", "edgeless map must be a single bare vertex"))

    labels = d.labels
    for k, j in enumerate(inv):
        if ord(labels[k]) ^ ord(labels[j]) != 1:
            issues.append(
                ValidationIssue(f"dart {ids[k]!r}", "inverse dart label is not the inverse letter")
            )

    face_matches: dict = {}
    if not issues:
        for fid in d.faces:
            match = match_face_label(d.face_code(fid), relators)
            face_matches[fid] = match
            if match is None:
                issues.append(
                    ValidationIssue(f"face {fid!r}", "label matches no relator in any rotation")
                )
    return ValidationReport(tuple(issues), face_matches)


# ---------------------------------------------------------------------------
# special selection


def _find_special_subpath(label: str, n: int) -> Optional[tuple[int, int]]:
    """(start, length) of a subpath reading x_1^m...x_n^m or x_n^-m...x_1^-m.

    Scans the runs of the doubled label for a pattern whose middle runs
    have exponent exactly m and whose end runs contribute at least m,
    taking m as large as the face admits.  Returns the position of the
    longest qualifying subpath, which has length n*m.
    """
    k = len(label)
    if k == 0 or n < 1:
        return None
    runs = [(c, sum(1 for _ in group)) for c, group in groupby(label * 2)]
    heads = "".join(c for c, _ in runs)
    positions = list(accumulate((count for _, count in runs), initial=0))
    best: Optional[tuple[int, int]] = None
    up = encode((j, 1) for j in range(1, n + 1))
    down = encode((j, -1) for j in range(n, 0, -1))
    for shape in (up, down):
        ri = heads.find(shape)
        while ri >= 0:
            counts = [count for _, count in runs[ri : ri + n]]
            middle = counts[1:-1]
            m = middle[0] if middle else min(counts)
            if all(c == m for c in middle) and counts[0] >= m and counts[-1] >= m:
                # align the window so its ends contribute exactly m letters
                start = (positions[ri] + counts[0] - m) % k
                if best is None or n * m > best[1]:
                    best = (start, n * m)
            ri = heads.find(shape, ri + 1)
    return best


def special_selection(d: Diagram, n: int) -> Selection:
    """The per-face designated subpath reading x_1^m...x_n^m (or its mirror).

    Each face must carry exactly one qualifying subpath s with
    |s| > n/(2n-2) * |boundary|, or |s| > |boundary|/2 when n = 1; a face
    without one is outside the checkers' hypotheses (`PreconditionError`).
    """
    min_fraction = Fraction(n, 2 * n - 2) if n > 1 else Fraction(1, 2)
    per_face = {}
    for fid in d.faces:
        label = d.face_code(fid)
        hit = _find_special_subpath(label, n)
        if hit is None:
            raise PreconditionError(f"face {fid!r}: no special subpath found")
        start, length = hit
        if Fraction(length) <= min_fraction * len(label):
            raise PreconditionError(
                f"face {fid!r}: special subpath of length {length} fails the "
                f"bound over boundary length {len(label)}"
            )
        per_face[fid] = FaceSelection(face=fid, start=start, length=length)
    return Selection(per_face)


# ---------------------------------------------------------------------------
# cancellable pairs


def find_immediately_cancellable(d: Diagram) -> list[frozenset]:
    """Unordered face pairs with mutually inverse labels readable from a
    shared edge: a dart on one face whose inverse is on the other, with the
    two boundary readings from that edge being equal words."""
    inv, face_of = d.inv, d.face_of
    labels = {fid: d.face_code(fid) for fid in d.faces}
    same: dict = {}  # (f1, f2, (p1 + p2) % k) -> whether the readings agree
    pairs = set()
    for dart, home in enumerate(face_of):
        other = face_of[inv[dart]]
        if home is None or other is None:
            continue
        (f1, p1), (f2, p2) = home, other
        k = len(labels[f1])
        if f1 == f2 or len(labels[f2]) != k:
            continue
        key = (f1, f2, (p1 + p2) % k)
        if key not in same:
            # p1: read forward around face 1 starting at the shared dart;
            # p2: read backward around face 2 starting at the same oriented
            # edge, which is face 2's inverse label read from k-1-p2.
            w1 = labels[f1][p1:] + labels[f1][:p1]
            back = invert(labels[f2])
            start = (k - 1 - p2) % k
            same[key] = w1 == back[start:] + back[:start]
        if same[key]:
            pairs.add(frozenset((f1, f2)))
    return sorted(pairs, key=lambda p: sorted(map(str, p)))


# ---------------------------------------------------------------------------
# arcs


def maximal_arcs(d: Diagram) -> list[tuple]:
    """Maximal arcs: dart paths whose intermediate vertices all have degree 2.

    Each arc is reported once per orientation class: the returned list
    contains one dart sequence per undirected arc.  Closed cycles all of
    whose vertices have degree 2 are reported as a single closed arc.
    Arcs start at darts in the order of their ids as strings: first the
    darts leaving a vertex whose degree is not 2, then the closed cycles.
    """
    inv, origin, terminus, out_darts = d.inv, d.origin, d.terminus, d.out_darts
    seen = bytearray(len(inv))

    def walk(dart) -> tuple:
        path = [dart]
        seen[dart] = seen[inv[dart]] = 1
        while True:
            out = out_darts[terminus[dart]]
            if len(out) != 2:
                break
            dart = out[out[0] == inv[dart]]  # the dart that does not come back
            if seen[dart]:
                break
            path.append(dart)
            seen[dart] = seen[inv[dart]] = 1
        return tuple(path)

    order = sorted(range(len(inv)), key=list(map(str, d.dart_ids)).__getitem__)
    arcs = [walk(dart) for dart in order if not seen[dart] and len(out_darts[origin[dart]]) != 2]
    # the darts left over lie on closed degree-2 cycles
    arcs += [walk(dart) for dart in order if not seen[dart]]
    return arcs


def double_selected_arcs(d: Diagram, sel: Selection) -> list[tuple]:
    """Maximal arcs both of whose orientations lie in designated subpaths."""
    inv = d.inv
    marks = sel.marks(d)
    return [
        arc
        for arc in maximal_arcs(d)
        if all(marks[dart] and marks[inv[dart]] for dart in arc)
    ]


# ---------------------------------------------------------------------------
# condition B


@dataclass(frozen=True)
class FaceBReport:
    face: object
    b0: bool
    b1: bool
    b2: bool
    detail: str

    @property
    def passed(self) -> bool:
        return self.b0 and self.b1 and self.b2


def check_condition_B(
    d: Diagram, sel: Selection, lambda1: Fraction, lambda2: Fraction
) -> list[FaceBReport]:
    """Per-face checks: one maximal selected subpath (structural here),
    selected length at least (1-lambda1) of the boundary, and every
    double-selected arc at most lambda2 of the boundary."""
    inv, face_of = d.inv, d.face_of
    arcs_at: dict = {fid: [] for fid in d.faces}  # face -> incident double-selected arcs
    for arc in double_selected_arcs(d, sel):
        for fid in {face_of[x][0] for dart in arc for x in (dart, inv[dart]) if face_of[x]}:
            arcs_at[fid].append(arc)
    reports = []
    for fid, cycle in d.faces.items():
        blen = len(cycle)
        fs = sel.per_face.get(fid)
        b0 = fs is not None  # the representation stores exactly one subpath
        b1 = fs is not None and Fraction(fs.length) >= (1 - lambda1) * blen
        b2 = all(Fraction(len(arc)) <= lambda2 * blen for arc in arcs_at[fid])
        sel_len = fs.length if fs else 0
        detail = (
            f"|s| = {sel_len}, boundary = {blen}, "
            f"(1-l1)*boundary = {(1 - lambda1) * blen}, "
            f"double-selected arc lengths = {[len(a) for a in arcs_at[fid]]}, "
            f"l2*boundary = {lambda2 * blen}"
        )
        reports.append(FaceBReport(fid, b0, b1, b2, detail))
    return reports


# ---------------------------------------------------------------------------
# semisimple submaps and condition X


def _on_faces(d: Diagram) -> bytearray:
    """Dart -> 1 where the dart or its inverse lies on a face."""
    face_of = d.face_of
    return bytearray(bool(face_of[x] or face_of[j]) for x, j in enumerate(d.inv))


def is_semisimple(d: Diagram) -> bool:
    """Every edge is incident to a face."""
    return all(_on_faces(d))


@dataclass(frozen=True)
class Submap:
    """A maximal semisimple piece: vertices, darts, and the faces inside it."""

    vertices: frozenset
    darts: frozenset
    faces: frozenset


def maximal_semisimple_submaps(d: Diagram) -> list[Submap]:
    """Connected components left after removing all face-free edges.

    Components may degenerate to single vertices.  Contour cycles of the
    pieces are not reconstructed: the checkers below only need vertex,
    edge and face membership.
    """
    keep = _on_faces(d)
    names = list(map(str, d.vertices))
    components = sorted(_components(d, keep), key=lambda comp: min(map(names.__getitem__, comp)))
    index = [0] * len(d.vertices)
    for k, comp in enumerate(components):
        for v in comp:
            index[v] = k
    darts: list = [[] for _ in components]
    faces: list = [[] for _ in components]
    for dart, v in enumerate(d.origin):
        if keep[dart]:
            darts[index[v]].append(dart)
    for fid, cycle in d.faces.items():
        faces[index[d.origin[cycle[0]]]].append(fid)
    return [
        Submap(frozenset(comp), frozenset(ds), frozenset(fs))
        for comp, ds, fs in zip(components, darts, faces)
    ]


def _selected_external_darts(d: Diagram, sel: Selection, darts, faces) -> list:
    """Both darts of every edge of `darts` (closed under the involution)
    that is external, with a dart on none of `faces`, and selected, with a
    dart in a designated subpath.  Each such edge appears twice.  Over a
    whole valid map the external edges are the contour edges; a submap has
    no explicit contours, and the count applies to it all the same.
    """
    on_face = bytearray(len(d.inv))
    for fid in faces:
        for dart in d.faces[fid]:
            on_face[dart] = 1
    inv = d.inv
    marks = sel.marks(d)
    return [
        x for x in darts if not (on_face[x] and on_face[inv[x]]) and (marks[x] or marks[inv[x]])
    ]


def _metrics(d: Diagram, sel: Selection, darts, faces) -> DiagramMetrics:
    """S, Sigma, E and F over the edges of `darts` (closed under the
    involution) and the given faces."""
    return DiagramMetrics(
        S=len(_selected_external_darts(d, sel, darts, faces)) // 2,
        Sigma=sum(len(d.faces[fid]) for fid in faces),
        E=len(darts) // 2,
        F=len(faces),
    )


def metrics(d: Diagram, sel: Selection) -> DiagramMetrics:
    """The counts over the whole map."""
    return _metrics(d, sel, range(len(d.inv)), d.faces)


def _condition_X(met: DiagramMetrics, mu: Fraction) -> tuple[bool, DiagramMetrics]:
    """Condition X on the counts: S >= E - mu * Sigma."""
    return Fraction(met.S) >= met.E - mu * met.Sigma, met


def check_condition_X(d: Diagram, sel: Selection, mu: Fraction) -> tuple[bool, DiagramMetrics]:
    """S >= E - mu * Sigma for a semisimple map."""
    if not is_semisimple(d):
        raise PreconditionError("map is not semisimple")
    return _condition_X(metrics(d, sel), mu)


def submap_condition_X(
    d: Diagram, sub: Submap, sel: Selection, mu: Fraction
) -> tuple[bool, DiagramMetrics]:
    """Condition X evaluated on one maximal semisimple submap in place."""
    return _condition_X(_metrics(d, sel, sub.darts, sub.faces), mu)


def check_main_lemma(d: Diagram, sel: Selection, params) -> tuple[bool, DiagramMetrics]:
    """S >= (1 - 2*mu) * Sigma for a map with at most 3 contours whose
    selection satisfies the per-face condition checks; a map that does not
    meet these hypotheses raises `PreconditionError`."""
    reports = check_condition_B(d, sel, params.lambda1, params.lambda2)
    if len(d.contours) > 3:
        raise PreconditionError("more than 3 contours", reports)
    for rep in reports:
        if not rep.passed:
            message = f"face {rep.face!r} fails the per-face conditions: {rep.detail}"
            raise PreconditionError(message, reports)
    met = metrics(d, sel)
    return Fraction(met.S) >= (1 - 2 * params.mu) * met.Sigma, met


def check_letter_budget(
    d: Diagram, sel: Selection, letters: set[int], n: int
) -> tuple[bool, dict]:
    """Selected external edges with labels among the given basic letters
    number strictly less than (k/n) * Sigma, k the subset size."""
    if not letters:
        raise DiagramError("letter subset must be nonempty")
    if not d.faces:
        raise DiagramError("degenerate diagram")
    external = _selected_external_darts(d, sel, range(len(d.inv)), d.faces)
    twice = Counter(ord(d.labels[dart]) // 2 + 1 for dart in external)
    per_letter = {i: twice[i] // 2 for i in letters}
    count = sum(per_letter.values())
    Sigma = sum(map(len, d.faces.values()))
    k = len(letters)
    ok = Fraction(count) < Fraction(k, n) * Sigma
    return ok, {"count": count, "per_letter": per_letter, "Sigma": Sigma, "k": k}


# ---------------------------------------------------------------------------
# mirror copy


def mirror_copy(d: Diagram) -> Diagram:
    """Reverse all face boundary cycles and contours; labels unchanged.

    Each reversed cycle is re-seated on inverse darts so cycles stay
    closed; reading a mirrored face yields the inverse word.  Involutive.
    """
    return replace(
        d,
        faces={fid: d.reverse(cycle) for fid, cycle in d.faces.items()},
        contours=tuple(map(d.reverse, d.contours)),
    )


# ---------------------------------------------------------------------------
# numbering, and JSON I/O


def _index(ids: Sequence, kind: str) -> dict:
    """Id -> its position in `ids`; a repeated id is an error."""
    index = dict(zip(ids, range(len(ids))))
    if len(index) != len(ids):
        repeated = next(x for k, x in enumerate(ids) if index[x] != k)
        raise DiagramError(f"{kind} id {repeated!r} appears more than once")
    return index


def _numbered(dart_of: dict, cycle: Iterable) -> tuple:
    """The darts of a cycle of dart ids.  An id that names no dart gets the
    next number after the darts, so that validation can report it."""
    try:
        return tuple(map(dart_of.__getitem__, cycle))
    except KeyError:
        return tuple(dart_of.setdefault(x, len(dart_of)) for x in cycle)


def _diagram(
    vertices: Iterable,
    darts: Sequence,
    invs: Sequence,
    froms: Sequence,
    labels: str,
    faces: Sequence[tuple],
    contours: Iterable[Iterable],
) -> Diagram:
    """The diagram in file ids: dart k is `darts[k]`, with inverse
    `invs[k]`, origin `froms[k]` and code letter `labels[k]`; `faces` holds
    (face id, cycle) pairs and `contours` cycles.  Numbers the vertices and
    the darts in the order given; a repeated id is an error."""
    vertices = tuple(vertices)
    vertex_of = _index(vertices, "vertex")
    dart_of = _index(darts, "dart")
    _index([fid for fid, _ in faces], "face")
    inv = tuple(map(dart_of.get, invs))
    origin = tuple(map(vertex_of.get, froms))
    cycles = {fid: _numbered(dart_of, cycle) for fid, cycle in faces}
    contours = tuple(_numbered(dart_of, cycle) for cycle in contours)
    return Diagram(vertices, tuple(dart_of), inv, origin, labels, cycles, contours)


def diagram_to_dict(d: Diagram) -> dict:
    ids, vertices, inv, origin = d.dart_ids, d.vertices, d.inv, d.origin
    text = {code: word_text(code) for code in set(d.labels)}
    return {
        "vertices": sorted(vertices, key=str),
        "darts": [
            {
                "id": ids[k],
                "inv": ids[inv[k]],
                "from": vertices[origin[k]],
                "to": vertices[origin[inv[k]]],
                "label": text[d.labels[k]],
            }
            for k in sorted(range(len(inv)), key=lambda k: str(ids[k]))
        ],
        "faces": [
            {"id": fid, "cycle": [ids[k] for k in cycle]}
            for fid, cycle in sorted(d.faces.items(), key=lambda kv: str(kv[0]))
        ],
        "contours": [[ids[k] for k in cycle] for cycle in d.contours],
    }


def diagram_from_dict(data: dict, n: int) -> Diagram:
    """Read a diagram; labels are single letters of the word grammar over
    x_1..x_n.  Ids must be distinct, and a dart whose inverse is a dart
    must end ("to") where the inverse starts."""
    try:
        darts = data["darts"]
        ids, invs, froms, tos, texts = (
            tuple(map(itemgetter(key), darts)) for key in ("id", "inv", "from", "to", "label")
        )
        # each distinct label text is parsed once, in order of appearance
        codes = {text: parse_letter(text, n) for text in dict.fromkeys(texts)}
        d = _diagram(
            data["vertices"],
            ids,
            invs,
            froms,
            "".join(map(codes.__getitem__, texts)),
            [(item["id"], item["cycle"]) for item in data["faces"]],
            data["contours"],
        )
    except DiagramError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DiagramError(f"bad diagram data: {exc}") from exc
    for k, j in enumerate(d.inv):
        if j is not None and tos[k] != froms[j]:
            raise DiagramError(
                f"dart {ids[k]!r} ends at {tos[k]!r}, "
                f"but its inverse {ids[j]!r} starts at {froms[j]!r}"
            )
    return d


def load_diagram(path: str, n: int) -> Diagram:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise DiagramError(f"cannot read {path}: {exc}") from exc
    return diagram_from_dict(data, n)


# ---------------------------------------------------------------------------
# builders


def _path(
    code: str, stops: Sequence, name: Callable[[int], str]
) -> tuple[list, list, list, str]:
    """The darts of a path reading the code string `code`: letter j runs
    from stops[j] to stops[j + 1] on dart name(j) + "+", followed by its
    inverse name(j) + "-".  Returns their ids, inverse ids, origins and
    labels, as `_diagram` takes them."""
    darts, invs, froms = [], [], []
    for j in range(len(code)):
        stem = name(j)
        darts += (stem + "+", stem + "-")
        invs += (stem + "-", stem + "+")
        froms += (stops[j], stops[j + 1])
    labels = "".join(c + chr(ord(c) ^ 1) for c in code)
    return darts, invs, froms, labels


def polygon_diagram(code: str, face_id: str = "f0") -> Diagram:
    """One-face disc: a polygon reading the code string around the face,
    with the contour being the inverse cycle."""
    if not code:
        raise DiagramError("cannot build a polygon on the empty word")
    stops = [f"v{j}" for j in range(len(code))]
    darts, invs, froms, labels = _path(code, stops + stops[:1], lambda j: f"d{j}")
    return _diagram(stops, darts, invs, froms, labels, [(face_id, darts[::2])], [darts[::-2]])


def sphere_double(code: str) -> Diagram:
    """Spherical diagram: two faces reading code and code^-1 glued along
    their entire shared boundary circle; the canonical cancellable pair."""
    base = polygon_diagram(code, face_id="front")
    faces = {"front": base.faces["front"], "back": base.contours[0]}
    return replace(base, faces=faces, contours=())


def glue_boundary(d: Diagram, code: str, face_id: str, overlap: int) -> Diagram:
    """Attach a new polygon face reading the code string along the first
    `overlap` darts of the current (single) contour.

    The attached face's boundary cycle starts with those contour darts,
    which migrate from the contour into the face (preserving the dart
    partition); `code` must therefore begin with the labels of the shared
    contour segment.  The old darts and vertices keep their numbers.
    """
    if not d.is_disc:
        raise DiagramError("gluing expects a disc diagram")
    k = len(code)
    if not 0 < overlap < k:
        raise DiagramError("overlap must be a proper nonempty boundary segment")
    contour = d.contours[0]
    if overlap > len(contour):
        raise DiagramError("overlap exceeds contour length")

    shared = contour[:overlap]
    for j, dart in enumerate(shared):
        if d.labels[dart] != code[j]:
            raise DiagramError(
                f"overlap letter {j} mismatch: contour side reads "
                f"{word_text(d.labels[dart])}, new face needs {word_text(code[j])}"
            )

    # the fresh part of the face runs from the end of the shared segment
    # back to its start, through k - overlap - 1 new vertices
    ids, vertices = d.dart_ids, d.vertices
    fresh_vertices = tuple(f"{face_id}_v{j}" for j in range(k - overlap - 1))
    stops = [vertices[d.terminus[shared[-1]]], *fresh_vertices, vertices[d.origin[shared[0]]]]
    darts, invs, froms, labels = _path(
        code[overlap:], stops, lambda j: f"{face_id}_d{j + overlap}"
    )

    def named(path) -> list:
        return [ids[dart] for dart in path]

    faces = [(fid, named(cycle)) for fid, cycle in d.faces.items()]
    faces.append((face_id, named(shared) + darts[::2]))
    return _diagram(
        vertices + fresh_vertices,
        named(range(len(d.inv))) + darts,
        named(d.inv) + invs,
        [vertices[v] for v in d.origin] + froms,
        d.labels + labels,
        faces,
        [named(contour[overlap:]) + darts[::-2]],
    )


def rotate_contour(d: Diagram, k: int) -> Diagram:
    """Shift the starting dart of a disc diagram's contour; same diagram."""
    if not d.is_disc:
        raise DiagramError("contour rotation expects a disc diagram")
    contour = d.contours[0]
    k %= len(contour)
    return replace(d, contours=(contour[k:] + contour[:k],))


def random_diagram(relators: Sequence[str], faces: int, rng) -> Diagram:
    """A random valid disc diagram with the given number of faces, grown by
    gluing relator variants (code strings), unchanged, along boundary
    segments, so every face reads a rotation of some r^{+-1}."""
    if faces < 1:
        raise DiagramError("need at least one face")
    variants = [variant for variant, _ in relator_variants(relators)]
    d = polygon_diagram(rng.choice(variants), face_id="f0")
    for step in range(1, faces):
        d = rotate_contour(d, rng.randrange(len(d.contours[0])))
        contour = d.contours[0]
        placed = False
        overlaps = list(range(1, min(len(contour), max(len(r) for r in relators)) ))
        rng.shuffle(overlaps)
        for overlap in overlaps:
            prefix = "".join(d.labels[contour[j]] for j in range(overlap))
            fits = [v for v in variants if len(v) > overlap and v.startswith(prefix)]
            if not fits:
                continue
            d = glue_boundary(d, rng.choice(fits), f"f{step}", overlap)
            placed = True
            break
        if not placed:
            break
    return d
