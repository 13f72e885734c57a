"""Combinatorial maps and diagrams: dart-involution 2-complexes, labeled
faces and contours, selections, and the structural checkers.

A diagram is stored abstractly: darts with an involution and vertex
endpoints, faces with boundary cycles, plus contour cycles.  The central
structural invariant is the dart partition: every dart lies in exactly
one face boundary cycle or exactly one contour, never both and never
twice.  Sphericity of the ambient surface is validated through the Euler
characteristic (V - E + F + C = 2 for connected disc/annular/spherical
maps, counting contour regions as faces); no geometric embedding is kept.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, groupby
from typing import Callable, Iterable, Optional, Sequence

from .words import Letter, Word, encode, inverse_letter, invert, parse_letter, relator_variants


class DiagramError(ValueError):
    pass


@dataclass(frozen=True)
class Complex2:
    """Oriented combinatorial 2-complex given by darts, involution, faces."""

    vertices: frozenset
    inv: dict  # dart id -> dart id
    origin: dict  # dart id -> vertex id
    faces: dict  # face id -> tuple of dart ids (boundary cycle)

    def terminus(self, d) -> object:
        return self.origin[self.inv[d]]

    def darts(self) -> Iterable:
        return self.inv.keys()

    def edge_count(self) -> int:
        return len(self.inv) // 2

    def degree(self, v) -> int:
        """Incident edge count with loops counted twice = darts leaving v."""
        return len(self.out_darts[v])

    def reverse(self, cycle: Sequence) -> tuple:
        """The cycle walked backwards, over the inverse darts."""
        return tuple(self.inv[d] for d in reversed(cycle))

    # -- indexes, computed once per complex --------------------------------

    @cached_property
    def face_of(self) -> dict:
        """Dart -> (face id, position in that face's boundary cycle), for
        every dart on a face."""
        return {d: (fid, pos) for fid, cycle in self.faces.items() for pos, d in enumerate(cycle)}

    @cached_property
    def out_darts(self) -> dict:
        """Vertex -> the darts leaving it."""
        out: dict = {v: [] for v in self.vertices}
        for d in self.inv:
            out[self.origin[d]].append(d)
        return out


@dataclass(frozen=True)
class DiagramMap:
    complex: Complex2
    contours: tuple[tuple, ...]  # cyclic dart sequences

    @property
    def is_disc(self) -> bool:
        return len(self.contours) == 1

    @property
    def is_spherical(self) -> bool:
        return len(self.contours) == 0 and bool(self.complex.faces)

    @property
    def is_degenerate(self) -> bool:
        return not self.complex.faces


@dataclass(frozen=True)
class Diagram:
    map: DiagramMap
    labels: dict  # dart id -> Letter

    @property
    def complex(self) -> Complex2:
        return self.map.complex

    def path_label(self, darts: Sequence) -> tuple[Letter, ...]:
        return tuple(self.labels[d] for d in darts)

    def face_label(self, face_id) -> tuple[Letter, ...]:
        return self.path_label(self.complex.faces[face_id])

    def boundary_length(self, face_id) -> int:
        return len(self.complex.faces[face_id])


@dataclass(frozen=True)
class FaceSelection:
    """One face's maximal selected subpath, by position in the boundary cycle."""

    face: object
    start: int  # index into the face's boundary cycle
    length: int

    def darts(self, complex: Complex2) -> tuple:
        cycle = complex.faces[self.face]
        k = len(cycle)
        return tuple(cycle[(self.start + j) % k] for j in range(self.length))


@dataclass(frozen=True)
class Selection:
    per_face: dict  # face id -> FaceSelection

    def selected_darts(self, complex: Complex2) -> set:
        out = set()
        for fs in self.per_face.values():
            out.update(fs.darts(complex))
        return out


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


def _components(c: Complex2, darts: Optional[set] = None) -> list[set]:
    """Vertex sets of the connected components of c, with the given darts
    (all darts when None) as its edges."""
    inv, origin, out_darts = c.inv, c.origin, c.out_darts
    seen: set = set()
    components = []
    for v0 in c.vertices:
        if v0 in seen:
            continue
        component = {v0}
        stack = [v0]
        while stack:
            for d in out_darts[stack.pop()]:
                w = origin[inv[d]]
                if w not in component and (darts is None or d in darts):
                    component.add(w)
                    stack.append(w)
        seen |= component
        components.append(component)
    return components


def match_face_label(
    label: Sequence[Letter], relators: Sequence[Word]
) -> Optional[tuple[int, int, int]]:
    """(relator position, sign, rotation) such that the face label read from
    `rotation` equals relator^sign, or None.  Uses substring search in the
    doubled label, so matching stays linear in the boundary length; the
    lowest match is the least rotation."""
    k = len(label)
    if k == 0:
        return None
    doubled = encode(label) * 2
    for pos, r in enumerate(relators):
        for sign, target in ((1, r), (-1, r.inverse())):
            if len(target) != k:
                continue
            rot = doubled.find(target.code())
            if rot >= 0:
                return (pos, sign, rot)
    return None


def validate_diagram(d: Diagram, relators: Sequence[Word]) -> ValidationReport:
    """Full structural check plus face-label matching against the relators."""
    issues: list[ValidationIssue] = []
    c = d.complex

    for dart, image in c.inv.items():
        if image not in c.inv:
            issues.append(ValidationIssue(f"dart {dart!r}", "involution image missing"))
        elif c.inv[image] != dart:
            issues.append(ValidationIssue(f"dart {dart!r}", "involution is not involutive"))
        elif image == dart:
            issues.append(ValidationIssue(f"dart {dart!r}", "involution has a fixed point"))
        if dart not in c.origin:
            issues.append(ValidationIssue(f"dart {dart!r}", "missing origin"))
        elif c.origin[dart] not in c.vertices:
            issues.append(ValidationIssue(f"dart {dart!r}", "origin is not a vertex"))

    if issues:
        return ValidationReport(tuple(issues), {})

    # every face cycle and contour is a closed walk over known darts, and
    # together they partition the darts: each lies in exactly one of them
    inv, origin = c.inv, c.origin
    cycles = [(f"face {fid!r}", "empty boundary cycle", cycle) for fid, cycle in c.faces.items()]
    cycles += [(f"contour {k}", "empty contour", cycle) for k, cycle in enumerate(d.map.contours)]
    homes: dict = {dart: [] for dart in inv}
    for where, empty, cycle in cycles:
        if not cycle:
            issues.append(ValidationIssue(where, empty))
        for k, dart in enumerate(cycle):
            if dart not in inv:
                issues.append(ValidationIssue(where, f"unknown dart {dart!r}"))
                continue
            homes[dart].append(where)
            nxt = cycle[(k + 1) % len(cycle)]
            if nxt in inv and origin[inv[dart]] != origin[nxt]:
                issues.append(
                    ValidationIssue(where, f"cycle breaks between darts {dart!r} and {nxt!r}")
                )
    for dart, where in homes.items():
        if len(where) != 1:
            issues.append(
                ValidationIssue(
                    f"dart {dart!r}",
                    f"appears {len(where)} times ({', '.join(where) or 'nowhere'}), expected once",
                )
            )

    if len(_components(c)) > 1:
        issues.append(ValidationIssue("map", "underlying complex is not connected"))

    # Euler characteristic, counting contour regions as faces.  An edgeless
    # single vertex is exempt: its complementary region has no contour cycle.
    if c.inv:
        chi = len(c.vertices) - c.edge_count() + len(c.faces) + len(d.map.contours)
        if chi != 2:
            issues.append(
                ValidationIssue("map", f"Euler characteristic {chi} != 2")
            )
    elif len(c.vertices) != 1 or c.faces or d.map.contours:
        issues.append(ValidationIssue("map", "edgeless map must be a single bare vertex"))

    for dart, letter in d.labels.items():
        if dart not in c.inv:
            issues.append(ValidationIssue(f"dart {dart!r}", "label on unknown dart"))
            continue
        if d.labels.get(c.inv[dart]) != inverse_letter(letter):
            issues.append(
                ValidationIssue(f"dart {dart!r}", "inverse dart label is not the inverse letter")
            )
    for dart in c.inv:
        if dart not in d.labels:
            issues.append(ValidationIssue(f"dart {dart!r}", "missing label"))

    face_matches: dict = {}
    if not issues:
        for fid in c.faces:
            match = match_face_label(d.face_label(fid), relators)
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


def special_selection(d: Diagram, n: int, min_fraction: Fraction | None = None) -> Selection:
    """The per-face designated subpath reading x_1^m...x_n^m (or its mirror).

    Each face must carry exactly one qualifying subpath s with
    |s| > n/(2n-2) * |boundary| (the defining bound; callers at full
    parameter scale may pass a stronger min_fraction such as 1 - lambda1).
    """
    if min_fraction is None:
        min_fraction = Fraction(n, 2 * n - 2) if n > 1 else Fraction(1, 2)
    per_face = {}
    for fid in d.complex.faces:
        label = d.face_label(fid)
        hit = _find_special_subpath(encode(label), n)
        if hit is None:
            raise DiagramError(f"face {fid!r}: no special subpath found")
        start, length = hit
        if Fraction(length) <= min_fraction * len(label):
            raise DiagramError(
                f"face {fid!r}: special subpath of length {length} fails the "
                f"bound over boundary length {len(label)}"
            )
        per_face[fid] = FaceSelection(face=fid, start=start, length=length)
    return Selection(per_face)


# ---------------------------------------------------------------------------
# face rank


def face_rank(d: Diagram, face_id, presentation) -> int:
    """Index j of the relator whose r_j^{+-1} the face reads."""
    match = match_face_label(d.face_label(face_id), presentation.relator_words())
    if match is None:
        raise DiagramError(f"face {face_id!r}: label matches no relator")
    return presentation.relators[match[0]].i


# ---------------------------------------------------------------------------
# cancellable pairs


def find_immediately_cancellable(d: Diagram) -> list[frozenset]:
    """Unordered face pairs with mutually inverse labels readable from a
    shared edge: a dart on one face whose inverse is on the other, with the
    two boundary readings from that edge being equal words."""
    c = d.complex
    face_of = c.face_of
    labels = {fid: encode(d.face_label(fid)) for fid in c.faces}
    same: dict = {}  # (f1, f2, (p1 + p2) % k) -> whether the readings agree
    pairs = set()
    for dart, (f1, p1) in face_of.items():
        other = c.inv[dart]
        if other not in face_of:
            continue
        f2, p2 = face_of[other]
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


def is_weakly_reduced(d: Diagram) -> bool:
    return not find_immediately_cancellable(d)


# ---------------------------------------------------------------------------
# arcs


def maximal_arcs(m: DiagramMap) -> list[tuple]:
    """Maximal arcs: dart paths whose intermediate vertices all have degree 2.

    Each arc is reported once per orientation class: the returned list
    contains one dart sequence per undirected arc.  Closed cycles all of
    whose vertices have degree 2 are reported as a single closed arc.
    """
    c = m.complex
    out_darts = c.out_darts
    seen: set = set()
    arcs = []

    def walk(start_dart) -> tuple:
        path = [start_dart]
        seen.add(start_dart)
        seen.add(c.inv[start_dart])
        while True:
            v = c.terminus(path[-1])
            if len(out_darts[v]) != 2:
                break
            nxt = [dd for dd in out_darts[v] if dd != c.inv[path[-1]]]
            if len(nxt) != 1 or nxt[0] in seen:
                break
            path.append(nxt[0])
            seen.add(nxt[0])
            seen.add(c.inv[nxt[0]])
        return tuple(path)

    for dart in sorted(c.inv, key=str):
        if dart in seen:
            continue
        if len(out_darts[c.origin[dart]]) != 2:
            arcs.append(walk(dart))
    # leftover darts belong to closed degree-2 cycles
    for dart in sorted(c.inv, key=str):
        if dart not in seen:
            arcs.append(walk(dart))
    return arcs


def double_selected_arcs(d: Diagram, sel: Selection) -> list[tuple]:
    """Maximal arcs both of whose orientations lie in designated subpaths."""
    inv = d.complex.inv
    selected = sel.selected_darts(d.complex)
    return [
        arc
        for arc in maximal_arcs(d.map)
        if all(dart in selected and inv[dart] in selected for dart in arc)
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


def check_condition_B(
    d: Diagram, sel: Selection, lambda1: Fraction, lambda2: Fraction
) -> list[FaceBReport]:
    """Per-face checks: one maximal selected subpath (structural here),
    selected length at least (1-lambda1) of the boundary, and every
    double-selected arc at most lambda2 of the boundary."""
    c = d.complex
    face_of = c.face_of
    arcs_at: dict = {fid: [] for fid in c.faces}  # face -> incident double-selected arcs
    for arc in double_selected_arcs(d, sel):
        for fid in {face_of[x][0] for dart in arc for x in (dart, c.inv[dart]) if x in face_of}:
            arcs_at[fid].append(arc)
    reports = []
    for fid, cycle in c.faces.items():
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


def is_semisimple(m: DiagramMap) -> bool:
    """Every edge is incident to a face."""
    inv, face_of = m.complex.inv, m.complex.face_of
    return all(dart in face_of or inv[dart] in face_of for dart in inv)


@dataclass(frozen=True)
class Submap:
    """A maximal semisimple piece: vertices, darts, and the faces inside it."""

    vertices: frozenset
    darts: frozenset
    faces: frozenset


def maximal_semisimple_submaps(m: DiagramMap) -> list[Submap]:
    """Connected components left after removing all face-free edges.

    Components may degenerate to single vertices.  Contour cycles of the
    pieces are not reconstructed: the checkers below only need vertex,
    edge and face membership.
    """
    c = m.complex
    face_of = c.face_of
    keep = {dart for dart in c.inv if dart in face_of or c.inv[dart] in face_of}
    components = sorted(_components(c, keep), key=lambda comp: min(map(str, comp)))
    index = {v: k for k, comp in enumerate(components) for v in comp}
    darts: list = [[] for _ in components]
    faces: list = [[] for _ in components]
    for dart in keep:
        darts[index[c.origin[dart]]].append(dart)
    for fid, cycle in c.faces.items():
        faces[index[c.origin[cycle[0]]]].append(fid)
    return [
        Submap(frozenset(comp), frozenset(ds), frozenset(fs))
        for comp, ds, fs in zip(components, darts, faces)
    ]


def _selected_external_darts(c: Complex2, darts, face_darts, sel: Selection) -> list:
    """Both darts of every edge of `darts` (closed under the involution)
    that is external, with a dart outside `face_darts`, and selected, with
    a dart in a designated subpath.  Each such edge appears twice, so the
    edge count S is half the length.  Over a whole valid map, with
    `face_darts` all face darts, the external edges are the contour edges.
    """
    inv = c.inv
    selected = sel.selected_darts(c)
    return [
        d
        for d in darts
        if (d not in face_darts or inv[d] not in face_darts)
        and (d in selected or inv[d] in selected)
    ]


def metrics(d: Diagram, sel: Selection) -> DiagramMetrics:
    c = d.complex
    return DiagramMetrics(
        S=len(_selected_external_darts(c, c.inv, c.face_of, sel)) // 2,
        Sigma=sum(len(cycle) for cycle in c.faces.values()),
        E=c.edge_count(),
        F=len(c.faces),
    )


def check_condition_X(
    m: DiagramMap, sel: Selection, mu: Fraction
) -> tuple[bool, DiagramMetrics]:
    """S >= E - mu * Sigma for a semisimple map.

    External edges here are those with a dart outside every face cycle,
    so the check also applies to submaps without explicit contours.
    """
    if not is_semisimple(m):
        raise DiagramError("map is not semisimple")
    c = m.complex
    return _condition_X(c, c.inv, c.face_of, c.faces, sel, mu)


def submap_condition_X(
    m: DiagramMap, sub: Submap, sel: Selection, mu: Fraction
) -> tuple[bool, DiagramMetrics]:
    """Condition X evaluated on one maximal semisimple submap in place."""
    c = m.complex
    face_darts = {dart for fid in sub.faces for dart in c.faces[fid]}
    return _condition_X(c, sub.darts, face_darts, sub.faces, sel, mu)


def _condition_X(
    c: Complex2, darts, face_darts, faces, sel: Selection, mu: Fraction
) -> tuple[bool, DiagramMetrics]:
    """S >= E - mu * Sigma over the edges of `darts` (closed under the
    involution) and the given faces, S as in `_selected_external_darts`."""
    S = len(_selected_external_darts(c, darts, face_darts, sel)) // 2
    Sigma = sum(len(c.faces[fid]) for fid in faces)
    E = len(darts) // 2
    met = DiagramMetrics(S=S, Sigma=Sigma, E=E, F=len(faces))
    return Fraction(met.S) >= E - mu * Sigma, met


def check_main_lemma(
    d: Diagram, sel: Selection, params, require_B: bool = True
) -> tuple[bool, DiagramMetrics]:
    """S >= (1 - 2*mu) * Sigma for a map with at most 3 contours whose
    selection satisfies the per-face condition checks.

    require_B=False skips the per-face precondition and just evaluates the
    inequality; useful at small alphabet sizes where the per-face length
    bound cannot hold but the inequality itself is still meaningful.
    """
    if len(d.map.contours) > 3:
        raise DiagramError("more than 3 contours")
    if require_B:
        for rep in check_condition_B(d, sel, params.lambda1, params.lambda2):
            if not (rep.b0 and rep.b1 and rep.b2):
                raise DiagramError(
                    f"face {rep.face!r} fails the per-face conditions: {rep.detail}"
                )
    met = metrics(d, sel)
    ok = Fraction(met.S) >= (1 - 2 * params.mu) * met.Sigma
    return ok, met


def check_letter_budget(
    d: Diagram, sel: Selection, letters: set[int], n: int
) -> tuple[bool, dict]:
    """Selected external edges with labels among the given basic letters
    number strictly less than (k/n) * Sigma, k the subset size."""
    if not letters:
        raise DiagramError("letter subset must be nonempty")
    c = d.complex
    if not c.faces:
        raise DiagramError("degenerate diagram")
    twice = Counter(d.labels[dart][0] for dart in _selected_external_darts(c, c.inv, c.face_of, sel))
    per_letter = {i: twice[i] // 2 for i in letters}
    count = sum(per_letter.values())
    Sigma = sum(len(cycle) for cycle in c.faces.values())
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
    c = d.complex
    new_faces = {fid: c.reverse(cycle) for fid, cycle in c.faces.items()}
    new_contours = tuple(c.reverse(cycle) for cycle in d.map.contours)
    new_complex = Complex2(c.vertices, c.inv, c.origin, new_faces)
    return Diagram(DiagramMap(new_complex, new_contours), d.labels)


# ---------------------------------------------------------------------------
# JSON I/O


def diagram_to_dict(d: Diagram) -> dict:
    c = d.complex
    return {
        "vertices": sorted(c.vertices, key=str),
        "darts": [
            {
                "id": dart,
                "inv": c.inv[dart],
                "from": c.origin[dart],
                "to": c.terminus(dart),
                "label": str(Word.from_letters([d.labels[dart]])),
            }
            for dart in sorted(c.inv, key=str)
        ],
        "faces": [
            {"id": fid, "cycle": list(cycle)} for fid, cycle in sorted(c.faces.items(), key=lambda kv: str(kv[0]))
        ],
        "contours": [list(cycle) for cycle in d.map.contours],
    }


def diagram_from_dict(data: dict, n: int | None = None) -> Diagram:
    """Read a diagram; labels are single letters of the word grammar,
    range-checked against n when it is given."""
    try:
        vertices = frozenset(data["vertices"])
        inv = {}
        origin = {}
        labels = {}
        letters: dict = {}  # label text -> letter; parsed once per distinct text
        for item in data["darts"]:
            inv[item["id"]] = item["inv"]
            origin[item["id"]] = item["from"]
            text = item["label"]
            if text not in letters:
                letters[text] = parse_letter(text, n)
            labels[item["id"]] = letters[text]
        faces = {item["id"]: tuple(item["cycle"]) for item in data["faces"]}
        contours = tuple(tuple(cycle) for cycle in data["contours"])
        # ids are dictionary keys: a list or object where one is expected
        # fails here, as a TypeError, rather than deep inside a checker
        hash((tuple(inv.values()), tuple(origin.values()), tuple(faces.values()), contours))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DiagramError(f"bad diagram data: {exc}") from exc
    complex = Complex2(vertices, inv, origin, faces)
    return Diagram(DiagramMap(complex, contours), labels)


def load_diagram(path: str, n: int | None = None) -> Diagram:
    with open(path) as fh:
        return diagram_from_dict(json.load(fh), n)


# ---------------------------------------------------------------------------
# builders


def _path(
    letters: Sequence[Letter], stops: Sequence, name: Callable[[int], str]
) -> tuple[tuple, dict, dict, dict]:
    """The edges of a path reading `letters`: letter j runs from stops[j]
    to stops[j + 1] on dart name(j) + "+", whose inverse is name(j) + "-".
    Returns the forward darts and the involution, origin and label tables
    of the new darts."""
    path = []
    inv: dict = {}
    origin: dict = {}
    labels: dict = {}
    for j, letter in enumerate(letters):
        stem = name(j)
        dart, anti = stem + "+", stem + "-"
        inv[dart] = anti
        inv[anti] = dart
        origin[dart] = stops[j]
        origin[anti] = stops[j + 1]
        labels[dart] = letter
        labels[anti] = inverse_letter(letter)
        path.append(dart)
    return tuple(path), inv, origin, labels


def polygon_diagram(word: Word, face_id: str = "f0") -> Diagram:
    """One-face disc: a polygon reading `word` around the face, with the
    contour being the inverse cycle."""
    letters = word.letter_tuple()
    if not letters:
        raise DiagramError("cannot build a polygon on the empty word")
    stops = [f"v{j}" for j in range(len(letters))]
    cycle, inv, origin, labels = _path(letters, stops + stops[:1], lambda j: f"d{j}")
    complex = Complex2(frozenset(stops), inv, origin, {face_id: cycle})
    return Diagram(DiagramMap(complex, (complex.reverse(cycle),)), labels)


def degenerate_path_diagram(word: Word) -> Diagram:
    """Face-free disc whose single contour reads word * word^-1."""
    letters = word.letter_tuple()
    stops = [f"v{j}" for j in range(len(letters) + 1)]
    path, inv, origin, labels = _path(letters, stops, lambda j: f"d{j}")
    complex = Complex2(frozenset(stops), inv, origin, {})
    contour = path + complex.reverse(path)
    return Diagram(DiagramMap(complex, (contour,) if contour else ()), labels)


def sphere_double(word: Word) -> Diagram:
    """Spherical diagram: two faces reading word and word^-1 glued along
    their entire shared boundary circle; the canonical cancellable pair."""
    base = polygon_diagram(word, face_id="front")
    c = base.complex
    faces = {"front": c.faces["front"], "back": base.map.contours[0]}
    complex = Complex2(c.vertices, c.inv, c.origin, faces)
    return Diagram(DiagramMap(complex, ()), base.labels)


def glue_boundary(d: Diagram, word: Word, face_id: str, overlap: int) -> Diagram:
    """Attach a new polygon face reading `word` along the first `overlap`
    darts of the current (single) contour.

    The attached face's boundary cycle starts with those contour darts,
    which migrate from the contour into the face (preserving the dart
    partition); `word` must therefore begin with the labels of the shared
    contour segment.
    """
    if not d.map.is_disc:
        raise DiagramError("gluing expects a disc diagram")
    letters = word.letter_tuple()
    k = len(letters)
    if not 0 < overlap < k:
        raise DiagramError("overlap must be a proper nonempty boundary segment")
    contour = d.map.contours[0]
    if overlap > len(contour):
        raise DiagramError("overlap exceeds contour length")
    c = d.complex

    shared = tuple(contour[:overlap])
    for j, dart in enumerate(shared):
        if d.labels[dart] != letters[j]:
            raise DiagramError(
                f"overlap letter {j} mismatch: contour side reads "
                f"{d.labels[dart]}, new face needs {letters[j]}"
            )

    # the fresh part of the face runs from the end of the shared segment
    # back to its start, through k - overlap - 1 new vertices
    fresh_vertices = [f"{face_id}_v{j}" for j in range(k - overlap - 1)]
    stops = [c.terminus(shared[-1]), *fresh_vertices, c.origin[shared[0]]]
    fresh, inv, origin, labels = _path(
        letters[overlap:], stops, lambda j: f"{face_id}_d{j + overlap}"
    )
    complex = Complex2(
        frozenset(c.vertices).union(fresh_vertices),
        {**c.inv, **inv},
        {**c.origin, **origin},
        {**c.faces, face_id: shared + fresh},
    )
    new_contour = tuple(contour[overlap:]) + complex.reverse(fresh)
    return Diagram(DiagramMap(complex, (new_contour,)), {**d.labels, **labels})


def rotate_contour(d: Diagram, k: int) -> Diagram:
    """Shift the starting dart of a disc diagram's contour; same diagram."""
    if not d.map.is_disc:
        raise DiagramError("contour rotation expects a disc diagram")
    contour = d.map.contours[0]
    k %= len(contour)
    return Diagram(
        DiagramMap(d.complex, (contour[k:] + contour[:k],)), d.labels
    )


def random_diagram(relators: Sequence[Word], faces: int, rng) -> Diagram:
    """A random valid disc diagram with the given number of faces, grown by
    gluing relator polygons along boundary segments."""
    if faces < 1:
        raise DiagramError("need at least one face")
    variants = relator_variants(relators)
    d = polygon_diagram(Word.from_code(rng.choice(variants)), face_id="f0")
    for step in range(1, faces):
        d = rotate_contour(d, rng.randrange(len(d.map.contours[0])))
        contour = d.map.contours[0]
        placed = False
        overlaps = list(range(1, min(len(contour), max(len(r) for r in relators)) ))
        rng.shuffle(overlaps)
        for overlap in overlaps:
            prefix = encode(d.labels[contour[j]] for j in range(overlap))
            fits = [v for v in variants if len(v) > overlap and v.startswith(prefix)]
            if not fits:
                continue
            word = Word.from_code(rng.choice(fits))
            d = glue_boundary(d, word, f"f{step}", overlap)
            placed = True
            break
        if not placed:
            break
    return d
