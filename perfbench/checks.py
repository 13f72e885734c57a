"""Answer checks behind `error_frac`, by the benchmark's own arithmetic.

A query fails when the CLI raises, exits outside {0, 1, 2}, prints output
that does not parse or contradicts its exit code, gives a `yes` whose
witness does not replay under free and cyclic reduction, or contradicts a
known answer: planted equalities must come back `yes`, conjugate pairs
never `no`, pairs whose abelian images differ modulo the relator lattice
never `yes`, and the theorem-scale disc must pass every checker with the
expected face match and counts.
"""

from __future__ import annotations

import json
from functools import cached_property

import freegroup as fg

EXIT_OUTCOME = {0: "yes", 1: "no", 2: "budget-exceeded"}


class Instance:
    """Relators and abelian lattice of the presentation a run uses."""

    def __init__(self, presentation: dict):
        self.n = presentation["n"]
        self.relators = [fg.parse(item["r"]) for item in presentation["relators"]]
        self.m = [item["m"] for item in presentation["relators"]]
        self.lattice = [fg.abelian(r, self.n) for r in self.relators]

    @cached_property
    def _faces(self) -> set:
        # quadratic in the relator length: only the toy workloads replay faces
        return {fg.least_rotation(w) for r in self.relators for w in (r, fg.inverse(r))}

    def abelian_equal(self, u, v) -> bool:
        diff = [a - b for a, b in zip(fg.abelian(u, self.n), fg.abelian(v, self.n))]
        return fg.in_lattice(diff, self.lattice)

    def is_face(self, word) -> bool:
        """A rotation of some relator or its inverse."""
        return fg.least_rotation(word) in self._faces

    def is_relator_conjugate(self, word) -> bool:
        core = fg.cyclic_reduce(word)
        return not core or self.is_face(core)


def replay_filling(inst: Instance, witness: dict, contour, unreduced_len: int) -> list:
    """Replay a filling witness: starting from the least rotation of the
    cyclically reduced contour, insert each face at its position and reduce;
    the word must vanish."""
    errors = []
    if witness.get("kind") != "filling":
        return [f"expected a filling witness, got {witness.get('kind')!r}"]
    if fg.parse(witness["contour"]) != fg.reduce(contour):
        errors.append("witness contour is not the query's contour")
    word = fg.least_rotation(fg.cyclic_reduce(fg.parse(witness["contour"])))
    area = 0
    for step in witness["trace"]:
        face = fg.parse(step["face_label"])
        if not inst.is_face(face):
            errors.append(f"face {step['face_label']!r} is not a relator rotation")
        j = step["position"]
        if word and not 0 <= j < len(word):
            errors.append(f"position {j} outside a word of length {len(word)}")
            return errors
        rotated = word[j:] + word[:j] if word else ()
        word = fg.least_rotation(fg.cyclic_reduce(rotated + face))
        area += len(face)
    if word:
        errors.append("filling does not reduce the contour to the empty word")
    if area != witness["area"]:
        errors.append(f"area {witness['area']} != summed face length {area}")
    if 2 * witness["edges"] - area not in (len(fg.reduce(contour)), unreduced_len):
        errors.append("edge count breaks 2E = area + contour length")
    return errors


def replay_rewriting(inst: Instance, witness: dict, start_u, start_v) -> list:
    """Each step multiplies by a conjugate of a relator; both chains meet."""
    errors = []
    meet = fg.parse(witness["meeting_point"])
    for start, steps in ((start_u, witness["steps_from_u"]), (start_v, witness["steps_from_v"])):
        chain = [fg.parse(s) for s in steps]
        if not chain or chain[0] != fg.reduce(start) or chain[-1] != meet:
            errors.append("rewrite chain does not run from its input to the meeting point")
            continue
        for a, b in zip(chain, chain[1:]):
            if not inst.is_relator_conjugate(fg.reduce(fg.inverse(a) + b)):
                errors.append("rewrite step is not a relator insertion")
    return errors


def _outcome(code: int, stdout: str) -> tuple:
    if code not in EXIT_OUTCOME:
        return None, None, [f"exit code {code}"]
    try:
        result = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, None, [f"output is not JSON: {exc}"]
    outcome = result.get("outcome")
    if outcome != EXIT_OUTCOME[code]:
        return None, None, [f"outcome {outcome!r} with exit code {code}"]
    return result, outcome, []


def check_eq(inst: Instance, query: dict, code: int, stdout: str) -> tuple:
    result, outcome, errors = _outcome(code, stdout)
    if errors:
        return None, errors
    u, v = (fg.parse(w) for w in query["words"])
    if outcome == "yes":
        if not inst.abelian_equal(u, v):
            errors.append("yes for a pair with distinct abelian images")
        witness = result.get("witness")
        if not isinstance(witness, dict):
            errors.append("yes without a witness")
        elif witness.get("kind") == "rewriting":
            errors += replay_rewriting(inst, witness, u, v)
        else:
            errors += replay_filling(inst, witness, u + fg.inverse(v), len(u) + len(v))
    if query["expect"] == "yes" and outcome != "yes":
        errors.append(f"planted equality answered {outcome}")
    if query["expect"] == "not-yes" and outcome == "yes":
        errors.append("abelian-obstructed pair answered yes")
    return outcome, errors


def check_nf(inst: Instance, query: dict, code: int, stdout: str) -> tuple:
    result, outcome, errors = _outcome(code, stdout)
    if errors:
        return None, errors
    (g,) = (fg.parse(w) for w in query["words"])
    if outcome == "yes":
        nf = fg.parse(result.get("normal_form", ""))
        if not fg.is_regular(nf):
            errors.append("normal form is not regular")
        if not inst.abelian_equal(nf, g):
            errors.append("normal form has another abelian image")
        if query["expect"] == "nf-self" and nf != g:
            errors.append("regular input is not its own normal form")
    elif query["expect"] == "nf-self":
        errors.append(f"regular input answered {outcome}")
    return outcome, errors


def check_conj(inst: Instance, query: dict, code: int, stdout: str) -> tuple:
    result, outcome, errors = _outcome(code, stdout)
    if errors:
        return None, errors
    u, v = (fg.parse(w) for w in query["words"])
    if outcome == "yes":
        if not inst.abelian_equal(u, v):
            errors.append("yes for a pair with distinct abelian images")
        witness = result.get("witness")
        if not isinstance(witness, dict) or witness.get("kind") != "conjugacy":
            errors.append("yes without a conjugacy witness")
        else:
            s = fg.parse(witness["conjugator"])
            conjugated = s + u + fg.inverse(s)
            cert = witness.get("certificate")
            if cert is None:
                if fg.reduce(conjugated) != fg.reduce(v):
                    errors.append("conjugator does not conjugate u to v in the free group")
            elif cert.get("kind") == "rewriting":
                errors += replay_rewriting(inst, cert, conjugated, v)
            else:
                contour = conjugated + fg.inverse(v)
                errors += replay_filling(inst, cert, contour, len(u) + len(v))
    if query["expect"] == "not-no" and outcome == "no":
        errors.append("conjugate pair answered no")
    if query["expect"] == "not-yes" and outcome == "yes":
        errors.append("abelian-obstructed pair answered yes")
    return outcome, errors


def check_diagram(inst: Instance, query: dict, code: int, stdout: str) -> tuple:
    if code not in (0, 1):
        return None, [f"exit code {code}"]
    verdict = "ok" if code == 0 else "fail"
    try:
        result = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]
    errors = []
    if verdict != query["expect"]:
        errors.append(f"check-diagram answered {verdict}")
    validation = result.get("validation", {})
    expected_match = {"relator": 0, "sign": 1, "rotation": query["rotation"]}
    if validation.get("face_matches") != {"f0": expected_match}:
        errors.append(f"face match {validation.get('face_matches')} != {expected_match}")
    k = len(inst.relators[0])
    counts = {"S": inst.n * inst.m[0], "Sigma": k, "E": k, "F": 1}
    condition = query["condition"]
    if condition == "B":
        reports = result.get("condition_B") or [{}]
        if len(reports) != 1 or not all(reports[0].get(b) for b in ("b0", "b1", "b2")):
            errors.append("condition B does not hold on the one-face disc")
    else:
        section = result.get("condition_X" if condition == "X" else "main_lemma", {})
        if section.get("passed") is not True:
            errors.append(f"condition {condition} does not hold on the one-face disc")
        if section.get("metrics") != counts:
            errors.append(f"metrics {section.get('metrics')} != {counts}")
    return verdict, errors


CHECKS = {"eq": check_eq, "nf": check_nf, "conj": check_conj, "check-diagram": check_diagram}


def check(inst: Instance, query: dict, code: int, stdout: str) -> tuple:
    """(verdict or None, list of errors) for one answered query."""
    return CHECKS[query["command"]](inst, query, code, stdout)
