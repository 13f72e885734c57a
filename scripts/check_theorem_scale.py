#!/usr/bin/env python3
"""Exercise the full-scale parameter set (n=63, lambda1=1/315, N=315):
validate the inequalities, build the first relator, and run the diagram
checkers on its one-face disc.
"""

import time
from fractions import Fraction

from filebasis import diagram as dg
from filebasis.construction import ConstructionParams, generate, validate_params
from filebasis.decision import Budget
from filebasis.words import word_runs, word_text


def main():
    params = ConstructionParams(63, Fraction(1, 315), 315)
    report = validate_params(params)
    print("parameter checks:")
    for check in report.checks:
        print(f"  {'ok ' if check.passed else 'NO '} {check.name}: {check.detail}")
    print(f"  theorem scale: {report.theorem_scale}")
    print(f"  q = {params.q}  (1/(1-2mu) = {1 / (1 - 2 * params.mu)})")

    t0 = time.time()
    budget = Budget(max_edges=10**6, max_word_len=200, max_states=20000)
    pres = generate(params, 1, budget)
    rel = pres.relators[0]
    print(f"\nfirst relator in {time.time() - t0:.3f}s:")
    runs = len(word_runs(rel.r))
    print(f"  w_1 = {word_text(rel.w)}, m_1 = {rel.m}, |r_1| = {len(rel.r)}, runs = {runs}")
    assert len(rel.r) == 63 * rel.m + len(rel.w)
    print(f"  violations: {pres.validate() or 'none'}")

    t0 = time.time()
    face = dg.polygon_diagram(rel.r)
    valid = dg.validate_diagram(face, [rel.r])
    sel = dg.special_selection(face, 63)
    fs = sel.per_face["f0"]
    print(f"\none-face disc ({len(rel.r)} edges) in {time.time() - t0:.3f}s:")
    print(f"  valid: {valid.ok}")
    print(f"  selected subpath length: {fs.length} of {len(rel.r)}")
    strengthened = Fraction(fs.length) >= (1 - params.lambda1) * len(rel.r)
    print(f"  strengthened length bound: {strengthened}")

    ok_main, met = dg.check_main_lemma(face, sel, params)
    print(f"  global inequality S >= (1-2mu)*Sigma: {ok_main}  (S={met.S}, Sigma={met.Sigma})")
    ok_x, _ = dg.check_condition_X(face, sel, params.mu)
    print(f"  semisimple inequality: {ok_x}")
    for k in (1, 62, 63):
        letters = set(range(1, k + 1))
        ok_l, counts = dg.check_letter_budget(face, sel, letters, 63)
        print(f"  letter budget k={k}: {ok_l} (count={counts['count']})")


if __name__ == "__main__":
    main()
