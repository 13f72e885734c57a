#!/usr/bin/env python3
"""Build the small 3-letter instance, write its JSON, and exercise the
decision procedures on a few words.

Usage: python3 scripts/build_toy_presentation.py [output.json]
"""

import sys
import time
from fractions import Fraction

from filebasis.construction import ConstructionParams, generate, validate_params
from filebasis.decision import Budget, are_conjugate, equals_in_G, regular_normal_form
from filebasis.words import parse_word, word_text


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "toy_presentation.json"
    params = ConstructionParams(3, Fraction(1, 15), 2)
    budget = Budget(max_edges=10**6, max_word_len=60, max_states=8000)

    report = validate_params(params)
    print("parameter checks:")
    for check in report.checks:
        print(f"  {'ok ' if check.passed else 'NO '} {check.name}: {check.detail}")
    print(f"  theorem scale: {report.theorem_scale}")
    print(f"  derived: lambda2={params.lambda2} mu={params.mu} q={params.q}")

    t0 = time.time()
    pres = generate(params, 1, budget)
    print(f"\ngenerated {len(pres.relators)} relator(s) in {time.time() - t0:.3f}s")
    for rel in pres.relators:
        print(f"  r_{rel.i} = {word_text(rel.r)}   (m={rel.m}, |r|={len(rel.r)})")

    with open(out_path, "w") as fh:
        fh.write(pres.dumps())
    print(f"wrote {out_path}")

    print("\ndecision procedure samples:")
    r1 = pres.relators[0].r
    samples = [
        ("eq", r1, ""),
        ("eq", parse_word("x1", 3), parse_word("x2", 3)),
        ("conj", parse_word("x1 x2", 3), parse_word("x2 x1", 3)),
    ]
    for kind, u, v in samples:
        t0 = time.time()
        if kind == "eq":
            out = equals_in_G(pres, u, v, budget)
        else:
            out = are_conjugate(pres, u, v, budget)
        u, v = word_text(u) or "empty", word_text(v) or "empty"
        print(f"  {kind}({u}, {v}) -> {out.value}  [{time.time() - t0:.3f}s]")

    t0 = time.time()
    nf = regular_normal_form(pres, parse_word("x2 x1", 3), budget)
    print(f"  nf(x2 x1) -> {nf.value}: {word_text(nf.witness or '')}  [{time.time() - t0:.3f}s]")


if __name__ == "__main__":
    main()
