"""Command-line entry point.

Exit codes: 0 yes/ok, 1 no/fail, 2 budget-exceeded (also when memory or
the recursion limit runs out), 64 usage error, 65 malformed data, 70 an
internal error.  All results are emitted as JSON so harnesses can diff
structured output.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict
from itertools import islice

from . import construction, decision
from .construction import ConstructionParams, MalformedParamsError, Presentation
from .decision import Budget, Outcome
from .words import DataError, iter_reduced_words, parse_word, word_text

EX_YES = 0
EX_NO = 1
EX_BUDGET = 2
EX_USAGE = 64
EX_DATA = 65
EX_SOFTWARE = 70


def _emit(obj: dict) -> None:
    json.dump(obj, sys.stdout, indent=2, default=str)
    sys.stdout.write("\n")


def _params_from_args(args) -> ConstructionParams:
    return ConstructionParams(n=args.n, lambda1=args.lambda1, N=args.N)


def _budget_from_args(args) -> Budget:
    return Budget(
        max_edges=args.max_edges, max_word_len=args.max_len, max_states=args.max_states
    )


def _load_presentation(path: str) -> Presentation:
    """The presentation in a JSON file.  An unreadable file and bad data in
    it are data errors (65), unlike bad parameters on the command line."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise construction.ConstructionError(f"cannot read {path}: {exc}") from exc
    try:
        return Presentation.from_dict(data)
    except MalformedParamsError as exc:
        raise construction.ConstructionError(str(exc)) from exc


def _answer(out: Outcome, extra: dict) -> int:
    """Print the outcome, then `extra`; exit 0, 1 or 2 for yes, no or budget-exceeded."""
    _emit({"outcome": out.value, **extra})
    return EX_YES if out.is_yes else EX_NO if out.is_no else EX_BUDGET


def _witness_dict(witness) -> object:
    if witness is None:
        return None
    if isinstance(witness, decision.FillWitness):
        return {
            "kind": "filling",
            "contour": word_text(witness.contour),
            "trace": [
                {"position": j, "face_label": word_text(variant)} for j, variant in witness.trace
            ],
            "edges": witness.edges,
            "area": witness.area,
        }
    if isinstance(witness, decision.RewriteWitness):
        return {
            "kind": "rewriting",
            "meeting_point": word_text(witness.meeting_point),
            "steps_from_u": [word_text(s) for s in witness.steps_from_u],
            "steps_from_v": [word_text(s) for s in witness.steps_from_v],
        }
    if isinstance(witness, decision.ConjugacyWitness):
        out = {
            "kind": "conjugacy",
            "conjugator": word_text(witness.conjugator),
            "certificate": _witness_dict(witness.certificate),
        }
        if witness.lemmas:  # written only when used, so other output is unchanged
            out["lemmas"] = [_witness_dict(lemma) for lemma in witness.lemmas]
        return out
    return str(witness)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    params = _params_from_args(args)
    report = construction.validate_params(params)
    _emit(
        {
            "params": {"n": params.n, "lambda1": str(params.lambda1), "N": params.N},
            "derived": {
                "lambda2": str(params.lambda2),
                "mu": str(params.mu),
                "q": str(params.q),
            },
            "report": report.as_dict(),
        }
    )
    return EX_YES if report.all_passed else EX_NO


def cmd_gen(args) -> int:
    params = _params_from_args(args)
    budget = _budget_from_args(args)
    pres = construction.generate(params, args.count, budget)
    problems = pres.validate()
    _emit(
        {
            "presentation": pres.as_dict(),
            "truncated": pres.truncated,
            "violations": problems,
        }
    )
    if pres.truncated:
        return EX_BUDGET
    return EX_YES


def cmd_eq(args) -> int:
    pres = _load_presentation(args.presentation)
    u = parse_word(args.u, pres.params.n)
    v = parse_word(args.v, pres.params.n)
    out = decision.equals_in_G(pres, u, v, _budget_from_args(args), engine=args.engine)
    return _answer(out, {"witness": _witness_dict(out.witness)} if args.witness else {})


def cmd_nf(args) -> int:
    pres = _load_presentation(args.presentation)
    g = parse_word(args.g, pres.params.n)
    out = decision.regular_normal_form(pres, g, _budget_from_args(args), engine=args.engine)
    return _answer(out, {"normal_form": word_text(out.witness)} if out.is_yes else {})


def cmd_conj(args) -> int:
    pres = _load_presentation(args.presentation)
    u = parse_word(args.u, pres.params.n)
    v = parse_word(args.v, pres.params.n)
    out = decision.are_conjugate(pres, u, v, _budget_from_args(args))
    shown = args.witness or out.is_yes
    return _answer(out, {"witness": _witness_dict(out.witness)} if shown else {})


_CONDITION_KEYS = {"B": "condition_B", "X": "condition_X", "main-lemma": "main_lemma"}


def cmd_check_diagram(args) -> int:
    from . import diagram  # the one command that needs the diagram layer

    pres = _load_presentation(args.presentation)
    d = diagram.load_diagram(args.diagram, pres.params.n)
    report = diagram.validate_diagram(d, pres.relator_words())
    result = {"validation": report.as_dict()}
    ok = report.ok
    if ok and args.condition:
        params, key = pres.params, _CONDITION_KEYS[args.condition]
        try:
            sel = diagram.special_selection(d, params.n)
            if args.condition == "B":
                reports = diagram.check_condition_B(d, sel, params.lambda1, params.lambda2)
                result[key] = [asdict(r) for r in reports]
                ok = all(r.passed for r in reports)
            else:
                if args.condition == "X":
                    ok, met = diagram.check_condition_X(d, sel, params.mu)
                else:
                    ok, met = diagram.check_main_lemma(d, sel, params)
                result[key] = {"passed": ok, "metrics": asdict(met)}
        except diagram.PreconditionError as exc:
            # valid data outside the checker's hypotheses: a no, not a data error
            if exc.reports is not None:
                result["condition_B"] = [asdict(r) for r in exc.reports]
            result[key] = {"passed": False, "precondition": str(exc)}
            ok = False
    _emit(result)
    return EX_YES if ok else EX_NO


def cmd_enum_words(args) -> int:
    words = [word_text(w) for w in islice(iter_reduced_words(args.n), args.count)]
    _emit({"n": args.n, "words": words})
    return EX_YES


# ---------------------------------------------------------------------------
# argument parsing


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return value


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-edges", type=_positive_int, default=Budget.max_edges)
    p.add_argument("--max-len", type=_positive_int, default=Budget.max_word_len)
    p.add_argument("--max-states", type=_positive_int, default=Budget.max_states)


def _add_params_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda1", required=True, help="exact rational, e.g. 1/315")
    p.add_argument("--N", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filebasis",
        description="Group presentations with regular normal-form bases: "
        "generation, diagram checking, budgeted decision procedures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check parameter inequalities exactly")
    _add_params_flags(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="run the inductive relator construction")
    _add_params_flags(p)
    p.add_argument("--count", type=_nonnegative_int, default=1)
    _add_budget_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("eq", help="bounded equality test in the presented group")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--presentation", required=True)
    p.add_argument("--engine", choices=decision.ENGINES, default="diagram")
    p.add_argument("--witness", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("nf", help="deg-lex-least regular word equal to the input")
    p.add_argument("g")
    p.add_argument("--presentation", required=True)
    p.add_argument("--engine", choices=decision.ENGINES, default="diagram")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("conj", help="bounded conjugacy test")
    p.add_argument("u")
    p.add_argument("v")
    p.add_argument("--presentation", required=True)
    p.add_argument("--witness", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(func=cmd_conj)

    p = sub.add_parser("check-diagram", help="validate a diagram file and run checkers")
    p.add_argument("diagram")
    p.add_argument("--presentation", required=True)
    p.add_argument("--condition", choices=["B", "X", "main-lemma"])
    p.set_defaults(func=cmd_check_diagram)

    p = sub.add_parser("enum-words", help="stream reduced words in deg-lex order")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--count", type=_nonnegative_int, default=20)
    p.set_defaults(func=cmd_enum_words)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the documented code
        return EX_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except MalformedParamsError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EX_USAGE
    except DataError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EX_DATA
    except (MemoryError, RecursionError) as exc:
        # resource exhaustion is budget-exceeded, never the exit code of a no
        _emit({"outcome": decision.EXCEEDED, "reason": str(exc) or type(exc).__name__})
        return EX_BUDGET
    except Exception as exc:
        error = {"error": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()}
        print(json.dumps(error), file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
