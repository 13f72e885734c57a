"""Group presentations with regular normal-form bases: word algebra,
relator construction, diagram checkers, budgeted decision procedures."""

from .words import parse_word, word_text
from .construction import ConstructionParams, Presentation, Relator, build_relator, generate, validate_params
from .decision import Budget, Outcome, are_conjugate, equals_in_G, regular_normal_form
from .diagram import Diagram, Selection, special_selection, validate_diagram

__all__ = [
    "parse_word",
    "word_text",
    "ConstructionParams",
    "Presentation",
    "Relator",
    "build_relator",
    "generate",
    "validate_params",
    "Budget",
    "Outcome",
    "are_conjugate",
    "equals_in_G",
    "regular_normal_form",
    "Diagram",
    "Selection",
    "special_selection",
    "validate_diagram",
]
