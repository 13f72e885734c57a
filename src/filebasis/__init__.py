"""Group presentations with regular normal-form bases: word algebra
(`words`), relator construction (`construction`), diagram checkers
(`diagram`), budgeted decision procedures (`decision`) and the CLI (`cli`).

The package exports nothing; import each name from its module."""
