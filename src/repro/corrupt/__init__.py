"""Corruption engine: labeled query perturbation for the detection tasks.

Three families:

* :mod:`repro.corrupt.syntax_errors` — the paper's six semantic error
  types, injected into parsed queries that still parse afterwards;
* :mod:`repro.corrupt.missing_tokens` — removal of exactly one token of
  a chosen type from the query *text* (the miss_token family);
* :mod:`repro.corrupt.structural` — AST-level structural breakage
  (clause-order swaps, dangling aliases, unbalanced subquery parens)
  unlocked by the synthetic workload family's direct AST generation.

Both AST injectors return the :class:`~repro.sql.transform.AppliedTransform`
of the shared transform layer, whose ``name`` is the error type; a
token removal returns a :class:`TokenRemoval`, which also records the
removed word and its position.
"""

from repro.corrupt.structural import STRUCTURAL_TYPES, inject_structural_error
from repro.corrupt.missing_tokens import (
    ALIAS,
    COLUMN,
    COMPARISON,
    KEYWORD,
    TABLE,
    TOKEN_TYPES,
    VALUE,
    TokenRemoval,
    remove_token,
)
from repro.corrupt.syntax_errors import ERROR_TYPES, inject_syntax_error

__all__ = [
    "ERROR_TYPES",
    "inject_syntax_error",
    "TOKEN_TYPES",
    "KEYWORD",
    "TABLE",
    "COLUMN",
    "VALUE",
    "ALIAS",
    "COMPARISON",
    "TokenRemoval",
    "remove_token",
    "STRUCTURAL_TYPES",
    "inject_structural_error",
]
