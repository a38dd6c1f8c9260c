"""Diagnostics and error types shared across the engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Diagnostic:
    """One problem found in an input file or knowledge base.

    Without a ``file`` it has no location (a session or whole-KB check), and
    prints as ``<severity>: <message>``.
    """

    message: str
    file: Optional[str] = None
    line: int = 0
    col: int = 0
    severity: str = "error"

    def __str__(self) -> str:
        if self.file is None:
            return f"{self.severity}: {self.message}"
        return f"{self.file}:{self.line}:{self.col}: {self.severity}: {self.message}"


class CtxkbError(Exception):
    """Base class for all engine errors; ``exit_code`` is the CLI's exit status for it."""

    exit_code = 1


class DiagnosticError(CtxkbError):
    """An error that carries one or more diagnostics; its message joins them."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class ParseError(DiagnosticError):
    """Syntax or static-validation failure."""

    exit_code = 1


class SessionError(DiagnosticError):
    """Invalid context/evidence/query/bounds combination."""

    exit_code = 1


class CycleError(CtxkbError):
    """A dependency cycle was found; ``witness`` lists the atoms/objects on it."""

    exit_code = 2

    def __init__(self, witness, where=""):
        self.witness = list(witness)
        msg = "cycle: " + " -> ".join(str(w) for w in self.witness)
        if where:
            msg = f"{where}: {msg}"
        super().__init__(msg)


class NotAllowedError(DiagnosticError):
    """A variable cannot be finitely grounded."""

    exit_code = 3


class ConflictingSentencesError(CtxkbError):
    """Two ground sentences share consequent and antecedents but differ in alpha."""

    exit_code = 4


class CombiningRuleError(CtxkbError):
    """A combining rule rejected its input."""

    exit_code = 4


class QuantificationError(CtxkbError):
    """The combined relevant base is not completely quantified."""

    exit_code = 4

    def __init__(self, missing):
        self.missing = list(missing)  # (obj, detail) pairs
        super().__init__("incompletely quantified: " + "; ".join(f"{o}: {d}" for o, d in self.missing[:5]))


class ConsistencyError(CtxkbError):
    """Row-sum, range or self-influence violation in tables or factors."""

    exit_code = 4

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class OutOfBoundsSupportError(CtxkbError):
    """A node's support would require a time point outside the session bounds."""

    exit_code = 1

    def __init__(self, obj):
        self.obj = obj
        super().__init__(f"support for {obj} requires a time outside the session bounds")


class ImpossibleEvidenceError(CtxkbError):
    """The evidence set has zero probability under the constructed network."""

    exit_code = 4


class EnumerationGuardError(CtxkbError):
    """Possible-model enumeration exceeded the work guard."""

    exit_code = 5
