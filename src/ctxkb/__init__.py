"""Context-sensitive temporal probabilistic knowledge bases.

Rule knowledge bases with context guards are compiled, per inference
session, into a minimal supporting Bayesian network; queries are answered
by exact variable elimination and cross-checkable against possible-model
enumeration.
"""

from .combining import noisy_max
from .errors import (
    CombiningRuleError,
    ConflictingSentencesError,
    ConsistencyError,
    CtxkbError,
    CycleError,
    Diagnostic,
    EnumerationGuardError,
    ImpossibleEvidenceError,
    NotAllowedError,
    OutOfBoundsSupportError,
    ParseError,
    QuantificationError,
    SessionError,
)
from .infer import PosteriorVector, QueryAnswer, answer_query
from .lang import (
    Atom,
    Const,
    KnowledgeBase,
    SessionInput,
    TimeExpr,
    ValidatedSession,
    Var,
    validate_session,
)
from .logic import check_acyclic_cb, check_acyclic_pb, check_allowed, sldnf_solve
from .netbuild import BayesNet, build_net, export_dot
from .oracle import conditional, enumerate_joint, forward_sample, oracle_answer
from .parser import load_atoms, load_kb, parse_atom, parse_atoms, parse_kb
from .relevance import (
    CombinedBase,
    RelevantAtomSet,
    build_combined_base,
    compute_ras,
    discharge_contexts,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "BayesNet",
    "CombinedBase",
    "CombiningRuleError",
    "ConflictingSentencesError",
    "ConsistencyError",
    "Const",
    "CtxkbError",
    "CycleError",
    "Diagnostic",
    "EnumerationGuardError",
    "ImpossibleEvidenceError",
    "KnowledgeBase",
    "NotAllowedError",
    "OutOfBoundsSupportError",
    "ParseError",
    "PosteriorVector",
    "QuantificationError",
    "QueryAnswer",
    "RelevantAtomSet",
    "SessionError",
    "SessionInput",
    "TimeExpr",
    "ValidatedSession",
    "Var",
    "answer_query",
    "build_combined_base",
    "build_net",
    "check_acyclic_cb",
    "check_acyclic_pb",
    "check_allowed",
    "compute_ras",
    "conditional",
    "discharge_contexts",
    "enumerate_joint",
    "export_dot",
    "forward_sample",
    "load_atoms",
    "load_kb",
    "noisy_max",
    "oracle_answer",
    "parse_atom",
    "parse_atoms",
    "parse_kb",
    "sldnf_solve",
    "validate_session",
]
