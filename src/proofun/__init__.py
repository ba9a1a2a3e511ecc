"""Proof checker for a dependent lambda-calculus with strong intersection
and union types: parser, normalizer, subtyping, higher-order unification,
bidirectional refinement, and an interactive command loop."""

from proofun.env import ConstInfo, GlobalEnv, LocalEnv, MetaEnv
from proofun.errors import (
    CommandError, EssenceMismatch, InternalError, ParseError, ProverError,
    TypeCheckError, UnificationFailure, UnresolvedMeta,
)
from proofun.normalize import strongly_normalize
from proofun.parser import fix_id, fix_index, parse_command, parse_term
from proofun.pretty import render_error, show_term
from proofun.refine import elaborate, elaborate_type
from proofun.repl import Session, main, run_source
from proofun.subtype import is_subtype
from proofun.syntax import Term
from proofun.unify import unify, unify_essence

__version__ = "0.1.0"

__all__ = [
    "CommandError", "ConstInfo", "EssenceMismatch", "GlobalEnv",
    "InternalError", "LocalEnv", "MetaEnv", "ParseError", "ProverError",
    "Session", "Term", "TypeCheckError", "UnificationFailure",
    "UnresolvedMeta", "elaborate", "elaborate_type", "fix_id", "fix_index",
    "is_subtype", "main", "parse_command", "parse_term", "render_error",
    "run_source", "show_term", "strongly_normalize", "unify",
    "unify_essence",
]
