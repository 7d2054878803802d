"""Bracket-masking fuzzer for Rust compilers.

Seed programs are mutated by masking the interior of one matched
bracket pair at a time, refilled by a pluggable completion backend,
compiled, and triaged for fresh crashes and hangs.
"""

from .augment import AugmentConfig, export_finetune_corpus, random_delete, random_swap
from .brackets import BracketKind, BracketSpan, find_bracket_pairs, find_spans
from .campaign import CampaignConfig, CampaignReport, run_campaign
from .corpus import Corpus, CorpusEntry, content_hash, load_corpus, preflight_filter
from .harness import CompileOutcome, CompilerConfig, compile_program, time_passes
from .infill import (
    EchoBackend,
    HttpBackend,
    InfillConfig,
    InfillResult,
    MockBackend,
    ReplayBackend,
    infill,
)
from .lexer import Token, TokenKind, lex
from .masking import MaskedVariant, cloze, render
from .mining import ExtractedSnippet, IssueRecord, extract_snippets, harvest
from .oracle import BugKind, BugSignature, BugStore, Novelty, classify, signature
from .spe import Skeleton, enumerate_fillings, extract_variables

__version__ = "0.1.0"

__all__ = [
    "AugmentConfig",
    "BracketKind",
    "BracketSpan",
    "BugKind",
    "BugSignature",
    "BugStore",
    "CampaignConfig",
    "CampaignReport",
    "CompileOutcome",
    "CompilerConfig",
    "Corpus",
    "CorpusEntry",
    "EchoBackend",
    "ExtractedSnippet",
    "HttpBackend",
    "InfillConfig",
    "InfillResult",
    "IssueRecord",
    "MaskedVariant",
    "MockBackend",
    "Novelty",
    "ReplayBackend",
    "Skeleton",
    "Token",
    "TokenKind",
    "classify",
    "cloze",
    "compile_program",
    "content_hash",
    "enumerate_fillings",
    "export_finetune_corpus",
    "extract_snippets",
    "extract_variables",
    "find_bracket_pairs",
    "find_spans",
    "harvest",
    "infill",
    "lex",
    "load_corpus",
    "preflight_filter",
    "random_delete",
    "random_swap",
    "render",
    "run_campaign",
    "signature",
    "time_passes",
]
