"""Bracket-masking fuzzer for Rust compilers.

Seed programs are mutated by masking the interior of one matched
bracket pair at a time, refilled by a pluggable completion backend,
compiled, and triaged for fresh crashes and hangs.
"""

# The root exports nothing, but it loads every module except the cli
# front end: the campaign benchmark times setup from after
# `import clozefuzz`, so an import cost not paid here counts as setup.
from . import augment, brackets, campaign, corpus, harness, infill  # noqa: F401
from . import lexer, masking, mining, oracle, spe  # noqa: F401

__version__ = "0.1.0"
