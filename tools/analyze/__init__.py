"""tcomp-analyze — token/scope-aware static analysis for the tcomp repo.

A multi-pass analyzer protecting the repo's two load-bearing guarantees:
byte-identical discovery output across threads/shards/daemon-vs-batch,
and no exceptions escaping the library. Architecture (DESIGN §1.9):

    lexer  →  per-file model  →  project model  →  passes
    (tokens)  (scopes, decls,    (#include graph,   (per-file + whole-
               functions)         function index)    project rules)

Entry point: `python3 tools/analyze` (see cli.py).
"""

__version__ = "1.0"
