"""lsdf_lint: the LSDF repository's dependency-free C++ static-analysis engine.

Replaces the regex script `tools/lint.py` with a real pipeline:

  tokenizer  A C++ tokenizer (tokenizer.py) that understands string
             literals with escapes, raw strings, char literals (including
             `'"'`, which desynchronized the old regex stripper),
             preprocessor lines with continuations, and comments —
             recording NOLINT suppressions as it goes.

  semantic   A per-file semantic pass (semantic.py): class/struct scopes
             with their field declarations and annotations, mutex members,
             and block-scoped local alias bindings (`auto& s = w.shard(i)`)
             so rules can follow references instead of pattern-matching
             single lines.

  rules      A rule framework (rules.py) with stable ids (LL001..LL011,
             LL007 retired), severities, per-rule baselines (baseline.py),
             text/JSON output and a `--diff <ref>` mode for PR CI
             (engine.py).

Run `python3 -m lsdf_lint --help` from `tools/` (or with `tools/` on
PYTHONPATH), and `python3 -m lsdf_lint.selftest` for the fixture goldens.
The rule catalog lives in DESIGN.md §4h.
"""

__version__ = "1.0.0"
