"""CLI for the LSDF static-analysis engine.

Invocations (from `tools/`, or with `tools/` on PYTHONPATH):

  python3 -m lsdf_lint                      # full scan, text output
  python3 -m lsdf_lint --format json        # CI artifact
  python3 -m lsdf_lint --diff origin/main   # fast PR gate: changed files
  python3 -m lsdf_lint --list-rules         # rule catalog

Exit status is non-zero when findings remain, so it can run directly as a
ctest and a CI step. A deliberate violation is suppressed on its own line
with `// NOLINT(rule-name)`; there is no per-file or per-rule allowlist.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import __version__, engine
from .rules import RULES


def default_root() -> Path:
    # tools/lsdf_lint/__main__.py -> repo root is two levels up from the
    # package directory.
    return Path(__file__).resolve().parent.parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lsdf_lint",
        description="LSDF repo static analysis (rule catalog: DESIGN.md §4h)",
    )
    parser.add_argument("paths", nargs="*",
                        help="repo-relative files to lint (default: all of "
                             f"{', '.join(engine.SCAN_DIRS)})")
    parser.add_argument("--root", type=Path, default=None,
                        help="repository root (default: auto-detected)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--diff", metavar="REF", default=None,
                        help="lint only files changed vs the git ref")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--version", action="version",
                        version=f"lsdf_lint {__version__}")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.name:<22} {rule.severity:<7} "
                  f"{rule.summary}")
        return 0

    root = (args.root or default_root()).resolve()
    files: list[str] | None = None
    if args.paths:
        files = [Path(p).resolve().relative_to(root).as_posix()
                 if Path(p).is_absolute() else p
                 for p in args.paths]
    elif args.diff:
        files = engine.changed_files(root, args.diff)
        if not files:
            print(f"lint: no scan-relevant files changed vs {args.diff}",
                  file=sys.stderr)
            return 0

    started = time.monotonic()
    report = engine.run(root, files=files)

    if args.format == "json":
        print(engine.render_json(report))
    else:
        text = engine.render_text(report)
        if text:
            print(text)
    elapsed = time.monotonic() - started
    print(
        f"lint: {report.files_scanned} files scanned, "
        f"{len(report.findings)} finding(s), {elapsed:.2f}s",
        file=sys.stderr,
    )
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
