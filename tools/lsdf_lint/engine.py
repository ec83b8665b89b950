"""Scan driver: file discovery, rule execution, suppression, output.

The engine owns everything around the rules: which files are scanned
(SCAN_DIRS, or an explicit list for `--diff` mode), the one global check
that is not per-file (every `src/<subsystem>/` must be named in
DESIGN.md), NOLINT suppression, and the text/JSON renderers. `run()` is
the single entry point used by the CLI, the ctest gate, and the selftest
fixture runner.
"""

from __future__ import annotations

import json
import re
import subprocess
from dataclasses import dataclass, field
from pathlib import Path

from . import semantic, tokenizer
from .rules import RULES, RULES_BY_NAME, FileContext, Finding, Rule

SCAN_DIRS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = (".cpp", ".h")

_DOC_RULE = RULES_BY_NAME["doc-coverage"]


@dataclass
class Report:
    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def discover(root: Path) -> list[str]:
    files: list[str] = []
    for directory in SCAN_DIRS:
        base = root / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in SOURCE_SUFFIXES and path.is_file():
                files.append(path.relative_to(root).as_posix())
    return files


def changed_files(root: Path, ref: str) -> list[str]:
    """Scan-relevant files changed vs `ref` (for the PR fast gate)."""
    out = subprocess.run(
        ["git", "-C", str(root), "diff", "--name-only", "--diff-filter=d",
         ref, "--"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    changed = []
    for line in out.splitlines():
        rel = line.strip()
        if not rel.endswith(SOURCE_SUFFIXES):
            continue
        if rel.split("/", 1)[0] in SCAN_DIRS and (root / rel).is_file():
            changed.append(rel)
    return changed


def check_file(
    rel: str, raw: str, rules: list[Rule], root: Path | None = None
) -> list[Finding]:
    tf = tokenizer.tokenize(raw)
    model = semantic.analyze(tf)
    if root is not None and rel.endswith(".cpp"):
        # Member containers are declared in the class's header but iterated
        # in the .cpp: fold the same-stem sibling header's container
        # declarations into this file's model so determinism-escape sees
        # `for (auto& [k, v] : member_)` against the member's true type.
        sibling = root / (rel[: -len(".cpp")] + ".h")
        if sibling.is_file():
            header_model = semantic.analyze(
                tokenizer.tokenize(sibling.read_text(encoding="utf-8"))
            )
            model.external_container_decls.extend(
                header_model.container_decls)
    ctx = FileContext(rel=rel, raw=raw, tf=tf, model=model)
    for rule in rules:
        rule.check(rule, ctx)
    if not tf.suppressions:
        return ctx.findings
    kept = []
    for finding in ctx.findings:
        names = tf.suppressions.get(finding.line, ())
        if "*" in names or finding.rule in names:
            continue
        kept.append(finding)
    return kept


def check_design_inventory(root: Path) -> list[Finding]:
    """Every src subsystem directory must be named in DESIGN.md."""
    findings: list[Finding] = []

    def doc_finding(message: str) -> Finding:
        return Finding("DESIGN.md", 1, _DOC_RULE.name, _DOC_RULE.code,
                       _DOC_RULE.severity, message)

    src = root / "src"
    if not src.is_dir():
        return findings
    design_path = root / "DESIGN.md"
    if not design_path.is_file():
        findings.append(doc_finding("DESIGN.md is missing"))
        return findings
    design = design_path.read_text(encoding="utf-8")
    for subsystem in sorted(p.name for p in src.iterdir() if p.is_dir()):
        if not re.search(rf"\b{re.escape(subsystem)}/", design):
            findings.append(doc_finding(
                f"subsystem src/{subsystem}/ is not mentioned in DESIGN.md "
                f"— document it"
            ))
    return findings


def run(
    root: Path,
    files: list[str] | None = None,
    rules: list[Rule] | None = None,
    global_checks: bool = True,
) -> Report:
    """Lint `files` (repo-relative; None = discover everything) under root."""
    report = Report()
    active = rules if rules is not None else RULES
    targets = files if files is not None else discover(root)
    for rel in targets:
        raw = (root / rel).read_text(encoding="utf-8")
        report.findings.extend(check_file(rel, raw, active, root=root))
        report.files_scanned += 1
    if global_checks and files is None:
        report.findings.extend(check_design_inventory(root))
    report.findings.sort(key=lambda f: (f.file, f.line, f.code))
    return report


def render_text(report: Report) -> str:
    return "\n".join(f.render() for f in report.findings)


def render_json(report: Report) -> str:
    return json.dumps(
        {
            "version": 1,
            "files_scanned": report.files_scanned,
            "finding_count": len(report.findings),
            "rules": [
                {"code": r.code, "name": r.name, "severity": r.severity,
                 "summary": r.summary}
                for r in RULES
            ],
            "findings": [
                {"file": f.file, "line": f.line, "rule": f.rule,
                 "code": f.code, "severity": f.severity,
                 "message": f.message}
                for f in report.findings
            ],
        },
        indent=2,
    )
