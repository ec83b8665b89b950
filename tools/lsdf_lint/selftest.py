"""Fixture-driven selftest for the lsdf_lint engine.

Two layers, run by `python3 -m lsdf_lint.selftest` (and the
`lint_selftest` ctest):

  * named tokenizer regression tests — the cases that broke (or would
    have broken) the old regex linter, most importantly
    `char_literal_desync`: `char q = '"';` desynchronized the old
    comment stripper, hiding every finding after it in the file;
  * golden fixtures — for every rule in the catalog,
    tests/fixtures/<rule>/bad must produce exactly the findings in its
    expected.txt, and tests/fixtures/<rule>/good must produce none.

Fixture trees are miniature repo roots (their own src/ layout, plus
DESIGN.md where doc-coverage needs one), so path-scoped rules fire the
same way they do on the real tree. Findings are filtered to the
fixture's target rule: a lock-discipline fixture is free to elide //!
comments without tripping doc-coverage assertions.
"""

from __future__ import annotations

import sys
from pathlib import Path

from . import engine, tokenizer
from .rules import RULES

FIXTURES = Path(__file__).resolve().parent / "tests" / "fixtures"


# -- tokenizer regression tests -----------------------------------------------


def _kinds(code: str) -> list[tuple[str, str]]:
    return [(t.kind, t.text) for t in tokenizer.tokenize(code).tokens]


def check_char_literal_desync() -> None:
    # The old strip_comments treated the double-quote inside '"' as a
    # string opener; everything after it (here, a banned system_clock
    # use) vanished from analysis. The tokenizer must keep '"' a single
    # char token and still see the identifiers that follow.
    code = 'char q = \'"\';\nauto t = std::chrono::system_clock::now();\n'
    toks = _kinds(code)
    assert ("char", "'\"'") in toks, toks
    assert ("id", "system_clock") in toks, toks
    assert not any(kind == "str" for kind, _ in toks), toks


def check_raw_string_with_quote() -> None:
    toks = _kinds('auto s = R"(a " b // not a comment)"; int x = 0;')
    assert ("str", 'R"(a " b // not a comment)"') in toks, toks
    assert ("id", "x") in toks, toks


def check_escaped_quote_char() -> None:
    toks = _kinds("char q = '\\''; int after = 1;")
    assert ("id", "after") in toks, toks


def check_digit_separator_not_char() -> None:
    # 10'000 must lex as one number, not a number followed by an
    # unterminated char literal swallowing the rest of the line.
    toks = _kinds("int n = 10'000; int after = 1;")
    assert ("num", "10'000") in toks, toks
    assert ("id", "after") in toks, toks


def check_comments_hide_code() -> None:
    toks = _kinds("// std::mutex m;\n/* rand() */ int live = 1;")
    texts = [text for _, text in toks]
    assert "mutex" not in texts and "rand" not in texts, toks
    assert ("id", "live") in toks, toks


def check_pp_continuation_folds() -> None:
    tf = tokenizer.tokenize("#define WIDE(a, b) \\\n  ((a) + (b))\nint x;\n")
    pp = [t for t in tf.tokens if t.kind == "pp"]
    assert len(pp) == 1 and "WIDE" in pp[0].text, tf.tokens
    assert any(t.text == "x" for t in tf.tokens), tf.tokens


def check_nolint_capture() -> None:
    tf = tokenizer.tokenize(
        "int a;  // NOLINT(threads)\n"
        "// NOLINTNEXTLINE(lock-discipline)\n"
        "int b;\n"
        "int c;  // NOLINT\n"
    )
    assert tf.suppressions[1] == {"threads"}, tf.suppressions
    assert tf.suppressions[3] == {"lock-discipline"}, tf.suppressions
    assert tf.suppressions[4] == {"*"}, tf.suppressions


TOKENIZER_TESTS = [
    ("char_literal_desync", check_char_literal_desync),
    ("raw_string_with_quote", check_raw_string_with_quote),
    ("escaped_quote_char", check_escaped_quote_char),
    ("digit_separator_not_char", check_digit_separator_not_char),
    ("comments_hide_code", check_comments_hide_code),
    ("pp_continuation_folds", check_pp_continuation_folds),
    ("nolint_capture", check_nolint_capture),
]


# -- engine-level regression tests --------------------------------------------


def check_nolint_suppresses_finding() -> None:
    raw = (
        "void f(lsdf::sim::ShardedSimulator& w) {\n"
        "  w.shard(1).schedule_after(10, nullptr);  "
        "// NOLINT(shard-boundary)\n"
        "}\n"
    )
    findings = engine.check_file("src/models/x.cpp", raw, list(RULES))
    assert not [f for f in findings if f.rule == "shard-boundary"], findings


ENGINE_TESTS = [
    ("nolint_suppresses_finding", check_nolint_suppresses_finding),
]


# -- fixture goldens ----------------------------------------------------------


def run_fixture(rule_name: str) -> list[str]:
    failures: list[str] = []
    for flavor in ("good", "bad"):
        root = FIXTURES / rule_name / flavor
        if not root.is_dir():
            failures.append(f"{rule_name}/{flavor}: fixture tree missing")
            continue
        report = engine.run(root)
        got = sorted(
            f.render() for f in report.findings if f.rule == rule_name
        )
        if flavor == "good":
            if got:
                failures.append(
                    f"{rule_name}/good: expected no findings, got:\n    "
                    + "\n    ".join(got)
                )
            continue
        expected_path = root / "expected.txt"
        want = (
            sorted(
                line
                for line in expected_path.read_text(
                    encoding="utf-8").splitlines()
                if line.strip()
            )
            if expected_path.is_file()
            else []
        )
        if not want:
            failures.append(f"{rule_name}/bad: expected.txt missing or empty")
        elif got != want:
            failures.append(
                f"{rule_name}/bad: findings differ from expected.txt\n"
                f"  got:\n    " + "\n    ".join(got or ["<none>"])
                + "\n  want:\n    " + "\n    ".join(want)
            )
    return failures


def main() -> int:
    failures: list[str] = []
    passed = 0
    for name, fn in TOKENIZER_TESTS + ENGINE_TESTS:
        try:
            fn()
            passed += 1
        except AssertionError as exc:
            failures.append(f"tokenizer/{name}: {exc}")
    for rule in RULES:
        rule_failures = run_fixture(rule.name)
        if rule_failures:
            failures.extend(rule_failures)
        else:
            passed += 1
    for failure in failures:
        print(f"FAIL {failure}")
    print(
        f"lint selftest: {passed} passed, {len(failures)} failed "
        f"({len(TOKENIZER_TESTS) + len(ENGINE_TESTS)} unit tests, "
        f"{len(RULES)} rule fixtures)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
