"""The LSDF rule catalog: stable ids, severities, and per-file checkers.

Each rule has a stable short code (LL001..LL011) that never changes
meaning, a kebab-case name used in output and NOLINT, and a checker
run against a `FileContext` (raw text + token stream + semantic model).
A retired code is never reused: LL007 went with the fixed-bucket
histogram whose `_seconds` registrations it flagged.
The catalog is documented in DESIGN.md §4h; fixtures under
tests/fixtures/<rule-name>/ pin each rule's behaviour.

Suppression: `// NOLINT(rule-name)` on the finding's line (or
`// NOLINTNEXTLINE(rule-name)` on the line above) — reserved for
deliberate violations such as the runtime-guard regression test in
tests/sim_sharded_test.cpp. There is no per-file or per-rule allowlist:
the change that adds a rule also fixes what the rule finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .semantic import FileModel, STD_MUTEX_TYPES
from .tokenizer import Token, TokenizedFile


@dataclass(frozen=True)
class Finding:
    file: str
    line: int
    rule: str
    code: str
    severity: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class FileContext:
    rel: str  # repo-relative posix path
    raw: str
    tf: TokenizedFile
    model: FileModel
    findings: list[Finding] = field(default_factory=list)

    def report(self, rule: "Rule", line: int, message: str) -> None:
        self.findings.append(
            Finding(self.rel, line, rule.name, rule.code, rule.severity,
                    message)
        )


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    severity: str
    summary: str
    check: Callable[["Rule", FileContext], None]


# -- helpers ------------------------------------------------------------------

DETERMINISM_ALLOWLIST = {
    "src/common/rng.h",   # the one place seeding machinery may live
    "src/obs/trace.cpp",  # wall-time only decorates exported traces
}

# Directories whose event/fingerprint/schedule order is the determinism
# contract (DESIGN.md §5, §5c): unordered iteration here is an escape.
# src/fed/ qualifies because rule-resolution order — (dataset-id, rule-id)
# ascending — is part of the replay contract (DESIGN.md §4i); src/cache/
# and src/storage/ because eviction, migration and tape placement order
# show in the fingerprint, and BlockCache's hash directory is safe only
# while nothing iterates it (DESIGN.md §4f); src/meta/ because the
# catalogue's id order is fed's resolution order, and its hashed name
# index is safe only while nothing iterates it.
DETERMINISM_CRITICAL_PREFIXES = ("src/sim/", "src/net/", "src/chk/",
                                 "src/fed/", "src/cache/", "src/storage/",
                                 "src/meta/")
_CRITICAL_DIRS = ", ".join(p.rstrip("/")
                           for p in DETERMINISM_CRITICAL_PREFIXES)

# The lock-implementation layer may use raw std::mutex (TrackedMutex cannot
# track itself) and cannot annotate against a non-capability guard.
LOCK_DISCIPLINE_EXEMPT_PREFIXES = ("src/chk/",)

_SHARD_MESSAGE = (
    "scheduling through a foreign shard's kernel — wire models "
    "shard-locally, seed() initial events, and cross shards via the "
    "ShardedSimulator mailbox (post)"
)


def _toks(ctx: FileContext) -> list[Token]:
    return ctx.tf.tokens


# -- ported rules (LL001-LL006, LL008) -----------------------------------------


def _check_determinism(rule: Rule, ctx: FileContext) -> None:
    if ctx.rel in DETERMINISM_ALLOWLIST:
        return
    toks = _toks(ctx)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        label = None
        if t.text == "rand" and i + 1 < len(toks) \
                and toks[i + 1].text == "(":
            prev = toks[i - 1].text if i > 0 else ""
            if prev not in (".", "->", "::"):
                label = "rand()"
        elif t.text == "random_device" and i >= 2 \
                and toks[i - 1].text == "::" and toks[i - 2].text == "std":
            label = "std::random_device"
        elif t.text == "system_clock":
            label = "std::chrono::system_clock"
        if label:
            ctx.report(
                rule, t.line,
                f"{label} is banned outside the allowlist — derive "
                f"behaviour from common/rng.h seeds or steady_clock",
            )


def _check_threads(rule: Rule, ctx: FileContext) -> None:
    if ctx.rel.startswith("src/exec/"):
        return
    toks = _toks(ctx)
    for i in range(len(toks) - 2):
        if (
            toks[i].text == "std"
            and toks[i + 1].text == "::"
            and toks[i + 2].text == "thread"
            and (i + 3 >= len(toks) or toks[i + 3].text != "::")
        ):
            ctx.report(
                rule, toks[i].line,
                "raw std::thread outside src/exec — use exec::ThreadPool",
            )


def _check_pragma_once(rule: Rule, ctx: FileContext) -> None:
    if not ctx.rel.endswith(".h"):
        return
    for t in ctx.tf.tokens:
        if t.kind == "pp" and t.text.startswith("# pragma once"):
            return
    ctx.report(rule, 1, "header lacks #pragma once")


def _check_require_msg(rule: Rule, ctx: FileContext) -> None:
    toks = _toks(ctx)
    i = 0
    while i < len(toks):
        t = toks[i]
        if (
            t.kind == "id"
            and t.text in ("LSDF_REQUIRE", "LSDF_DCHECK")
            and i + 1 < len(toks)
            and toks[i + 1].text == "("
        ):
            depth = 0
            last_arg: list[Token] = []
            j = i + 1
            closed = False
            while j < len(toks):
                text = toks[j].text
                if text in ("(", "[", "{"):
                    depth += 1
                elif text in (")", "]", "}"):
                    depth -= 1
                    if depth == 0:
                        closed = True
                        break
                elif text == "," and depth == 1:
                    last_arg = []
                    j += 1
                    continue
                if depth >= 1 and text != "(":
                    last_arg.append(toks[j])
                j += 1
            if not closed:
                ctx.report(rule, t.line, f"unbalanced {t.text} call")
            else:
                meaningful = [
                    a for a in last_arg
                    if not (a.kind == "str" and a.text in ('""', ""))
                ]
                if not meaningful:
                    ctx.report(
                        rule, t.line,
                        f"{t.text} needs a non-empty message",
                    )
                i = j
        i += 1


def _check_doc_coverage(rule: Rule, ctx: FileContext) -> None:
    if not (ctx.rel.startswith("src/") and ctx.rel.endswith(".h")):
        return
    for line in ctx.raw.splitlines():
        if not line.strip():
            continue
        if not line.startswith("//!"):
            ctx.report(
                rule, 1,
                "src header must open with a `//!` module comment (what "
                "the module is and why)",
            )
        return
    ctx.report(rule, 1, "empty header")


def _check_sim_hot_path(rule: Rule, ctx: FileContext) -> None:
    if not ctx.rel.startswith("src/sim/"):
        return
    toks = _toks(ctx)
    for i in range(len(toks) - 2):
        if (
            toks[i].text == "std"
            and toks[i + 1].text == "::"
            and toks[i + 2].text == "function"
        ):
            ctx.report(
                rule, toks[i].line,
                "std::function in the event kernel — use "
                "sim::InlineCallback so callbacks stay inline in event "
                "slots",
            )


def _check_shard_boundary(rule: Rule, ctx: FileContext) -> None:
    for use in ctx.model.shard_direct:
        ctx.report(rule, use.line, _SHARD_MESSAGE)


# -- new analysis families (LL009-LL011) --------------------------------------


def _check_lock_discipline(rule: Rule, ctx: FileContext) -> None:
    if not ctx.rel.startswith("src/"):
        return
    if ctx.rel.startswith(LOCK_DISCIPLINE_EXEMPT_PREFIXES):
        return
    for line in ctx.model.raw_mutex_lines:
        ctx.report(
            rule, line,
            "raw std::mutex outside src/chk — use chk::TrackedMutex so the "
            "lock joins the runtime lock-order graph and carries clang "
            "thread-safety capabilities (DESIGN.md §4e)",
        )
    for cls in ctx.model.classes:
        mutexes = cls.mutexes
        if not mutexes:
            continue
        mutex_names = ", ".join(m.name for m in mutexes) or "its mutex"
        for f in cls.fields:
            if f.is_mutex or f.guarded or f.const_after_init:
                continue
            if f.is_static or f.is_const or f.is_reference or f.is_sync_type:
                continue
            ctx.report(
                rule, f.line,
                f"field '{f.name}' of mutex-owning {cls.name} has no "
                f"LSDF_GUARDED_BY({mutex_names}) — annotate it, mark a "
                f"construction-time-only field LSDF_CONST_AFTER_INIT, or a "
                f"barrier-handed-off field LSDF_BARRIER_SYNCHRONIZED",
            )


def _check_determinism_escape(rule: Rule, ctx: FileContext) -> None:
    if not ctx.rel.startswith("src/"):
        return
    model = ctx.model
    in_critical = ctx.rel.startswith(DETERMINISM_CRITICAL_PREFIXES)
    # (a) pointer-keyed *ordered* containers order by address — ASLR leaks
    # into iteration order. Pointer-keyed unordered containers are legal
    # (lookup only, and unordered iteration is banned where it matters).
    for decl in model.container_decls:
        if decl.key_is_pointer and not decl.is_unordered:
            ctx.report(
                rule, decl.line,
                f"std::{decl.container}<{decl.key_text}, ...> orders by "
                f"pointer value — iteration order leaks ASLR; key by a "
                f"stable id, or use an unordered container for pure lookup",
            )
    # (b)/(c) iteration sites.
    for it in model.iterations:
        for decl in model.container_types_of(it.base_name):
            if decl.is_unordered and in_critical:
                ctx.report(
                    rule, it.line,
                    f"iterating std::{decl.container} '{it.base_name}' in a "
                    f"determinism-critical path ({_CRITICAL_DIRS}) "
                    f"— hash order is seed/ASLR-dependent; iterate a sorted "
                    f"or insertion-ordered structure instead",
                )
                break
            if decl.key_is_thread_id or decl.key_is_pointer:
                ctx.report(
                    rule, it.line,
                    f"iterating '{it.base_name}' keyed by "
                    f"{'std::thread::id' if decl.key_is_thread_id else 'a pointer'}"
                    f" — handle/address order is run-dependent; iterate a "
                    f"registration-ordered structure and keep the keyed map "
                    f"for lookup only",
                )
                break
    # (d) explicit address comparators.
    toks = _toks(ctx)
    for i in range(len(toks) - 3):
        if (
            toks[i].text == "std"
            and toks[i + 1].text == "::"
            and toks[i + 2].text == "less"
            and toks[i + 3].text == "<"
        ):
            j = i + 4
            depth = 1
            arg: list[str] = []
            while j < len(toks) and depth > 0:
                text = toks[j].text
                if text == "<":
                    depth += 1
                elif text in (">", ">>"):
                    depth -= 2 if text == ">>" else 1
                if depth > 0:
                    arg.append(text)
                j += 1
            if arg and arg[-1] == "*":
                ctx.report(
                    rule, toks[i].line,
                    "std::less over a pointer type compares addresses — "
                    "run-dependent order; compare a stable id instead",
                )


def _check_shard_boundary_alias(rule: Rule, ctx: FileContext) -> None:
    for use in ctx.model.shard_alias:
        ctx.report(
            rule, use.line,
            f"'{use.alias}' aliases a shard's kernel and then calls "
            f"{use.method}() through it — {_SHARD_MESSAGE}",
        )


RULES: list[Rule] = [
    Rule("LL001", "determinism", "error",
         "No rand()/std::random_device/system_clock outside the allowlist",
         _check_determinism),
    Rule("LL002", "threads", "error",
         "No raw std::thread outside src/exec (use exec::ThreadPool)",
         _check_threads),
    Rule("LL003", "pragma-once", "error",
         "Every header uses #pragma once",
         _check_pragma_once),
    Rule("LL004", "require-msg", "error",
         "LSDF_REQUIRE/LSDF_DCHECK carry a non-empty message",
         _check_require_msg),
    Rule("LL005", "doc-coverage", "error",
         "src headers open with //! docs; src subsystems appear in DESIGN.md",
         _check_doc_coverage),
    Rule("LL006", "sim-hot-path", "error",
         "No std::function in src/sim (use sim::InlineCallback)",
         _check_sim_hot_path),
    Rule("LL008", "shard-boundary", "error",
         "No direct shard(i).schedule_*/cancel through a foreign kernel",
         _check_shard_boundary),
    Rule("LL009", "lock-discipline", "error",
         "Mutex-owning classes annotate mutable fields; no raw std::mutex "
         "outside src/chk",
         _check_lock_discipline),
    Rule("LL010", "determinism-escape", "error",
         "No unordered/address-ordered iteration where event order is the "
         "contract; no pointer-keyed ordered containers",
         _check_determinism_escape),
    Rule("LL011", "shard-boundary-alias", "error",
         "Aliased shard references (auto& s = w.shard(i)) may not "
         "schedule/cancel",
         _check_shard_boundary_alias),
]

RULES_BY_NAME = {r.name: r for r in RULES}
