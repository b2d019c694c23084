#!/usr/bin/env python3
"""LightRidge repo-invariant linter.

Enforces project conventions that neither the compiler nor clang-tidy
checks, with file/line diagnostics:

  serve-steady-clock   std::chrono::system_clock in src/serve/ timing code
                       (SLA deadlines must use the monotonic clock; wall
                       time jumps under NTP slew and breaks latency math).
  banned-function      rand()/strtok()/gets()/printf() in library code:
                       non-reentrant, or bypasses the logging layer.
  deprecated-api       calls to the deleted v1 serving entry point
                       `submitLegacy`, so the name cannot come back; new
                       code uses the v2 submit() API.
  zero-alloc-hot-path  naked `Field` construction inside *Into / *InPlace
                       function bodies, inside the perturbation-sampler
                       hot path (fillHopPerturbation, samplePerturbation,
                       PerturbationSampler::sample/sampleHop, redrawn every
                       training batch), or inside the streaming-prefetcher
                       decode path (stageRange, stageIndices; decodeShardInto
                       is covered by the *Into convention, runs once per
                       shard per epoch) - these are the zero-allocation
                       steady-state paths; buffers must come from the
                       PropagationWorkspace, ensureFieldShape, or member
                       caches.
  include-guard        headers must start with `#pragma once` (exactly one).

Escape hatch: append `// lint:allow(<rule-id>)` to the offending line (or
put it on the line directly above) with a justification nearby.

Usage:
  tools/lint/run_lint.py [--json REPORT] [PATH...]   (default: src tests bench)

Exit codes: 0 = clean, 1 = violations found, 2 = usage/IO error.
"""

import argparse
import json
import os
import re
import sys

C_EXTENSIONS = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"}
HEADER_EXTENSIONS = {".hpp", ".h", ".hh"}

# Directories never linted (fixture corpus contains deliberate violations).
SKIP_DIR_PARTS = {"fixtures", "build", ".git", "third_party"}

ALLOW_RE = re.compile(r"//\s*lint:allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")


def find_repo_root(start):
    """Nearest ancestor containing .git, else the start directory."""
    path = os.path.abspath(start)
    while True:
        if os.path.isdir(os.path.join(path, ".git")):
            return path
        parent = os.path.dirname(path)
        if parent == path:
            return os.path.abspath(start)
        path = parent


class Violation:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def as_dict(self):
        return {
            "rule": self.rule,
            "file": self.path,
            "line": self.line,
            "message": self.message,
        }

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def mask_comments_and_strings(text):
    """Replace comment/string contents with spaces, preserving newlines.

    Keeps every byte offset stable so line/column math on the masked text
    maps 1:1 onto the original file. Good enough for a convention linter:
    no raw-string or trigraph support (the codebase uses neither).
    """
    out = list(text)
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                state = STRING
                i += 1
                continue
            if c == "'":
                state = CHAR
                i += 1
                continue
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
            elif c != "\n":
                out[i] = " "
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c != "\n":
                out[i] = " "
        elif state in (STRING, CHAR):
            quote = '"' if state == STRING else "'"
            if c == "\\":
                out[i] = " "
                if nxt and nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == quote:
                state = NORMAL
            elif c != "\n":
                out[i] = " "
        i += 1
    return "".join(out)


class FileContext:
    """One parsed source file: raw lines + comment/string-masked lines."""

    def __init__(self, path, rel_path, text):
        self.path = path
        self.rel = rel_path
        self.raw_lines = text.splitlines()
        self.masked_lines = mask_comments_and_strings(text).splitlines()
        self.allows = self._collect_allows()

    def _collect_allows(self):
        """Map line number -> set of rule ids allowed on that line."""
        allows = {}
        for idx, line in enumerate(self.raw_lines, start=1):
            m = ALLOW_RE.search(line)
            if not m:
                continue
            rules = {r.strip() for r in m.group(1).split(",")}
            # The directive covers its own line and the one below, so it
            # can ride on the statement or stand alone above it.
            allows.setdefault(idx, set()).update(rules)
            allows.setdefault(idx + 1, set()).update(rules)
        return allows

    def allowed(self, rule, line):
        return rule in self.allows.get(line, set())


def rel_parts(ctx):
    return ctx.rel.replace(os.sep, "/")


# --------------------------------------------------------------------------
# Rules. Each takes a FileContext and yields Violation objects.
# --------------------------------------------------------------------------

SYSTEM_CLOCK_RE = re.compile(r"\bsystem_clock\b")


def rule_serve_steady_clock(ctx):
    """system_clock in src/serve/: SLA math needs a monotonic clock."""
    if not rel_parts(ctx).startswith("src/serve/"):
        return
    for idx, line in enumerate(ctx.masked_lines, start=1):
        if SYSTEM_CLOCK_RE.search(line):
            yield Violation(
                "serve-steady-clock", ctx.rel, idx,
                "std::chrono::system_clock in serving code; deadlines and "
                "latency accounting must use std::chrono::steady_clock")


BANNED_FUNCTIONS = [
    (re.compile(r"(?<![A-Za-z0-9_])rand\s*\("),
     "rand() shares hidden global state; use lightridge::Rng"),
    (re.compile(r"(?<![A-Za-z0-9_])strtok\s*\("),
     "strtok() is not reentrant; use string_view parsing or strtok_r"),
    (re.compile(r"(?<![A-Za-z0-9_])gets\s*\("),
     "gets() cannot bound its write; use fgets or iostreams"),
    (re.compile(r"(?<![A-Za-z0-9_])printf\s*\("),
     "printf in library code bypasses the logging layer; use LR_LOG"),
]

# Tool entry points (not part of the library) may talk to stdout directly.
BANNED_FUNCTION_EXEMPT_FILES = {
    "src/api/run_main.cpp",
    "src/serve/serve_main.cpp",
    "src/data/data_main.cpp",
}


def rule_banned_function(ctx):
    rel = rel_parts(ctx)
    if not rel.startswith("src/"):
        return
    if rel in BANNED_FUNCTION_EXEMPT_FILES:
        return
    for idx, line in enumerate(ctx.masked_lines, start=1):
        for pattern, why in BANNED_FUNCTIONS:
            if pattern.search(line):
                yield Violation("banned-function", ctx.rel, idx, why)


SUBMIT_LEGACY_RE = re.compile(r"\bsubmitLegacy\s*\(")

DEPRECATED_API_SCOPES = ("src/core/", "src/optics/", "src/hardware/",
                         "src/serve/", "bench/")


def rule_deprecated_api(ctx):
    rel = rel_parts(ctx)
    if not rel.startswith(DEPRECATED_API_SCOPES):
        return
    for idx, line in enumerate(ctx.masked_lines, start=1):
        if SUBMIT_LEGACY_RE.search(line):
            yield Violation(
                "deprecated-api", ctx.rel, idx,
                "submitLegacy() was the deleted v1 exception-style entry "
                "point; use InferenceEngine::submit() and Expected results")


# Function definitions whose body is a zero-allocation steady-state path:
# the *Into/*InPlace naming convention, plus the perturbation-sampler
# functions (redrawn once per training batch) and the streaming-prefetcher
# staging entry points (called between every training batch) - steady-state
# even though their names predate the convention.
HOT_PATH_NAME_RE = re.compile(
    r"\b(?:[A-Za-z_][A-Za-z0-9_]*(?:Into|InPlace)|fillHopPerturbation|"
    r"samplePerturbation|PerturbationSampler::sample|sampleHop|"
    r"stageRange|stageIndices)\s*\(")
NAKED_FIELD_RE = re.compile(
    r"(?<![A-Za-z0-9_:])Field\s+[A-Za-z_][A-Za-z0-9_]*\s*[({=]|"
    r"(?<![A-Za-z0-9_:])Field\s*\(")


def iter_hot_path_bodies(masked_lines):
    """Yield (name_line, body_start, body_end) for hot-path definitions.

    A definition is a line mentioning a HOT_PATH_NAME_RE function that is
    not a declaration (no trailing ';' before the body opens). Bodies are
    found by brace counting on the masked text.
    """
    n = len(masked_lines)
    i = 0
    while i < n:
        line = masked_lines[i]
        m = HOT_PATH_NAME_RE.search(line)
        if not m:
            i += 1
            continue
        # Scan forward (max a few lines) for the first of '{' or ';'.
        j = i
        depth = 0
        body_start = None
        while j < n and j < i + 8:
            for ch in masked_lines[j]:
                if ch == ";" and body_start is None:
                    body_start = -1  # declaration; no body
                    break
                if ch == "{":
                    body_start = j
                    break
            if body_start is not None:
                break
            j += 1
        if body_start is None or body_start == -1:
            i += 1
            continue
        # Brace-match to find the end of the body.
        k = body_start
        opened = False
        while k < n:
            for ch in masked_lines[k]:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
            if opened and depth == 0:
                break
            k += 1
        yield i, body_start, min(k, n - 1)
        i = min(k, n - 1) + 1


def rule_zero_alloc_hot_path(ctx):
    rel = rel_parts(ctx)
    if not rel.startswith("src/"):
        return
    for _, body_start, body_end in iter_hot_path_bodies(ctx.masked_lines):
        for idx in range(body_start, body_end + 1):
            line = ctx.masked_lines[idx]
            if NAKED_FIELD_RE.search(line):
                yield Violation(
                    "zero-alloc-hot-path", ctx.rel, idx + 1,
                    "naked Field construction inside a zero-allocation "
                    "hot-path body (*Into/*InPlace or perturbation sampler); "
                    "steady-state paths must reuse PropagationWorkspace, "
                    "ensureFieldShape, or member buffers (PR 4 "
                    "zero-allocation contract)")


PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\s*$")


def rule_include_guard(ctx):
    rel = rel_parts(ctx)
    ext = os.path.splitext(rel)[1]
    if ext not in HEADER_EXTENSIONS or not rel.startswith(
            ("src/", "tests/", "bench/")):
        return
    pragma_lines = [idx for idx, line in enumerate(ctx.masked_lines, start=1)
                    if PRAGMA_ONCE_RE.match(line)]
    if not pragma_lines:
        yield Violation(
            "include-guard", ctx.rel, 1,
            "header is missing '#pragma once' (repo convention; no "
            "ifndef-style guards)")
        return
    for idx in pragma_lines[1:]:
        yield Violation("include-guard", ctx.rel, idx,
                        "duplicate '#pragma once'")
    # The pragma must precede any code (comments/blank lines are fine).
    first = pragma_lines[0]
    for idx in range(first - 1):
        if ctx.masked_lines[idx].strip():
            yield Violation(
                "include-guard", ctx.rel, first,
                "'#pragma once' must precede all code in the header")
            break


RULES = [
    rule_serve_steady_clock,
    rule_banned_function,
    rule_deprecated_api,
    rule_zero_alloc_hot_path,
    rule_include_guard,
]

RULE_IDS = [
    "serve-steady-clock",
    "banned-function",
    "deprecated-api",
    "zero-alloc-hot-path",
    "include-guard",
]


def lint_file(path, rel):
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as err:
        raise RuntimeError(f"cannot read {path}: {err}") from err
    ctx = FileContext(path, rel, text)
    violations = []
    for rule in RULES:
        for v in rule(ctx):
            if not ctx.allowed(v.rule, v.line):
                violations.append(v)
    return violations


def collect_files(root, paths):
    files = []
    for p in paths:
        full = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(full):
            files.append(full)
            continue
        if not os.path.isdir(full):
            raise RuntimeError(f"no such file or directory: {p}")
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in SKIP_DIR_PARTS)
            for name in sorted(filenames):
                if os.path.splitext(name)[1] in C_EXTENSIONS:
                    files.append(os.path.join(dirpath, name))
    return files


def run(root, paths, json_path=None, out=sys.stdout):
    files = collect_files(root, paths)
    violations = []
    for path in files:
        rel = os.path.relpath(path, root)
        violations.extend(lint_file(path, rel))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    for v in violations:
        print(v, file=out)
    summary = {
        "files_checked": len(files),
        "violations": [v.as_dict() for v in violations],
        "counts": {
            rule: sum(1 for v in violations if v.rule == rule)
            for rule in RULE_IDS
        },
        "clean": not violations,
    }
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    print(f"lint: {len(files)} files checked, "
          f"{len(violations)} violation(s)", file=out)
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="LightRidge repo-invariant linter")
    parser.add_argument("paths", nargs="*", default=["src", "tests", "bench"],
                        help="files or directories to lint "
                             "(default: src tests bench)")
    parser.add_argument("--json", metavar="REPORT",
                        help="write a JSON report to this path")
    parser.add_argument("--root", default=None,
                        help="repo root (default: auto-detect from script)")
    args = parser.parse_args(argv)
    root = args.root or find_repo_root(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    paths = args.paths or ["src", "tests", "bench"]
    try:
        violations = run(root, paths, json_path=args.json)
    except RuntimeError as err:
        print(f"lint: error: {err}", file=sys.stderr)
        return 2
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
