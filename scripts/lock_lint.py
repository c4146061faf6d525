#!/usr/bin/env python3
"""Textual lock-discipline lint for the dcsn tree.

The Clang Thread Safety Analysis (the `analyze` CMake preset) is the
authoritative checker, but it only runs where a clang frontend exists. This
lint enforces the *textual* half of the discipline on any machine, so the
annotations cannot rot while the tree is built with GCC:

  R1  no raw std synchronization primitives (std::mutex, std::lock_guard,
      std::condition_variable, ...) anywhere in src/ outside
      util/thread_annotations.hpp — everything goes through the annotated
      util::Mutex / util::MutexLock / util::CondVar / util::SharedMutex
      wrappers.           waiver: // lock-lint: allow-std
  R2  every util::Mutex / util::SharedMutex member must be *referenced* by at
      least one DCSN_GUARDED_BY / DCSN_PT_GUARDED_BY / DCSN_REQUIRES /
      DCSN_ACQUIRE / DCSN_RELEASE annotation in the same file — a mutex that
      guards nothing is either dead or undocumented.
                          waiver: // lock-lint: standalone
  R3  every mutex named inside a DCSN_* annotation must be declared in the
      same file (catches typos the no-op GCC expansion would hide).
  R4  in a class/struct that owns a util::Mutex/SharedMutex member, every
      non-static, non-const, non-atomic, non-reference data member must be
      either DCSN_GUARDED_BY-annotated or carry an explicit waiver with a
      reason — this is what catches "added a field to a concurrent class and
      forgot to think about locking" without clang.
                          waiver: // lock-lint: unguarded(<reason>)
  R5  no direct .lock()/.unlock()/.try_lock()/.lock_shared() calls on mutex
      objects outside the wrapper header — RAII only.
                          waiver: // lock-lint: allow-direct-lock
  R6  no OpenMP in src/: no `#pragma omp` and no <omp.h>. Every thread
      comes from core::Runtime (Runtime::parallel / parallel_for for data-
      parallel loops); a second pool would fight it for the cores and hide
      its barriers from ThreadSanitizer.          no waiver

Waiver comments apply to the line they sit on or the line directly below
them. Exit status: 0 clean, 1 violations, 2 usage error.

  scripts/lock_lint.py [--root DIR]       lint DIR/src (default: repo root)
  scripts/lock_lint.py --self-test        run against tests/lint_fixtures
  scripts/lock_lint.py --lock-map         print the ARCHITECTURE.md lock map
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

STD_PRIMITIVES = re.compile(
    r"std::(mutex|timed_mutex|recursive_mutex|shared_mutex|shared_timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
    r"|#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>"
)
MUTEX_MEMBER = re.compile(
    r"^\s*(?:mutable\s+)?(?:util::)?(?:Mutex|SharedMutex)\s+(\w+)\s*;"
)
ANNOTATION_REF = re.compile(
    r"DCSN_(?:PT_)?GUARDED_BY\(([^)]+)\)"
    r"|DCSN_(?:REQUIRES|REQUIRES_SHARED|ACQUIRE|ACQUIRE_SHARED|RELEASE|"
    r"RELEASE_SHARED|TRY_ACQUIRE|EXCLUDES|ASSERT_CAPABILITY|"
    r"RETURN_CAPABILITY)\(([^)]*)\)"
)
DIRECT_LOCK = re.compile(
    r"\b(\w*[Mm]utex\w*(?:_|\b)|\w+\.mutex|\w+->mutex)\s*"
    r"\.\s*(?:lock|unlock|try_lock|lock_shared|unlock_shared)\s*\("
)
CLASS_DECL = re.compile(
    r"^\s*(?:class|struct)\s+(?:DCSN_\w+(?:\([^)]*\))?\s+)?((?:\w+::)*\w+)")
# A data-member declaration line, approximately: type name(s) terminated by
# ';' or '{...};' or '= ...;' at class scope. Functions are excluded by the
# trailing-paren check below.
MEMBER_DECL = re.compile(
    r"^(?:mutable\s+)?(?!using\b|typedef\b|friend\b|static\b|return\b|"
    r"public\b|private\b|protected\b|template\b|explicit\b|virtual\b|"
    r"case\b|if\b|for\b|while\b|else\b|enum\b|class\b|struct\b|namespace\b)"
    r"(?P<type>(?:const\s+)?[\w:<>,()*&\s]+?)\s+"
    r"(?P<name>\w+_?)\s*(?P<anno>DCSN_(?:PT_)?GUARDED_BY\([^)]*\))?\s*"
    r"(?:=\s*[^;]*|\{[^}]*\})?\s*;"
)
OPENMP = re.compile(r"^\s*#\s*pragma\s+omp\b|#\s*include\s*[<\"]omp\.h[>\"]")
WAIVER = re.compile(r"//\s*lock-lint:\s*(allow-std|standalone|allow-direct-lock|unguarded\([^)]*\))")


def load(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def has_waiver(lines: list[str], idx: int, kind: str) -> bool:
    """A waiver covers its own line and the line directly below it."""
    for j in (idx, idx - 1):
        if 0 <= j < len(lines):
            m = WAIVER.search(lines[j])
            if m and m.group(1).startswith(kind):
                return True
    return False


def strip_comments(line: str) -> str:
    return line.split("//", 1)[0]


def match_member(code: str):
    """MEMBER_DECL against the lstripped line (avoids ^\s* backtracking
    defeating the keyword lookahead). Rejects continuation lines of
    multi-line function declarations: their tail (`... spots) const;`) can
    satisfy the regex with an unbalanced type and a keyword for a name."""
    m = MEMBER_DECL.match(code.lstrip())
    if not m:
        return None
    if m.group("type").count("(") != m.group("type").count(")"):
        return None
    if m.group("name") in {"const", "noexcept", "override", "final", "default", "delete"}:
        return None
    return m


class Violation:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule, self.path, self.line, self.message = rule, path, line, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def annotation_refs(lines: list[str]) -> set[str]:
    """Every mutex name referenced by any DCSN_* annotation in the file."""
    refs: set[str] = set()
    for line in lines:
        for m in ANNOTATION_REF.finditer(line):
            arg = m.group(1) or m.group(2) or ""
            for token in re.split(r"[,\s]+", arg):
                token = token.strip()
                if token:
                    refs.add(token.split("->")[-1].split(".")[-1].lstrip("&*"))
    return refs


def class_spans(lines: list[str]) -> list[tuple[str, int, int]]:
    """(name, first_line, last_line) for each top-nesting class/struct body.

    Brace counting over comment-stripped lines; good enough for this
    codebase's formatting (clang-format keeps declarations one per line).
    """
    spans = []
    i = 0
    while i < len(lines):
        stripped = strip_comments(lines[i])
        m = CLASS_DECL.match(stripped)
        if m and ";" not in stripped.split("{")[0]:
            name = m.group(1)
            depth = 0
            opened = False
            j = i
            while j < len(lines):
                for ch in strip_comments(lines[j]):
                    if ch == "{":
                        depth += 1
                        opened = True
                    elif ch == "}":
                        depth -= 1
                if opened and depth <= 0:
                    break
                j += 1
            if opened:
                spans.append((name, i, j))
            i = i + 1
        else:
            i += 1
    return spans


def member_lines_of_class(lines: list[str], begin: int, end: int) -> list[int]:
    """Line indices of class-scope member declarations (depth == 1 only)."""
    result = []
    depth = 0
    for idx in range(begin, min(end + 1, len(lines))):
        code = strip_comments(lines[idx])
        entering = depth
        for ch in code:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
        if entering == 1 and depth == 1:
            result.append(idx)
    return result


def check_file(path: Path, wrapper_header: str) -> list[Violation]:
    lines = load(path)
    violations: list[Violation] = []
    is_wrapper = path.as_posix().endswith(wrapper_header)

    declared_mutexes: dict[str, int] = {}
    for idx, line in enumerate(lines):
        code = strip_comments(line)
        m = MUTEX_MEMBER.match(code)
        if m:
            declared_mutexes[m.group(1)] = idx

    # Annotations in a .cpp may name mutex members declared in the paired
    # header (DCSN_REQUIRES lambdas over class members).
    known_mutexes = set(declared_mutexes)
    if path.suffix == ".cpp":
        sibling = path.with_suffix(".hpp")
        if sibling.exists():
            for line in load(sibling):
                m = MUTEX_MEMBER.match(strip_comments(line))
                if m:
                    known_mutexes.add(m.group(1))

    refs = annotation_refs(lines)

    for idx, line in enumerate(lines):
        code = strip_comments(line)

        # R1: raw std primitives.
        if not is_wrapper and STD_PRIMITIVES.search(code):
            if not has_waiver(lines, idx, "allow-std"):
                violations.append(Violation(
                    "R1", path, idx + 1,
                    "raw std synchronization primitive — use util::Mutex / "
                    "util::MutexLock / util::CondVar (waiver: lock-lint: allow-std)"))

        # R6: OpenMP.
        if OPENMP.search(code):
            violations.append(Violation(
                "R6", path, idx + 1,
                "OpenMP in src/ — every thread comes from core::Runtime "
                "(use Runtime::parallel / parallel_for)"))

        # R5: direct lock()/unlock() calls.
        if not is_wrapper and DIRECT_LOCK.search(code):
            if not has_waiver(lines, idx, "allow-direct-lock"):
                violations.append(Violation(
                    "R5", path, idx + 1,
                    "direct lock()/unlock() on a mutex — use a scoped "
                    "util::MutexLock (waiver: lock-lint: allow-direct-lock)"))

    # R2: every declared mutex must be referenced by an annotation.
    for name, idx in declared_mutexes.items():
        if name not in refs and not has_waiver(lines, idx, "standalone"):
            violations.append(Violation(
                "R2", path, idx + 1,
                f"mutex '{name}' guards nothing: no DCSN_GUARDED_BY/REQUIRES "
                "references it (waiver: lock-lint: standalone)"))

    # R3: every annotated mutex name must be declared in this file or its
    # paired header. The wrapper header is exempt: its DCSN_* *definitions*
    # and constructor parameters legitimately use placeholder names.
    if not is_wrapper:
        for idx, line in enumerate(lines):
            for m in ANNOTATION_REF.finditer(strip_comments(line)):
                arg = (m.group(1) or m.group(2) or "").strip()
                for token in re.split(r"[,\s]+", arg):
                    token = token.split("->")[-1].split(".")[-1].lstrip("&*").strip()
                    if token and token not in known_mutexes and not re.match(r"^(true|false|\d)", token):
                        violations.append(Violation(
                            "R3", path, idx + 1,
                            f"annotation names '{token}', which is not a mutex "
                            "declared in this file or its header (typo?)"))

    # R4: unannotated members of mutex-owning classes.
    if declared_mutexes:
        for cls, begin, end in class_spans(lines):
            direct = set(member_lines_of_class(lines, begin, end))
            span_mutexes = {n for n, i in declared_mutexes.items()
                            if begin <= i <= end and i in direct}
            if not span_mutexes:
                continue
            for idx in sorted(direct):
                code = strip_comments(lines[idx])
                m = match_member(code)
                if not m:
                    continue
                mtype = " ".join(m.group("type").split())
                name = m.group("name")
                if name in declared_mutexes:
                    continue
                if "(" in code.split(";")[0] and "DCSN_" not in code:
                    continue  # function declaration, not a member
                if mtype.startswith("const ") or "std::atomic" in mtype:
                    continue
                if "CondVar" in mtype or "condition_variable" in mtype:
                    continue
                if "&" in mtype:
                    continue  # reference members: bound at construction
                if m.group("anno"):
                    continue
                if re.search(r"DCSN_(?:PT_)?GUARDED_BY", code):
                    continue
                if has_waiver(lines, idx, "unguarded"):
                    continue
                violations.append(Violation(
                    "R4", path, idx + 1,
                    f"member '{cls}::{name}' lives in a mutex-owning class but "
                    "is neither DCSN_GUARDED_BY-annotated nor waived "
                    "(waiver: lock-lint: unguarded(<reason>))"))
    return violations


def lint_tree(root: Path, wrapper_header: str = "util/thread_annotations.hpp") -> list[Violation]:
    src = root / "src"
    files = sorted(list(src.rglob("*.hpp")) + list(src.rglob("*.cpp")))
    violations: list[Violation] = []
    for path in files:
        violations.extend(check_file(path, wrapper_header))
    return violations


# ---------------------------------------------------------------------------
# Lock map: the ARCHITECTURE.md table, generated from the annotations.

def lock_map(root: Path) -> str:
    rows = []
    src = root / "src"
    for path in sorted(list(src.rglob("*.hpp")) + list(src.rglob("*.cpp"))):
        lines = load(path)
        spans = class_spans(lines)

        def owner_of(idx: int) -> str:
            best = "—"
            for cls, begin, end in spans:
                if begin <= idx <= end:
                    best = cls  # innermost span wins (spans nest in order)
            return best

        mutexes: dict[str, tuple[int, str]] = {}
        for idx, line in enumerate(lines):
            m = MUTEX_MEMBER.match(strip_comments(line))
            if m:
                kind = "shared" if "SharedMutex" in line else "exclusive"
                mutexes[m.group(1)] = (idx, kind)
        if not mutexes:
            continue
        guarded: dict[str, list[str]] = {n: [] for n in mutexes}
        for idx, line in enumerate(lines):
            code = strip_comments(lines[idx])
            # The member name directly precedes its annotation, even when the
            # type wrapped onto the previous line (match_member would miss
            # those continuations).
            gm = re.search(r"(\w+)\s+DCSN_(?:PT_)?GUARDED_BY\((\w+)\)", code)
            if gm and gm.group(2) in guarded:
                guarded[gm.group(2)].append(gm.group(1))
        rel = path.relative_to(root)
        for name, (idx, kind) in mutexes.items():
            members = ", ".join(f"`{g}`" for g in guarded[name]) or "*(see annotations)*"
            rows.append(f"| `{rel}` | {owner_of(idx)} | `{name}` ({kind}) | {members} |")
    header = (
        "| File | Owner | Mutex | Guards |\n"
        "|------|-------|-------|--------|\n")
    return header + "\n".join(rows)


# ---------------------------------------------------------------------------
# Self-test against the checked-in fixtures.

def self_test(root: Path) -> int:
    fixtures = root / "tests" / "lint_fixtures"
    good = lint_tree(fixtures / "good_tree")
    bad = lint_tree(fixtures / "bad_tree")
    ok = True
    if good:
        ok = False
        print("lock_lint self-test FAILED: good_tree should be clean, got:")
        for v in good:
            print(f"  {v}")
    expected = {"R1", "R2", "R3", "R4", "R5", "R6"}
    seen = {v.rule for v in bad}
    if seen != expected:
        ok = False
        print(f"lock_lint self-test FAILED: bad_tree should trip {sorted(expected)}, "
              f"tripped {sorted(seen)}:")
        for v in bad:
            print(f"  {v}")
    print(f"lock_lint self-test: {'PASS' if ok else 'FAIL'} "
          f"(good_tree: {len(good)} violations, bad_tree rules: {sorted(seen)})")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO,
                        help="tree to lint (expects <root>/src)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the checked-in fixture trees instead")
    parser.add_argument("--lock-map", action="store_true",
                        help="emit the markdown lock-map table and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test(REPO)
    if args.lock_map:
        print(lock_map(args.root))
        return 0

    violations = lint_tree(args.root)
    for v in violations:
        print(v)
    if violations:
        print(f"lock_lint: {len(violations)} violation(s)")
        return 1
    print("lock_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
