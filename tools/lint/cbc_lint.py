#!/usr/bin/env python3
"""cbc-lint: project-specific static checks over the cbc source tree.

A small pure-Python pass (no compiler, no third-party packages) that
enforces repo invariants no general-purpose tool knows about. It reads
the C++ sources directly; when a compile_commands.json is supplied the
file set is taken from it, otherwise the tree is globbed.

Rules
-----
  L1 raw-mutex        std::mutex / std::lock_guard / std::unique_lock /
                      <mutex> / <condition_variable> outside
                      src/util/thread_annotations.h. Everything must go
                      through cbc::Mutex / cbc::LockGuard so the runtime
                      rank checks and Clang thread-safety capabilities
                      cover every lock in the tree.
  L2 wire-guard       a Reader constructed from wire bytes (an argument
                      containing `.bytes()`) must sit in a function that
                      catches SerdeError: untrusted frames are dropped
                      and counted, never allowed to tear down the
                      receive path. `// cbc-lint: disable=L2` marks the
                      sites whose guard is established by every caller.
  L3 loop-blocking    functions that hold the EventLoop capability
                      (declared CBC_REQUIRES(...capability()) or calling
                      assert_in_loop()) must not block: no sleeps, no
                      joins, no condition-variable waits. One stalled
                      handler would freeze every fd on the loop.
  L4 envelope-freeze  after Envelope::encode_section(writer, ...) the
                      writer may only be finished (take / take_shared).
                      Appending after the section would break layers
                      that splice section_bytes() verbatim.
  L5 metric-name      string literals registered with .counter() /
                      .gauge() / .histogram() must follow the dotted
                      lower_snake grammar that prometheus_name() maps
                      onto bench/cluster_metrics_baseline.prom keys,
                      and the family segment — the first segment of a
                      full dotted literal, or a string assigned to an
                      obs `prefix` — must be one of the registered
                      families in docs/OBSERVABILITY.md (udp, fault,
                      reliable, recovery, batch, osend, asend, check,
                      explorer, stack, kv, flight, clock, process,
                      replica). An off-catalog family mints
                      a cbc_<family>_* namespace no CI baseline gates.
  L6 number-parse     no std::sto* / ato* / strto* calls. They read a
                      prefix ("9100x" is 9100), wrap a sign ("-5" is
                      2^64-5) or accept "nan"; text from outside the
                      program goes through util/parse.h, whose parsers
                      take whole tokens in a range or throw. A site
                      whose input cannot be malformed carries
                      `// cbc-lint: disable=L6` and a reason, as L2.

Exit status: 0 when clean, 1 when any rule fires, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

RULES = ("L1", "L2", "L3", "L4", "L5", "L6")

# The one file allowed to name raw standard-library primitives: it wraps
# them behind the annotated capability types.
L1_EXEMPT = "thread_annotations.h"

L1_PATTERN = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(_any)?)\b"
)
L1_INCLUDE = re.compile(r'#\s*include\s*<(mutex|condition_variable|shared_mutex)>')

READER_CTOR = re.compile(r"\bReader\s+\w+\s*\(([^;]*?)\)\s*;")

LOOP_REQUIRES = re.compile(
    r"\b([A-Za-z_]\w*)\s*\([^;{()]*\)\s*(?:const\s*)?"
    r"CBC_REQUIRES\s*\([^)]*capability\s*\(\)"
)
BLOCKING_CALL = re.compile(
    r"std::this_thread::sleep_for|std::this_thread::sleep_until|"
    r"\.join\s*\(|\.wait\s*\(|\.wait_for\s*\(|\.wait_until\s*\(|"
    r"\busleep\s*\(|\bsystem\s*\(|\bstd::getchar\b"
)

ENCODE_SECTION = re.compile(r"Envelope::encode_section\s*\(\s*(\w+)")
WRITER_APPEND = re.compile(
    r"\.(u8|u16|u32|u64|i64|boolean|str|blob|bytes|u64_vec)\s*\("
)

METRIC_CALL = re.compile(r"\.(counter|gauge|histogram)\s*\(")
# Registered metric families (the docs/OBSERVABILITY.md catalog): the
# first segment of every full metric name. New families must land in the
# catalog table and bench/cluster_metrics_baseline.prom alongside.
METRIC_FAMILIES = frozenset({
    "udp", "fault", "reliable", "recovery", "batch", "osend", "asend",
    "check", "explorer", "kv", "flight", "clock", "process", "replica",
})
# An obs prefix assignment names a family for every series the instance
# registers (variables literally named `prefix`; `*_prefix` helpers for
# paths etc. don't match the word boundary).
PREFIX_ASSIGN = re.compile(r'\bprefix\s*=\s*"([^"]*)"')
# Dotted lower_snake segments; a leading/trailing dot is allowed for
# literals concatenated with a runtime prefix/suffix.
METRIC_LITERAL = re.compile(r"^\.?[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*\.?$")

NUMBER_PARSE = re.compile(
    r"\b(?:std::)?(sto(?:i|l|ul|ll|ull|f|d|ld)|ato(?:i|l|ll|f)|"
    r"strto(?:l|ll|ul|ull|f|d|ld|imax|umax))\s*\("
)

SUPPRESS = re.compile(r"cbc-lint:\s*disable=(L\d)")


class Finding:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def blank_comments_and_strings(text: str, keep_strings: bool = False) -> str:
    """Returns text of identical length/line structure with comments (and,
    unless keep_strings, string/char literal contents) spaced out."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = i
            while j < n and text[j] != "\n":
                out[j] = " "
                j += 1
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = i
            while j + 1 < n and not (text[j] == "*" and text[j + 1] == "/"):
                if text[j] != "\n":
                    out[j] = " "
                j += 1
            if j + 1 < n:
                out[j] = " "
                out[j + 1] = " "
                j += 2
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            if not keep_strings:
                for k in range(i + 1, min(j, n)):
                    if text[k] != "\n":
                        out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def suppressed(raw_lines: list[str], line: int, rule: str) -> bool:
    for candidate in (line, line - 1):
        if 1 <= candidate <= len(raw_lines):
            match = SUPPRESS.search(raw_lines[candidate - 1])
            if match and match.group(1) == rule:
                return True
    return False


def brace_pairs(code: str) -> list[tuple[int, int]]:
    """All matched {...} spans in comment/string-blanked code."""
    pairs, stack = [], []
    for i, c in enumerate(code):
        if c == "{":
            stack.append(i)
        elif c == "}" and stack:
            pairs.append((stack.pop(), i))
    return pairs


def is_type_or_namespace_block(code: str, start: int) -> bool:
    """True when the brace at `start` opens a namespace/class/struct/enum
    body (or an extern block) rather than a function body."""
    prefix = code[max(0, start - 300):start]
    prefix = re.sub(r"\s+", " ", prefix).strip()
    if re.search(r"\b(namespace)\s*(\w|::)*\s*$", prefix):
        return True
    if re.search(r'\bextern\s*"C"\s*$', prefix):
        return True
    # `class Foo : public Bar` / `struct Foo final` / `enum class E`
    # end in identifiers, never in `)` the way function signatures do.
    if re.search(r"\b(class|struct|union|enum)\b[^;(){}]*$", prefix):
        return True
    return False


def function_spans(code: str) -> list[tuple[int, int]]:
    """Outermost brace spans that look like function bodies: the widest
    non-namespace/non-type block. Lambdas and statement blocks inside a
    function are subsumed by their enclosing span."""
    pairs = sorted(brace_pairs(code))
    spans: list[tuple[int, int]] = []
    for start, end in pairs:
        if is_type_or_namespace_block(code, start):
            continue
        container = None
        for s, e in spans:
            if s < start and end < e:
                container = (s, e)
                break
        if container is None:
            # keep only the widest: drop any previously kept span nested
            # inside this one, unless this one is nested in a kept span
            spans = [(s, e) for (s, e) in spans if not (start < s and e < end)]
            spans.append((start, end))
    # A function body directly inside a class (inline method) is still a
    # function span; one inside another function span was dropped above.
    return sorted(spans)


def enclosing_function(spans: list[tuple[int, int]], pos: int):
    for s, e in spans:
        if s <= pos <= e:
            return (s, e)
    return None


class Linter:
    def __init__(self):
        self.findings: list[Finding] = []
        # method names annotated CBC_REQUIRES(...capability()...) in any
        # scanned header: their out-of-line definitions are loop-only.
        self.loop_methods: set[str] = set()

    # ---- pass 1: collect cross-file facts --------------------------------

    def collect(self, path: Path, text: str):
        code = blank_comments_and_strings(text)
        for match in LOOP_REQUIRES.finditer(code):
            self.loop_methods.add(match.group(1))

    # ---- pass 2: per-file rules ------------------------------------------

    def lint_file(self, path: Path, text: str, rules: set[str]):
        raw_lines = text.splitlines()
        code = blank_comments_and_strings(text)
        code_with_strings = blank_comments_and_strings(text, keep_strings=True)
        spans = function_spans(code)

        def add(rule: str, pos: int, message: str):
            line = line_of(text, pos)
            if rule in rules and not suppressed(raw_lines, line, rule):
                self.findings.append(Finding(rule, path, line, message))

        if path.name != L1_EXEMPT:
            for match in L1_PATTERN.finditer(code):
                add("L1", match.start(),
                    f"raw {match.group(0)} — use cbc::Mutex/cbc::LockGuard "
                    "from util/thread_annotations.h")
            for match in L1_INCLUDE.finditer(code):
                add("L1", match.start(),
                    f"include <{match.group(1)}> — util/thread_annotations.h "
                    "is the only file that may include it")

        for match in READER_CTOR.finditer(code):
            args = match.group(1).replace("->bytes()", ".bytes()")
            if ".bytes()" not in args:
                continue
            span = enclosing_function(spans, match.start())
            body = code[span[0]:span[1]] if span else code
            if "catch" in body and "SerdeError" in body:
                continue
            # Reading back a locally-built Writer's bytes is not wire
            # input: decoding what this very function encoded can't fail.
            local_writers = {w.group(1)
                             for w in re.finditer(r"\bWriter\s+(\w+)", body)}
            sources = {s.group(1)
                       for s in re.finditer(r"(\w+)\.bytes\(\)", args)}
            if sources and sources <= local_writers:
                continue
            add("L2", match.start(),
                "Reader over wire bytes without a SerdeError guard in the "
                "same function — drop and count malformed frames, don't "
                "let them tear down the receive path")

        loop_bodies: list[tuple[int, int]] = []
        for span in spans:
            body = code[span[0]:span[1]]
            head = code[max(0, span[0] - 300):span[0]]
            named_loop_method = any(
                re.search(rf"\b{re.escape(name)}\s*\([^;{{]*\)\s*(const\s*)?$",
                          re.sub(r"\s+", " ", head).strip()[-200:])
                for name in self.loop_methods)
            if "assert_in_loop" in body or named_loop_method or \
                    "capability()" in head:
                loop_bodies.append(span)
        for span in loop_bodies:
            for match in BLOCKING_CALL.finditer(code, span[0], span[1]):
                add("L3", match.start(),
                    f"blocking call {match.group(0).strip()} in a "
                    "loop-capability function — one stalled handler freezes "
                    "every fd on the loop")

        for match in ENCODE_SECTION.finditer(code):
            writer = match.group(1)
            span = enclosing_function(spans, match.start())
            end = span[1] if span else len(code)
            tail = code[match.end():end]
            for append in re.finditer(
                    rf"\b{re.escape(writer)}{WRITER_APPEND.pattern}", tail):
                add("L4", match.end() + append.start(),
                    f"{writer}.{append.group(1)}() after "
                    "Envelope::encode_section — the envelope section must "
                    "end the frame (section_bytes() is spliced verbatim)")

        for match in METRIC_CALL.finditer(code_with_strings):
            # first argument: up to the matching close paren or first comma
            depth, i = 1, match.end()
            while i < len(code_with_strings) and depth > 0:
                c = code_with_strings[i]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                elif c == "," and depth == 1:
                    break
                i += 1
            first_arg = code_with_strings[match.end():i]
            for literal in re.finditer(r'"([^"]*)"', first_arg):
                name = literal.group(1)
                if name and not METRIC_LITERAL.match(name):
                    add("L5", match.start(),
                        f'metric name literal "{name}" does not match the '
                        "dotted lower_snake grammar of "
                        "bench/cluster_metrics_baseline.prom")
                elif "." in name and not name.startswith("."):
                    # Full dotted name: its family must be on the catalog.
                    family = name.split(".", 1)[0]
                    if family not in METRIC_FAMILIES:
                        add("L5", match.start(),
                            f'metric family "{family}" (in "{name}") is not '
                            "in the docs/OBSERVABILITY.md catalog — register "
                            "the family there and in "
                            "bench/cluster_metrics_baseline.prom first")

        for match in NUMBER_PARSE.finditer(code):
            add("L6", match.start(),
                f"{match.group(1)}() reads a prefix, wraps a sign or takes "
                "nan — parse text from outside the program whole-token "
                "with util/parse.h (parse_uint / parse_probability)")

        for match in PREFIX_ASSIGN.finditer(code_with_strings):
            family = match.group(1)
            if family and family not in METRIC_FAMILIES:
                add("L5", match.start(),
                    f'obs prefix "{family}" is not a registered metric '
                    "family — every series it mints escapes the "
                    "docs/OBSERVABILITY.md catalog and the CI baselines")


def gather_files(root: Path, compile_commands: Path | None) -> list[Path]:
    if compile_commands:
        files: set[Path] = set()
        for entry in json.loads(compile_commands.read_text()):
            source = Path(entry["file"])
            if not source.is_absolute():
                source = Path(entry["directory"]) / source
            source = source.resolve()
            if root.resolve() in source.parents:
                files.add(source)
        # compile_commands lists .cpp units; headers ride along by glob.
        for header in root.rglob("*.h"):
            files.add(header.resolve())
        return sorted(files)
    return sorted(p for ext in ("*.h", "*.cpp", "*.cc")
                  for p in root.rglob(ext))


def run_lint(files: list[Path], rules: set[str]) -> list[Finding]:
    linter = Linter()
    texts = {}
    for path in files:
        try:
            texts[path] = path.read_text(errors="replace")
        except OSError as error:
            print(f"cbc-lint: cannot read {path}: {error}", file=sys.stderr)
            continue
    for path, text in texts.items():
        linter.collect(path, text)
    for path, text in sorted(texts.items()):
        linter.lint_file(path, text, rules)
    return linter.findings


def check_fixtures(fixture_dir: Path) -> int:
    """Every fixture l<N>_*.cc must trigger rule L<N> and nothing else."""
    failures = 0
    fixtures = sorted(fixture_dir.glob("l[0-9]_*.cc"))
    if not fixtures:
        print(f"cbc-lint: no fixtures found in {fixture_dir}", file=sys.stderr)
        return 1
    for fixture in fixtures:
        expected = fixture.name[:2].upper()  # l3_foo.cc -> L3
        findings = run_lint([fixture], set(RULES))
        fired = {f.rule for f in findings}
        if expected not in fired:
            print(f"FAIL {fixture.name}: expected {expected} to fire, "
                  f"got {sorted(fired) or 'nothing'}")
            failures += 1
        elif fired != {expected}:
            print(f"FAIL {fixture.name}: expected only {expected}, "
                  f"got {sorted(fired)}")
            for finding in findings:
                print(f"  {finding}")
            failures += 1
        else:
            print(f"ok   {fixture.name}: {expected} fired "
                  f"({len(findings)} finding(s))")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path("src"),
                        help="source tree to lint (default: src)")
    parser.add_argument("--compile-commands", type=Path, default=None,
                        help="optional compile_commands.json restricting "
                             "the translation-unit set")
    parser.add_argument("--rules", default=",".join(RULES),
                        help="comma-separated rule subset (default: all)")
    parser.add_argument("--check-fixtures", action="store_true",
                        help="verify each fixture triggers exactly its rule")
    args = parser.parse_args()

    if args.check_fixtures:
        return check_fixtures(Path(__file__).parent / "fixtures")

    rules = {r.strip().upper() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(RULES)
    if unknown:
        print(f"cbc-lint: unknown rules {sorted(unknown)}", file=sys.stderr)
        return 2
    if not args.root.is_dir():
        print(f"cbc-lint: no such directory {args.root}", file=sys.stderr)
        return 2

    findings = run_lint(gather_files(args.root, args.compile_commands), rules)
    for finding in findings:
        print(finding)
    summary = f"{len(findings)} finding(s)" if findings else "clean"
    print(f"cbc-lint: {summary} over {args.root} "
          f"(rules {','.join(sorted(rules))})")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
