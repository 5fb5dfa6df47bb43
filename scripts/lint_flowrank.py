#!/usr/bin/env python3
"""flowrank repo-invariant linter.

Checks the invariants that keep flowrank's results bit-reproducible and
its failure taxonomy coherent -- the properties clang-tidy and the
compiler cannot see because they are project policy, not C++ rules:

 * no nondeterministic or implementation-defined randomness
   (std::random_device, rand()/srand(), std::*_distribution outside a
   per-file allowlist that only shrinks, wall-clock seeding) anywhere in
   src/flowrank/;
 * threads are created only by the exec layer (one concurrency
   substrate; everything else submits tasks);
 * errors leave the library as the flowrank::Error taxonomy, never as
   raw std::runtime_error;
 * all locking goes through the annotated util::Mutex wrappers so the
   clang -Wthread-safety build actually sees it;
 * iteration over unordered containers is either provably
   order-insensitive or sorted -- each such loop carries an
   `// unordered-ok: <reason>` comment, reviewed like a cast;
 * one erfc: the models call numeric::erfc, never the platform libm's
   (whose bits differ across platforms);
 * instruction-set dispatch in one place: target attributes, target
   pragmas and CPU feature tests appear only in the kernel files whose
   clones are held to the baseline's bits;
 * include hygiene (#pragma once, no <iostream> in headers, no
   `using namespace std`);
 * every file that declares a util::Mutex names what it guards
   (FR_GUARDED_BY / FR_REQUIRES present in the same file).

Scope: src/flowrank/ only. tests/ asserts distributional bands (its
std::*_distribution uses are statistical, not canonical-stream),
and bench/ keeps a deliberately-legacy baseline; both are out of scope.

Usage:
  lint_flowrank.py [--root DIR]     lint the real tree, exit 1 on findings
  lint_flowrank.py --self-test      run the fixture suite under
                                    tests/lint_fixtures/: every rule must
                                    fire on exactly its fixture, the clean
                                    fixtures and the real tree must pass.

Allowlists are per-directory (or per-file) path prefixes in ALLOWLIST
below; extending one is a reviewed change to this file, not a comment in
the offending code.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --- rule table -------------------------------------------------------------

# Banned-symbol rules: (rule id, compiled regex, human message). Matched
# against comment- and string-stripped source.
BANNED = [
    (
        "random-device",
        re.compile(r"std::random_device"),
        "std::random_device is nondeterministic; derive seeds with util::make_engine/mix_stream",
    ),
    (
        "rand-func",
        re.compile(r"\bs?rand\s*\("),
        "rand()/srand() use hidden global state; use util::Engine",
    ),
    (
        "std-distribution",
        re.compile(r"std::\w+_distribution\b"),
        "std::*_distribution streams are implementation-defined; build variates from engine bits "
        "(util::binomial_sample, util::unit_open_from_bits, ...)",
    ),
    (
        "wallclock-seed",
        re.compile(
            r"std::chrono::system_clock|std::chrono::high_resolution_clock"
            r"|\btime\s*\(\s*(?:nullptr|NULL|0)?\s*\)"
        ),
        "wall-clock values are nondeterministic; seeds come from specs, durations from steady_clock",
    ),
    (
        "raw-thread",
        re.compile(r"std::(?:thread|jthread|async)\b"),
        "threads are created only by the exec layer; submit tasks to exec::TaskPool instead",
    ),
    (
        "raw-runtime-error",
        re.compile(r"\bthrow\s+std::runtime_error"),
        "throw flowrank::Error with an ErrorCategory, not raw std::runtime_error",
    ),
    (
        "raw-sync",
        re.compile(
            r"std::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|shared_timed_mutex"
            r"|lock_guard|unique_lock|scoped_lock|condition_variable|condition_variable_any)\b"
        ),
        "use util::Mutex/MutexLock/CondVar so the thread-safety analysis sees the locking",
    ),
    (
        "using-namespace-std",
        re.compile(r"\busing\s+namespace\s+std\b"),
        "no using namespace std",
    ),
    (
        "raw-byte-cast",
        # Serialization must go through util/bytes.hpp's explicit
        # little-endian field helpers: reinterpret_cast / raw memcpy of
        # object bytes bakes host endianness and struct padding into wire
        # formats and checksums.
        re.compile(r"\breinterpret_cast\b|\b(?:std::)?memcpy\s*\(|__builtin_memcpy\b"),
        "raw byte casts make wire formats host-dependent; use util/bytes.hpp put_*/ByteReader "
        "(or std::bit_cast for scalar reinterpretation)",
    ),
    (
        "lgamma-signgam",
        # std::lgamma / bare lgamma( write the libm global `signgam`
        # (C99), racing across pool workers; lgamma_r( does not match.
        re.compile(r"std::lgamma\b|\blgamma\s*\("),
        "lgamma writes the global signgam (data race); use numeric::log_gamma/log_factorial "
        "(lgamma_r under the hood)",
    ),
    (
        "libm-erfc",
        # The models' results must not depend on the platform libm's erfc:
        # one in-repo erfc (numeric::erfc / numeric::erfc_scaled), whose
        # bits every compiler reproduces. numeric::erfc( does not match.
        re.compile(r"\bstd::erfc\b|(?<!numeric::)\berfc\s*\("),
        "libm erfc differs across platforms; use numeric::erfc or numeric::erfc_scaled",
    ),
    (
        "isa-dispatch",
        # Per-function instruction sets are compiled, dispatched and
        # tested for equal bits in the kernel files only (numeric::Isa).
        re.compile(
            r"\btarget_clones\b|__attribute__\s*\(\(\s*target\s*\(|\bgnu::target\s*\("
            r"|#\s*pragma\s+GCC\s+target\b|\b__builtin_cpu_supports\b"
        ),
        "instruction-set clones live in the kernel files (numeric/special.cpp, "
        "core/misranking.cpp), which build without contraction and whose clones a "
        "test holds to the baseline's bits; call their batch kernels instead",
    ),
]

# Path-prefix allowlists, relative to the repo root with forward slashes.
# A finding whose path starts with any listed prefix is suppressed.
ALLOWLIST = {
    # The exec layer IS the one place that may create threads.
    "raw-thread": ("src/flowrank/exec/",),
    # The Error taxonomy itself derives from std::runtime_error.
    "raw-runtime-error": ("src/flowrank/util/",),
    # The annotated wrappers wrap the raw primitives exactly once.
    "raw-sync": ("src/flowrank/util/sync.hpp",),
    # sync.hpp's own capability classes are the annotation vocabulary.
    "guarded-by-missing": ("src/flowrank/util/sync.hpp",),
    # special.cpp wraps lgamma_r exactly once (and documents why).
    "lgamma-signgam": ("src/flowrank/numeric/special.cpp",),
    # special.* declares and defines the one erfc.
    "libm-erfc": ("src/flowrank/numeric/special.",),
    # The kernel files, exactly: each builds with -ffp-contract=off, and
    # KernelDispatch / GaussianSpreadsMatchScalarOnEveryClone hold their
    # clones to the baseline's bits.
    "isa-dispatch": (
        "src/flowrank/numeric/special.cpp",
        "src/flowrank/core/misranking.cpp",
    ),
    # bytes.hpp IS the sanctioned byte layer: its stream read/write pair
    # holds the only reinterpret_casts, over byte spans it sized itself.
    "raw-byte-cast": ("src/flowrank/util/bytes.hpp",),
    # The files that still draw through a standard distribution, one by
    # one (ROADMAP item 1(c) shrinks this list; nothing may join it).
    "std-distribution": (
        "src/flowrank/trace/flow_trace_generator.cpp",
        "src/flowrank/trace/flow_churn.cpp",
        "src/flowrank/trace/fault_injection.cpp",
        "src/flowrank/dist/empirical.cpp",
        "src/flowrank/estimators/heavy_hitter_trackers.cpp",
        "src/flowrank/util/rng.hpp",
    ),
}

HEADER_SUFFIXES = (".hpp", ".h")
SOURCE_SUFFIXES = (".hpp", ".h", ".cpp", ".cc")

UNORDERED_TYPE_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b")
ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
RANGE_FOR_RE = re.compile(
    # `for (<decl> : <expr>)` where <expr> is a plain identifier or
    # identifier[index]; anything more complex (calls, members) is out of
    # reach for a textual linter and intentionally not matched.
    r"\bfor\s*\((?:[^();]|\([^()]*\))*?\s:\s*([A-Za-z_]\w*)\s*(\[[^\]\n]*\])?\s*\)"
)
UNORDERED_OK_RE = re.compile(r"//\s*unordered-ok:\s*\S")
MUTEX_DECL_RE = re.compile(r"\butil::Mutex\s+\w+")
GUARD_ANNOTATION_RE = re.compile(r"\bFR_(?:PT_)?GUARDED_BY|\bFR_REQUIRES")

# Concurrency hot-path layers where an un-padded std::atomic member is a
# false-sharing bug waiting to happen (two counters on one cache line turn
# independent producer/consumer traffic into ping-pong). Every atomic
# declared here must either sit on its own line with alignas(...) or carry
# a reviewed `// shared-cacheline-ok: <why>` comment (same line or the two
# above).
ATOMIC_SCOPES = ("src/flowrank/ingest/", "src/flowrank/exec/", "tests/lint_fixtures/")
ATOMIC_DECL_RE = re.compile(r"\bstd::atomic\s*<")
ALIGNAS_RE = re.compile(r"\balignas\s*\(")
CACHELINE_OK_RE = re.compile(r"//\s*shared-cacheline-ok:\s*\S")


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure
    so findings keep their line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "'" and i > 0 and (text[i - 1].isalnum() or text[i - 1] == "_"):
            # Digit separator (1'000'000, 0x5EDD'0001), not a char literal.
            out.append(" ")
            i += 1
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def skip_template_args(text: str, i: int) -> int:
    """Given i at a '<', returns the index just past the matching '>'."""
    depth = 0
    while i < len(text):
        if text[i] == "<":
            depth += 1
        elif text[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return i


def unordered_names(stripped: str) -> tuple[set, set]:
    """Returns (direct, element): variable names declared with an unordered
    container as the outermost type (direct -- iterating the name itself is
    unordered) or nested inside another container (element -- iterating
    name[i] is unordered)."""
    aliases = set()
    for m in ALIAS_RE.finditer(stripped):
        if UNORDERED_TYPE_RE.search(m.group(2)):
            aliases.add(m.group(1))
    alias_pat = (
        re.compile(r"\b(?:%s)\b" % "|".join(re.escape(a) for a in sorted(aliases)))
        if aliases
        else None
    )

    direct, element = set(), set()
    # Statements are delimited well enough by ; { } for declarations.
    for stmt in re.split(r"[;{}]", stripped):
        has_std = UNORDERED_TYPE_RE.search(stmt)
        has_alias = alias_pat.search(stmt) if alias_pat else None
        if not has_std and not has_alias:
            continue
        s = stmt.strip()
        # Strip declaration qualifiers so the outermost type leads.
        s = re.sub(r"^(?:(?:mutable|static|const|inline|constexpr|thread_local)\s+)+", "", s)
        is_direct = bool(
            UNORDERED_TYPE_RE.match(s) or (alias_pat and alias_pat.match(s))
        )
        # Find the declared name: skip the outermost type (with template
        # args), then take the next identifier.
        m = re.match(r"(?:std::)?[\w:]+", s)
        if not m:
            continue
        i = m.end()
        while i < len(s) and s[i].isspace():
            i += 1
        if i < len(s) and s[i] == "<":
            i = skip_template_args(s, i)
        rest = s[i:]
        name_m = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)", rest)
        if not name_m:
            continue
        name = name_m.group(1)
        (direct if is_direct else element).add(name)
    return direct, element


def sibling_headers(path: Path) -> list:
    """Headers that declare the members a .cpp iterates: same-stem .hpp/.h
    in the same directory."""
    if path.suffix not in (".cpp", ".cc"):
        return []
    return [
        p for suffix in HEADER_SUFFIXES if (p := path.with_suffix(suffix)).is_file()
    ]


def allowlisted(rule: str, rel: str) -> bool:
    return any(rel.startswith(prefix) for prefix in ALLOWLIST.get(rule, ()))


def lint_file(path: Path, root: Path) -> list:
    rel = path.relative_to(root).as_posix()
    raw = path.read_text(encoding="utf-8", errors="replace")
    stripped = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    findings = []

    def add(line: int, rule: str, message: str) -> None:
        if not allowlisted(rule, rel):
            findings.append(Finding(path.relative_to(root), line, rule, message))

    # Banned symbols.
    for rule, pattern, message in BANNED:
        for m in pattern.finditer(stripped):
            add(stripped.count("\n", 0, m.start()) + 1, rule, message)

    # Include hygiene.
    if path.suffix in HEADER_SUFFIXES:
        if "#pragma once" not in raw:
            add(1, "pragma-once", "header is missing #pragma once")
        for m in re.finditer(r"#\s*include\s*<iostream>", stripped):
            add(
                stripped.count("\n", 0, m.start()) + 1,
                "iostream-in-header",
                "<iostream> in a header drags in static init; use <iosfwd> or include in the .cpp",
            )

    # Unordered iteration without a reviewed unordered-ok comment.
    direct, element = unordered_names(stripped)
    for header in sibling_headers(path):
        hd, he = unordered_names(strip_comments_and_strings(header.read_text()))
        direct |= hd
        element |= he
    for m in RANGE_FOR_RE.finditer(stripped):
        name, subscript = m.group(1), m.group(2)
        unordered = name in direct if not subscript else (name in element or name in direct)
        if not unordered:
            continue
        line = stripped.count("\n", 0, m.start(1)) + 1
        context = raw_lines[max(0, line - 3) : line]  # the loop line and two above
        if any(UNORDERED_OK_RE.search(ln) for ln in context):
            continue
        add(
            line,
            "unordered-iter",
            f"range-for over unordered container '{name}': sort the output or mark the "
            "loop '// unordered-ok: <why order cannot matter>'",
        )

    # False-sharing guard: atomics in the concurrency hot-path layers must
    # be cache-line padded or explicitly waived.
    if any(rel.startswith(prefix) for prefix in ATOMIC_SCOPES):
        for m in ATOMIC_DECL_RE.finditer(stripped):
            line = stripped.count("\n", 0, m.start()) + 1
            stripped_line = stripped.splitlines()[line - 1]
            if ALIGNAS_RE.search(stripped_line):
                continue
            context = raw_lines[max(0, line - 3) : line]  # decl line and two above
            if any(CACHELINE_OK_RE.search(ln) for ln in context):
                continue
            add(
                line,
                "unpadded-atomic",
                "std::atomic member without alignas(...) padding shares cache lines "
                "with its neighbours; pad it or mark the line "
                "'// shared-cacheline-ok: <why false sharing cannot matter>'",
            )

    # Annotation presence: a util::Mutex must name what it guards.
    if MUTEX_DECL_RE.search(stripped) and not GUARD_ANNOTATION_RE.search(stripped):
        decl = MUTEX_DECL_RE.search(stripped)
        add(
            stripped.count("\n", 0, decl.start()) + 1,
            "guarded-by-missing",
            "file declares a util::Mutex but no FR_GUARDED_BY/FR_REQUIRES names what it protects",
        )

    return findings


def lint_tree(root: Path) -> list:
    src = root / "src" / "flowrank"
    files = sorted(p for p in src.rglob("*") if p.suffix in SOURCE_SUFFIXES)
    findings = []
    for path in files:
        findings.extend(lint_file(path, root))
    return findings


ALL_RULES = [rule for rule, _, _ in BANNED] + [
    "pragma-once",
    "iostream-in-header",
    "unordered-iter",
    "guarded-by-missing",
    "unpadded-atomic",
]


def self_test(root: Path) -> int:
    """Every rule must fire on exactly its fixture; clean fixtures and the
    real tree must come up empty."""
    fixtures = root / "tests" / "lint_fixtures"
    failures = []
    fired = set()
    for path in sorted(fixtures.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES:
            continue
        found = lint_file(path, root)
        rules = sorted({f.rule for f in found})
        stem = path.stem
        if stem.startswith("bad_"):
            expected = stem[len("bad_") :].replace("_", "-")
            if rules != [expected]:
                failures.append(
                    f"{path.name}: expected exactly [{expected}], got {rules or '[]'}"
                )
            fired.update(rules)
        elif stem.startswith("clean"):
            if found:
                failures.append(f"{path.name}: clean fixture tripped {rules}")
        else:
            failures.append(f"{path.name}: fixture names must start with bad_ or clean")

    for rule in ALL_RULES:
        if rule not in fired:
            failures.append(f"rule '{rule}' has no fixture that fires it")

    tree = lint_tree(root)
    for f in tree:
        failures.append(f"real tree not clean: {f}")

    if failures:
        print("lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(
        f"lint self-test passed: {len(ALL_RULES)} rules, each fired on its fixture; "
        "real tree clean"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    root = args.root.resolve()

    if args.self_test:
        return self_test(root)

    findings = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print(f"\n{len(findings)} lint finding(s)", file=sys.stderr)
        return 1
    print("lint clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
