#!/usr/bin/env python3
"""Determinism lint: enforce the repo's reproducibility invariants.

The engine's headline guarantee is that sweeps and scenario renders are
bit-identical at any thread count. That only holds if every source of
randomness is derived from (base_seed, grid_index) via core::derive_seed and
nothing consults wall clocks, hardware entropy, or unordered iteration order
in a result-producing path. This lint makes those invariants mechanical:

  rule id            what it rejects                              where
  ----------------   ------------------------------------------   ------------
  raw-rand           std::rand / rand() / srand()                 everywhere
  hardware-entropy   std::random_device                           everywhere
  wall-clock-seed    time(...) / system_clock / high_resolution   everywhere
                     (steady_clock is allowed in bench/ and
                     examples/ for *measuring* elapsed time —
                     never as a seed)
  underived-seed     an RNG engine or core::NormalStream          src/ bench/
                     constructed with a numeric literal seed, or    examples/
                     an engine default-constructed (tests pin
                     literal seeds deliberately, so they are
                     exempt from this rule only)
  unordered-iter     range-for over a std::unordered_map/set      everywhere
                     declared in the same file (iteration order
                     is implementation-defined; sort first or
                     use an ordered container in result paths)

Escape hatches, both of which require a written justification:

  * an inline trailing comment on the flagged line:
        ... // fmbs-lint: allow(<rule-id>) <justification>
  * WHITELISTED_FILES below: the single sanctioned entry point for a rule,
    with the reason recorded next to it.

`--self-test` runs the lint over tools/lint_fixtures/ and verifies every
fixture produces exactly the violations its `// expect: <rule-id>` comments
declare — proving each violation class still fails, and that clean code
still passes.

Exit status: 0 clean, 1 violations found (or self-test mismatch).
"""

import argparse
import re
import sys
from pathlib import Path

# The allow()/expect: comment grammar and the fixture runner are shared with
# every other lint in tools/ (see lint_common.py) so the escape-hatch and
# self-test conventions stay identical across lints.
sys.path.insert(0, str(Path(__file__).resolve().parent))
import lint_common

# Directories scanned relative to the repo root, and which get the
# underived-seed rule (tests are exempt: a pinned literal seed is the whole
# point of a regression test, and test literals never reach library results).
SCAN_DIRS = ["src", "tests", "bench", "examples"]
UNDERIVED_SEED_DIRS = ["src", "bench", "examples"]
# steady_clock is legitimate for measuring elapsed wall time in benches and
# examples; it must never appear in src/ or tests/ where it could leak into
# results or seeds.
TIMING_OK_DIRS = ["bench", "examples"]

SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}

# The single sanctioned entry point per rule, if any. Nothing is whitelisted
# today: core/rng.h derives seeds arithmetically and needs no entropy source.
# Add entries as ("relative/path", "rule-id"): "justification".
WHITELISTED_FILES = {}

ALLOW_RE = lint_common.ALLOW_RE
EXPECT_RE = lint_common.EXPECT_RE

# ---- Rule implementations ---------------------------------------------------

RAW_RAND_RE = re.compile(r"(?<![\w:])(std::)?(s?rand)\s*\(")
HARDWARE_ENTROPY_RE = re.compile(r"(?<![\w:])(std::)?random_device\b")
WALL_CLOCK_RE = re.compile(
    r"(?<![\w:])(std::)?time\s*\(\s*(NULL|nullptr|0|&)"
    r"|system_clock\b"
    r"|high_resolution_clock\b"
)
STEADY_CLOCK_RE = re.compile(r"steady_clock\b")
# core::NormalStream owns an mt19937_64 and takes its seed as the first
# argument, so it is held to the same rule.
RNG_CTOR_RE = re.compile(
    r"\b(?:std::)?(mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux\d+(?:_base)?|knuth_b|NormalStream)\s+\w+\s*[({]\s*([^)}]*)\s*[)}]"
)
# Member declarations (trailing-underscore names, per the codebase's style)
# are exempt: they are seeded in a constructor initializer list, where the
# ctor-argument rule in the owning .cpp applies.
RNG_DEFAULT_CTOR_RE = re.compile(
    r"\b(?:std::)?(mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux\d+(?:_base)?|knuth_b)\s+\w*[^_\s]\s*;"
)
NUMERIC_LITERAL_RE = re.compile(r"^(0[xX][0-9a-fA-F']+|[0-9][0-9']*)([uUlL]*)$")
UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(\w+)")


strip_line_comment = lint_common.strip_line_comment


def lint_file(path, rel, text):
    """Returns a list of (line_number, rule_id, message) violations."""
    top_dir = rel.parts[0] if rel.parts else ""
    check_underived = top_dir in UNDERIVED_SEED_DIRS
    timing_ok = top_dir in TIMING_OK_DIRS

    lines = text.splitlines()
    # Collect names declared as unordered containers anywhere in the file so
    # range-for statements over them can be flagged.
    unordered_names = set()
    for raw in lines:
        for m in UNORDERED_DECL_RE.finditer(strip_line_comment(raw)):
            unordered_names.add(m.group(1))
    unordered_iter_re = None
    if unordered_names:
        unordered_iter_re = re.compile(
            r"for\s*\(.*:\s*(?:\w+\.)?(" + "|".join(map(re.escape, unordered_names)) + r")\b"
        )

    violations = []

    def flag(lineno, rule, message):
        raw = lines[lineno - 1]
        allow = ALLOW_RE.search(raw)
        if allow and allow.group(1) == rule:
            if not allow.group(2):
                violations.append(
                    (lineno, rule, "allow() requires a justification after the rule id")
                )
            return
        if WHITELISTED_FILES.get((str(rel), rule)):
            return
        violations.append((lineno, rule, message))

    for lineno, raw in enumerate(lines, start=1):
        code = strip_line_comment(raw)
        if RAW_RAND_RE.search(code):
            flag(lineno, "raw-rand",
                 "std::rand/srand is global-state, non-reentrant randomness; "
                 "use std::mt19937_64 seeded via core::derive_seed")
        if HARDWARE_ENTROPY_RE.search(code):
            flag(lineno, "hardware-entropy",
                 "std::random_device breaks run-to-run reproducibility; "
                 "derive seeds from the experiment's base seed instead")
        if WALL_CLOCK_RE.search(code):
            flag(lineno, "wall-clock-seed",
                 "wall-clock time in simulation code makes results depend on "
                 "when they ran; seeds must come from core::derive_seed")
        if not timing_ok and STEADY_CLOCK_RE.search(code):
            flag(lineno, "wall-clock-seed",
                 "steady_clock is only sanctioned in bench/ and examples/ for "
                 "measuring elapsed time, never in src/ or tests/")
        if check_underived:
            for m in RNG_CTOR_RE.finditer(code):
                arg = m.group(2).split(",")[0].strip()
                if arg == "" or NUMERIC_LITERAL_RE.match(arg):
                    flag(lineno, "underived-seed",
                         f"RNG engine seeded with '{arg or '<default>'}' — library "
                         "code must seed from a caller-provided seed routed "
                         "through core::derive_seed, never a baked-in literal")
            if RNG_DEFAULT_CTOR_RE.search(code):
                flag(lineno, "underived-seed",
                     "default-constructed RNG engine uses the shared default "
                     "seed; route an explicit core::derive_seed value instead")
        if unordered_iter_re and unordered_iter_re.search(code):
            flag(lineno, "unordered-iter",
                 "iterating an unordered container: visitation order is "
                 "implementation-defined and can leak into results; sort "
                 "keys first or use an ordered container")

    return violations


def scan_tree(root):
    all_violations = []
    for scan_dir in SCAN_DIRS:
        base = root / scan_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            rel = path.relative_to(root)
            text = path.read_text(encoding="utf-8", errors="replace")
            for lineno, rule, message in lint_file(path, rel, text):
                all_violations.append((rel, lineno, rule, message))
    return all_violations


def self_test(root):
    """Checks each fixture yields exactly its declared `// expect:` rules."""

    def lint_fixture(path, text):
        # Fixtures emulate library code: scan them as if they lived in src/
        # so every rule (including underived-seed) is active.
        rel = Path("src") / path.name
        return [rule for (_, rule, _) in lint_file(path, rel, text)]

    fixture_dir = root / "tools" / "lint_fixtures"
    return lint_common.run_fixture_self_test(
        fixture_dir.glob("*.cpp"), lint_fixture, "determinism-lint")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the lint rejects each fixture violation class")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.root)

    violations = scan_tree(args.root)
    for rel, lineno, rule, message in violations:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if violations:
        print(f"\n{len(violations)} determinism violation(s). Either fix them or, "
              "if genuinely sanctioned, add '// fmbs-lint: allow(<rule>) <why>'.",
              file=sys.stderr)
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
