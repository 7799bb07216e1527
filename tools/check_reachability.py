#!/usr/bin/env python3
"""Reachability gate: every function src/ defines must ship in a binary.

src/ is what ships. A function that no bench, example or perfbench binary
keeps is either dead API or a reference that only a test reaches, and the
second kind must say so. This script builds every shipped binary at -O0
with -ffunction-sections -fdata-sections and links it with
-Wl,--gc-sections, so the linker drops each function no path from main()
reaches (at -O2, inlining would hide callers). It then lists the fmbs::
functions defined in libfmbs.a that no binary keeps, and fails on any that
tools/reachability_allow.txt does not name.

    python3 tools/check_reachability.py                 # builds build-reach/
    python3 tools/check_reachability.py --build-dir DIR --jobs 4

The shipped binaries are the benches and examples of the main project
(bench_micro_dsp needs google-benchmark, so it must be installed) and
fmbs_perfbench, built from perfbench/ as its own CMake project.

Functions match on their mangled names, so template instances of std::
over fmbs:: types (std::__addressof<fmbs::core::FleetResult>, whose
demangled name merely mentions fmbs::) do not count; only names under
_ZN4fmbs and _ZNK4fmbs do.

The allow-list only shrinks: an entry whose function a binary now keeps, or
that the library no longer defines, is stale and fails the gate too. Each
entry is the demangled signature, then ` # ` and the test (or the reason)
that keeps it in src/.

Exit status: 0 clean, 1 unlisted unreachable functions or stale entries,
2 build failure.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW_FILE = ROOT / "tools" / "reachability_allow.txt"
FMBS_SYMBOL = re.compile(r"^_ZNK?4fmbs")
FLAGS = "-O0 -ffunction-sections -fdata-sections"
LINK_FLAGS = "-Wl,--gc-sections"


def run(cmd, **kwargs):
    result = subprocess.run(cmd, capture_output=True, text=True, check=False,
                            **kwargs)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:])
        sys.stderr.write(result.stderr[-4000:])
        sys.stderr.write(f"check_reachability: failed: {' '.join(cmd)}\n")
        sys.exit(2)
    return result.stdout


def build(source, build_dir, target, jobs):
    """Configures and builds one CMake project at the gate's flags."""
    run(["cmake", "-S", str(source), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=None",
         f"-DCMAKE_CXX_FLAGS={FLAGS}",
         f"-DCMAKE_EXE_LINKER_FLAGS={LINK_FLAGS}",
         "-DCMAKE_DISABLE_FIND_PACKAGE_GTest=ON"])
    run(["cmake", "--build", str(build_dir), "--target", target,
         f"-j{jobs}"])


def text_symbols(path):
    """Mangled fmbs:: functions defined in an object, archive or binary."""
    out = run(["nm", "--defined-only", "--format=posix", str(path)])
    names = set()
    for line in out.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[1] in "TtWw" and \
                FMBS_SYMBOL.match(fields[0]):
            names.add(fields[0])
    return names


def demangle(names):
    names = sorted(names)
    out = run(["c++filt"], input="\n".join(names))
    return dict(zip(names, out.splitlines()))


def read_allow_list():
    entries = {}
    problems = []
    for number, line in enumerate(ALLOW_FILE.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        name, sep, reason = line.rpartition(" # ")
        if not sep or not name.strip() or not reason.strip():
            problems.append(f"{ALLOW_FILE.name}:{number}: needs "
                            "'<signature> # <test that keeps it>'")
            continue
        entries[name.strip()] = reason.strip()
    return entries, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default=str(ROOT / "build-reach"),
                        help="scratch build tree (default: build-reach/)")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    args = parser.parse_args()
    build_root = Path(args.build_dir)

    main_dir = build_root / "main"
    perf_dir = build_root / "perfbench"
    build(ROOT, main_dir, "fmbs_benches", args.jobs)
    build(ROOT / "perfbench", perf_dir, "fmbs_perfbench", args.jobs)

    binaries = [main_dir / p.stem
                for d in ("bench", "examples")
                for p in sorted((ROOT / d).glob("*.cpp"))]
    binaries.append(perf_dir / "fmbs_perfbench")
    missing = [str(b) for b in binaries if not b.exists()]
    if missing:
        sys.stderr.write("check_reachability: not built (is google-benchmark "
                         "installed?): " + ", ".join(missing) + "\n")
        return 2

    defined = text_symbols(main_dir / "libfmbs.a")
    kept = set()
    for binary in binaries:
        kept |= text_symbols(binary)
    unreachable = set(demangle(defined - kept).values())

    allowed, problems = read_allow_list()
    unlisted = sorted(unreachable - allowed.keys())
    stale = sorted(allowed.keys() - unreachable)
    for name in unlisted:
        problems.append(f"unreachable from every shipped binary: {name}")
    for name in stale:
        problems.append(f"stale allow-list entry (reachable now, or gone): "
                        f"{name}")
    if problems:
        print("\n".join(problems))
        print(f"check_reachability: {len(unlisted)} unlisted, {len(stale)} "
              f"stale; delete the dead code, or list a test-only reference "
              f"in {ALLOW_FILE.relative_to(ROOT)}")
        return 1
    print(f"check_reachability: clean ({len(unreachable)} test-only "
          f"function(s) allowed, {len(binaries)} binaries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
