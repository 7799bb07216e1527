#!/usr/bin/env python3
"""No-FMA gate: the library must contain no fused multiply-add instruction.

The SIMD kernels in src/dsp/simd.h promise output that is bit-identical to
the scalar loops, and that promise rests on every multiply and add rounding
separately. A fused multiply-add rounds once, so one `-march=native`, one
`target("fma")` or one `-mfma` would change results without failing a build.
This script disassembles the static library with `objdump -d` and fails on
any vfmadd*, vfmsub*, vfnmadd* or vfnmsub* instruction, naming the function
that holds it.

    python3 tools/check_no_fma.py                   # build/libfmbs.a
    python3 tools/check_no_fma.py path/to/libfmbs.a

The build also passes -ffp-contract=off (CMakeLists.txt). ISO mode alone
(CMAKE_CXX_EXTENSIONS OFF, -std=c++20) does not do it: GCC's C++ front end
keeps -ffp-contract=fast there and fuses a * b + c wherever FMA is enabled.
The flag guards the compiled C++; this scan guards everything, intrinsics
and per-function targets included.
"""

import argparse
import re
import subprocess
import sys

FMA = re.compile(r"\bv(?:fn?madd|fn?msub)\w*")
FUNCTION = re.compile(r"^[0-9a-f]+ <(.+)>:$")
MEMBER = re.compile(r"^In archive .*?:$|^(\S+\.o):\s+file format")


def find_fma(disassembly):
    """Returns (object, function, instruction line) for every fused
    multiply-add in objdump -d output."""
    found = []
    member = function = None
    for line in disassembly.splitlines():
        header = MEMBER.match(line)
        if header:
            member = header.group(1) or member
            continue
        start = FUNCTION.match(line)
        if start:
            function = start.group(1)
            continue
        if FMA.search(line):
            found.append((member, function, line.strip()))
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("library", nargs="?", default="build/libfmbs.a",
                        help="static library to disassemble")
    args = parser.parse_args()
    result = subprocess.run(["objdump", "-d", "--no-show-raw-insn",
                             args.library],
                            capture_output=True, text=True, check=False)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise SystemExit("check_no_fma: objdump failed on %s" % args.library)
    found = find_fma(result.stdout)
    for member, function, line in found:
        print("%s: %s: %s" % (member, function, line))
    if found:
        raise SystemExit("check_no_fma: %d fused multiply-add instruction(s) "
                         "in %s" % (len(found), args.library))
    print("check_no_fma: no fused multiply-add in %s" % args.library)


if __name__ == "__main__":
    main()
