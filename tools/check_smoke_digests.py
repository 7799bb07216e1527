#!/usr/bin/env python3
"""Smoke-digest gate: the repository benchmark's self-test must decode the
same bits as the committed record.

`perfbench/run.py --smoke` prints one decoded-results digest per workload
(city_stream's decoded links, the fleets' delivered counts, sweep_fig08's
BER grid). This script runs that self-test, or reads its saved output, and
compares every digest with tests/golden/perfbench_smoke_digests.json. A
refactor that changes a single decoded bit anywhere on those paths fails
here, even when every physics check still passes.

    python3 tools/check_smoke_digests.py            # run the self-test
    python3 tools/check_smoke_digests.py --log F    # read saved run.py stdout
    python3 tools/check_smoke_digests.py --update   # rewrite the record

Run it from the repository root. Rewrite the record (`--update`) only in a
commit that changes decoded results on purpose, such as an RNG swap under
the golden-regeneration protocol, and say so in that commit.
"""

import argparse
import json
import os
import re
import subprocess
import sys

RECORD = os.path.join("tests", "golden", "perfbench_smoke_digests.json")
SMOKE = ["perfbench/run.py", "--workload", "all", "--seed", "1",
         "--seconds", "1", "--smoke"]
HEADER = re.compile(r"^== (\S+)\s+seed")
DIGEST = re.compile(r"digest \(informational\): ([0-9a-f]+)\s*$")


def parse_digests(text):
    """Maps each workload header in run.py's stdout to the digest its notes
    report. Raises on a workload with no digest or more than one."""
    digests = {}
    workload = None
    for line in text.splitlines():
        header = HEADER.match(line)
        if header:
            workload = header.group(1)
            continue
        found = DIGEST.search(line)
        if found and workload is not None:
            if workload in digests:
                raise SystemExit("check_smoke_digests: %s reports two digests"
                                 % workload)
            digests[workload] = found.group(1)
    return digests


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--log", help="saved stdout of the smoke run")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed record from this run")
    args = parser.parse_args()

    if args.log:
        with open(args.log) as f:
            text = f.read()
    else:
        done = subprocess.run([sys.executable] + SMOKE, stdout=subprocess.PIPE,
                              text=True)
        text = done.stdout
        if done.returncode != 0:
            sys.stdout.write(text)
            raise SystemExit("check_smoke_digests: the smoke run failed")
    got = parse_digests(text)
    if not got:
        raise SystemExit("check_smoke_digests: no digests in the smoke output")

    if args.update:
        with open(RECORD, "w") as f:
            json.dump({"command": "python3 " + " ".join(SMOKE),
                       "digests": dict(sorted(got.items()))}, f, indent=2)
            f.write("\n")
        print("check_smoke_digests: wrote %d digests to %s" % (len(got), RECORD))
        return 0

    with open(RECORD) as f:
        want = json.load(f)["digests"]
    failed = False
    for workload in sorted(set(want) | set(got)):
        w = want.get(workload, "<none>")
        g = got.get(workload, "<none>")
        status = "ok" if w == g else "CHANGED"
        failed |= w != g
        print("%-16s %-8s recorded %s, got %s" % (workload, status, w, g))
    if failed:
        print("check_smoke_digests: decoded results differ from %s" % RECORD)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
