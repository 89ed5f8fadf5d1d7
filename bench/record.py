"""Record the reference stdout digest of every command any seed can run.

    python3 bench/record.py

Runs each distinct command of every workload variant once, untraced, and
writes bench/reference.json.  Only re-record when the CLI output is meant
to change; its output is contractually byte-identical.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import run
import workloads


def main() -> int:
    os.makedirs(run.TMP, exist_ok=True)
    runner = run.Runner({}, time.monotonic() + 24 * 3600)
    keys = {}
    for workload, make in sorted(workloads.VARIANTS.items()):
        for i in range(workloads.WINDOW):
            for args in make(i):
                keys.setdefault(workloads.command_key(args), args)
    digests = {}
    for key, args in sorted(keys.items()):
        code, out, _, wall = runner._spawn([sys.executable, "-c", run.ENTRY, *args])
        if code != 0:
            print(f"{key}: exit {code}", file=sys.stderr)
            return 1
        digests[key] = hashlib.sha256(out).hexdigest()
        print(f"{wall:6.2f}s  {key}", flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as f:
        json.dump({"src_sha256": run._src_sha256(), "digests": digests}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
