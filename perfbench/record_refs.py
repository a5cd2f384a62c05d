#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's checks compare against.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record_refs.py

Runs each workload's units for the unit seeds 0 .. count-1 (untimed) and
writes ``references.json``: the residual lists of each ``verify_study``
report, the SHA-256 of each ``sim_io`` NCP1 file and the ``moi_path``
sup_norm.  Re-record only when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

COUNTS = {"verify_study": 40, "sim_io": 300, "moi_path": 300}


def main() -> int:
    out = {"commit": run.git_commit(ROOT), "rtol": workloads.REF_RTOL,
           "workloads": {}}
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="refs-", dir=run.OUT)
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(workdir)
            wl.setup()
            refs = {}
            for u in range(COUNTS[name]):
                inp = wl.inputs(u, 0)
                res = wl.run(inp)
                verdict = wl.check(inp, res, {})
                if verdict.problems:
                    sys.exit(f"{name} seed {u}: {verdict.problems}")
                refs[str(u)] = wl.reference(inp, res)
            out["workloads"][name] = refs
            print(f"{name}: {len(refs)} unit seeds", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
