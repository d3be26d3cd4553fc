"""Record the golden stdout digests of the fixed chain and doubling instances.

Run from the repository root at the commit whose outputs are the reference:

    python3 bench/record_golden.py

It rewrites bench/golden.json; the benchmark then fails any instance whose
stdout bytes differ from the recorded ones.
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile

import run


def main():
    golden = {}
    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=run.ROOT)
    try:
        for workload in ("chain-ks", "doubling-tight"):
            _, prog, pool = run.setup(workload, 0, workdir)
            for kind, (inst,) in sorted(pool.items()):
                code, out, err, _ = prog.run(inst.argv, inst.stdin)
                if code != 0:
                    sys.exit(f"{inst.golden} exited {code}: {err.strip()}")
                golden[inst.golden] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "golden.json"), "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
