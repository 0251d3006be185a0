"""Capture the golden reports for the default-seed ops of every workload.

    python3 perfbench/capture_goldens.py

Run it from the root of a checkout of the commit whose reports are the
reference; it overwrites perfbench/golden/.  The goldens in the
repository were captured at the commit that added the benchmark, before
any change to src/.  An op is captured only if its verdicts are the
expected ones (check.py without a golden).
"""

from __future__ import annotations

import gzip
import sys

import check
import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    run.GOLDEN.mkdir(exist_ok=True)
    bad = 0
    for workload in run.WORKLOADS:
        for argv in run.workload_ops(workload, run.DEFAULT_SEED):
            out = run.WORK / "golden.out"
            _, _, _, code = run.spawn([sys.executable, "-m", "collspec", *argv], out,
                                      run.OP_TIMEOUT_S)
            data = out.read_bytes()
            problems, _ = check.check_report(argv, code, data, None)
            if problems:
                bad += 1
                print(f"NOT CAPTURED {' '.join(argv)}: {'; '.join(problems)}")
                continue
            path = run.golden_path(argv)
            path.write_bytes(gzip.compress(data, compresslevel=9, mtime=0))
            print(f"{path.relative_to(run.ROOT)}: {len(data)} bytes")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
