#!/usr/bin/env python3
"""Multi-process test of a shared --cache-dir.

Several bench processes that share one --cache-dir reuse each other's
results through the content-addressed record store (DESIGN.md §11). This
script checks that contract across processes:

  1. reference:  one run without a cache, stdout captured;
  2. cold:       4 concurrent runs sharing a fresh --cache-dir;
  3. warm:       4 more concurrent runs on the now-filled --cache-dir.

Every run must exit 0 with stdout byte-identical to the reference. No run
may quarantine a record, no ``*.tmp.*`` file may be left in the cache tree,
and every warm run must report ``evaluated=0`` in its ``[sweep]`` summary.

Usage: shared_cache_test.py BENCH_BINARY [bench args...]
Exit code 0 on success, 1 on any contract violation.
"""

import glob
import os
import re
import shutil
import subprocess
import sys
import tempfile

PROCS = 4


def fail(msg):
    print(f"shared_cache_test: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_concurrently(cmd):
    """Starts PROCS copies of cmd at once; returns (rc, stdout, stderr)s."""
    running = [subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
               for _ in range(PROCS)]
    results = []
    for p in running:
        out, err = p.communicate()
        results.append((p.returncode, out, err))
    return results


def health_counter(stderr, name):
    """Value of `name=` in the run's [sweep] summary line, or None."""
    for line in stderr.decode(errors="replace").splitlines():
        if line.startswith("[sweep] hits="):
            m = re.search(rf"\b{name}=(\d+)", line.split("|", 1)[-1])
            if m:
                return int(m.group(1))
    return None


def main():
    if len(sys.argv) < 2:
        fail("usage: shared_cache_test.py BENCH_BINARY [args...]")
    bench, bench_args = sys.argv[1], sys.argv[2:]
    workdir = tempfile.mkdtemp(prefix="ihw-shared-")
    cache_dir = os.path.join(workdir, "shared-cache")

    try:
        ref = subprocess.run([bench] + bench_args, capture_output=True)
        if ref.returncode != 0:
            fail(f"reference run exited {ref.returncode}: {ref.stderr[-500:]}")

        cmd = [bench] + bench_args + [f"--cache-dir={cache_dir}"]
        for phase in ("cold", "warm"):
            for i, (rc, out, err) in enumerate(run_concurrently(cmd)):
                who = f"{phase} run {i}"
                if rc != 0:
                    fail(f"{who} exited {rc}: {err[-500:]}")
                if out != ref.stdout:
                    sys.stderr.buffer.write(ref.stdout)
                    sys.stderr.buffer.write(out)
                    fail(f"{who} stdout differs from the cache-less reference")
                quarantines = health_counter(err, "quarantines")
                if quarantines != 0:
                    fail(f"{who} reported quarantines={quarantines}")
                evaluated = health_counter(err, "evaluated")
                if phase == "warm" and evaluated != 0:
                    fail(f"{who} reported evaluated={evaluated}")

        quarantined = glob.glob(os.path.join(cache_dir, "quarantine", "*"))
        if quarantined:
            fail(f"quarantined records: {quarantined}")
        stranded = glob.glob(os.path.join(cache_dir, "**", "*.tmp.*"),
                             recursive=True)
        if stranded:
            fail(f"stranded tmp files: {stranded}")

        print(f"shared_cache_test: OK ({PROCS} cold + {PROCS} warm runs "
              f"byte-identical, warm evaluated=0)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
