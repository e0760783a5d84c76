#!/usr/bin/env python3
"""Crash-recovery integration test for the sweep resilience layer.

Runs a sweep bench three ways and checks the DESIGN.md §12 contract:

  1. reference:  cold run, no cache, stdout captured;
  2. crash:      cold run with --cache-dir, SIGKILLed once the first
                 ``<schema>/*.rec`` record has been stored;
  3. resume:     same command re-run with --resume.

The resumed run's stdout must be byte-identical to the reference, the cache
tree must contain no leftover ``*.tmp.*`` files, and (when the kill landed)
the resumed run must have served at least one checkpointed point from disk
(``disk_hits`` >= 1 in its --json).

Usage: crash_recovery_test.py BENCH_BINARY [--workdir=DIR] [bench args...]
Exit code 0 on success, 1 on any contract violation.
"""

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time


def fail(msg):
    print(f"crash_recovery_test: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, **kw):
    return subprocess.run(cmd, capture_output=True, **kw)


def stored_records(cache_dir):
    return glob.glob(os.path.join(cache_dir, "*", "*.rec"))


def main():
    if len(sys.argv) < 2:
        fail("usage: crash_recovery_test.py BENCH_BINARY [args...]")
    bench = sys.argv[1]
    bench_args = []
    workdir = None
    for a in sys.argv[2:]:
        if a.startswith("--workdir="):
            workdir = a.split("=", 1)[1]
        else:
            bench_args.append(a)

    own_tmp = workdir is None
    if own_tmp:
        workdir = tempfile.mkdtemp(prefix="ihw-crash-")
    os.makedirs(workdir, exist_ok=True)
    cache_dir = os.path.join(workdir, "crash-cache")
    shutil.rmtree(cache_dir, ignore_errors=True)

    try:
        # 1. Reference: plain cold run (no cache involvement at all). Its
        # JSON doubles as the reference side of a later
        # `check_bench_regression.py --sweep --resume` comparison.
        ref = run([bench] + bench_args +
                  [f"--json={os.path.join(workdir, 'crash_cold.json')}"])
        if ref.returncode != 0:
            fail(f"reference run exited {ref.returncode}: {ref.stderr[-500:]}")

        # 2. Crash run: SIGKILL once the first record is in the store.
        # (Its own JSON never lands -- the process dies before writing it.)
        crash_cmd = [bench] + bench_args + [
            f"--cache-dir={cache_dir}",
            f"--json={os.path.join(workdir, 'crash_kill.json')}",
        ]
        proc = subprocess.Popen(crash_cmd, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        killed = False
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break  # finished before we could kill it -- fine, see below
            if stored_records(cache_dir):
                proc.send_signal(signal.SIGKILL)
                killed = True
                break
            time.sleep(0.005)
        rc = proc.wait()
        if not killed and rc != 0:
            fail(f"crash run exited {rc} before any record was stored")
        if not killed:
            print("crash_recovery_test: note: bench finished before the "
                  "kill; resume degenerates to a warm run", file=sys.stderr)

        # 3. Resume and compare against the cache-less reference.
        resume_json = os.path.join(workdir, "crash_resume.json")
        res = run([bench] + bench_args + [
            f"--cache-dir={cache_dir}",
            "--resume",
            f"--json={resume_json}",
        ])
        if res.returncode != 0:
            fail(f"resume run exited {res.returncode}: {res.stderr[-500:]}")
        if res.stdout != ref.stdout:
            sys.stderr.buffer.write(ref.stdout)
            sys.stderr.buffer.write(res.stdout)
            fail("resumed stdout differs from the cache-less reference")

        # Cache hygiene: the SIGKILL may strand at most tmp files that the
        # resume's tmp sweep is required to have removed.
        stranded = glob.glob(os.path.join(cache_dir, "**", "*.tmp.*"),
                             recursive=True)
        if stranded:
            fail(f"stranded tmp files after resume: {stranded}")

        with open(resume_json) as f:
            disk_hits = json.load(f).get("disk_hits", 0)
        if killed and disk_hits < 1:
            fail(f"killed after a record was stored but disk_hits = "
                 f"{disk_hits}")

        print(f"crash_recovery_test: OK (killed={killed}, "
              f"disk_hits={disk_hits})")
    finally:
        if own_tmp:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
