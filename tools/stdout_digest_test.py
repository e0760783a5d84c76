#!/usr/bin/env python3
"""Reduced-size stdout digests of the paper bench binaries.

Runs every job listed in tests/stdout_digests.json (a bench binary plus
small-size flags) at --threads=1 and at --threads=4, hashes its stdout with
the "[runtime] threads=" banner line removed, and requires both sha256s to
equal the recorded digest. Bench output is bit-identical at any --threads
value and ISA, so the digest pins the numbers themselves; it does depend on
the compiler (libm, code generation), so the file records the toolchain it
was made with.

Usage:
  stdout_digest_test.py --bin-dir DIR --compiler "GNU 12.2.0" --build-type Release
  stdout_digest_test.py ... --write     # re-record the digests

Exit code 0 when every digest matches, 1 on a mismatch or a failed job, and
77 (ctest SKIP_RETURN_CODE) with the reason on stdout when this build's
toolchain is not the recorded one -- a skip, never a pass.

--write records the digests under this toolchain (a job whose two thread
counts disagree is a failure, never recorded). When the file already holds
identical digests under the same compiler, the build type is added to the
recorded ones instead, so one file can cover e.g. Release and RelWithDebInfo
once both were checked to agree.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIGEST_FILE = ROOT / "tests" / "stdout_digests.json"
SKIP = 77

# The banner-stripping digest rule lives once, in the benchmark harness
# (imported without leaving a __pycache__ in perfbench/).
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
from run import digest  # noqa: E402


THREADS = (1, 4)


def run_job(bin_dir: pathlib.Path, job: dict) -> list[str]:
    """The job's stdout digest at each of THREADS."""
    got = []
    for threads in THREADS:
        cmd = [str(bin_dir / job["binary"]), *job["args"], f"--threads={threads}"]
        proc = subprocess.run(cmd, capture_output=True, stdin=subprocess.DEVNULL)
        if proc.returncode != 0:
            sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}\n"
                     f"{proc.stderr.decode(errors='replace')[-2000:]}")
        got.append(digest(proc.stdout))
    return got


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin-dir", required=True, type=pathlib.Path)
    ap.add_argument("--compiler", required=True)
    ap.add_argument("--build-type", required=True)
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    doc = json.loads(DIGEST_FILE.read_text())
    tc = doc["toolchain"]
    same_compiler = tc["compiler"] == args.compiler

    if args.write:
        got = []
        for job in doc["jobs"]:
            d = run_job(args.bin_dir, job)
            if len(set(d)) != 1:
                sys.exit(f"FAIL: {' '.join([job['binary'], *job['args']])}: "
                         f"stdout differs between --threads={THREADS}")
            got.append(d[0])
        if same_compiler and got == [job.get("sha256") for job in doc["jobs"]]:
            if args.build_type not in tc["build_types"]:
                tc["build_types"].append(args.build_type)
        else:
            doc["toolchain"] = {"compiler": args.compiler,
                                "build_types": [args.build_type]}
            for job, d in zip(doc["jobs"], got):
                job["sha256"] = d
        DIGEST_FILE.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"recorded {len(got)} digests under {doc['toolchain']}")
        return 0

    if not same_compiler or args.build_type not in tc["build_types"]:
        print(f"SKIPPED: digests were recorded with {tc['compiler']} "
              f"({', '.join(tc['build_types'])}); this build is "
              f"{args.compiler} ({args.build_type})")
        return SKIP

    failed = 0
    for job in doc["jobs"]:
        name = " ".join([job["binary"], *job["args"]])
        for threads, got in zip(THREADS, run_job(args.bin_dir, job)):
            if got != job["sha256"]:
                failed += 1
                print(f"FAIL: {name} --threads={threads}: stdout digest {got}, "
                      f"recorded {job['sha256']}")
            else:
                print(f"ok: {name} --threads={threads}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
