#!/usr/bin/env python3
"""The repo benchmark: paper-artifact workloads timed end to end, golden-checked,
plus a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload paper_apps --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload sweep_warm --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --write-golden      # re-record perfbench/golden.json

Every run first builds a fresh Release tree of the checkout (without
IHW_NATIVE_SIMD) in .bench_build/, through perfbench/CMakeLists.txt; later
runs reuse it while the sources hash the same. The benchmark is one process
that runs each workload's jobs (existing bench/ binaries) as child processes
one at a time: a closed loop with one client. Each child runs at most
P = min(4, nproc) threads.

--trace 0 measures the workload for --seconds: rounds of one pass at
--threads=1 and one at --threads=P, repeated until the time is up (at least
one round), and prints the medians of the end-to-end metrics. --trace 1
times every workload's jobs once (for the job.* metrics), then runs the
benchmark's own layer tracer (perfbench_trace) untraced and traced and turns
its spans into the per-layer metrics. Metric names and units come from
BENCHMARK.json. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; failed/attempted is the
failed_frac of job invocations (and layer-tracer checks).

A job invocation fails if it exits nonzero, if its stdout (minus the
"[runtime] threads=" banner) differs from the golden digest, or from the
same job's stdout at the other thread count; in sweep_warm also if it
differs from the cold pass's stdout or evaluates a point (evaluated>0).
Golden digests apply to jobs whose command line does not depend on the
seed, and to every job at seed 0 (the binaries' own seeds), when the
compiler and build type match the ones recorded in golden.json.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BIN = BUILD / "bench"
WORK = BUILD / "perfbench"
GOLDEN = HERE / "golden.json"
NPROC = len(os.sched_getaffinity(0))
P = min(4, NPROC)
DEFAULT_SEED = 0  # the figure binaries' own seeds
HARD_LIMIT_S = 170.0  # a run never outlives this; a job still running is killed

# Binaries that take --seed; the others' inputs are fixed by the paper setup.
SEEDED = {"table7_sphinx", "mlp_inference", "ablation_fault_guard"}
SWEEP_JOBS = [
    "fig14_power_quality --samples=20000",
    "fig08_error_char --samples=20000",
    "mlp_inference --samples=64",
    "ablation_fault_guard --size=48",
    "table5_system_savings --scale=0.25",
    "ablation_dvfs --size=64",
]
WORKLOADS = {
    "paper_apps": [
        "fig15_hotspot", "fig16_srad", "fig19_hotspot_acmul", "fig20_cp",
        "fig17_18_ray", "fig21_art_gromacs", "table7_sphinx", "table6_benchmarks",
        "table5_system_savings", "fig02_power_breakdown",
    ],
    "units_gemm": [
        "table1_emax", "fig08_error_char", "fig09_acfpmul_error_char", "ablation_qmc",
        "mlp_inference", "abft_validation", "feature_detect",
    ],
    "sweep_cold": SWEEP_JOBS,
    "sweep_warm": SWEEP_JOBS,
}
EXEC_FLOOR_BINARY = "table3_int_units"
TARGETS = sorted({j.split()[0] for jobs in WORKLOADS.values() for j in jobs}
                 | {EXEC_FLOOR_BINARY, "perfbench_trace"})


class BenchError(RuntimeError):
    """The benchmark itself cannot run (no repo, build failure, time limit)."""


# --- build ------------------------------------------------------------------

def source_stamp() -> str:
    """Hash of every file the build reads, so a stale tree is never reused."""
    files = [ROOT / "CMakeLists.txt", HERE / "CMakeLists.txt", *HERE.glob("*.cpp")]
    for d in ("src", "bench"):
        files += [p for p in (ROOT / d).rglob("*") if p.is_file()]
    h = hashlib.sha256()
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def build() -> None:
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} holds no repository to build (no CMakeLists.txt/src)")
    stamp = source_stamp()
    stamp_file = BUILD / "perfbench-source.stamp"
    if (stamp_file.is_file() and stamp_file.read_text() == stamp
            and all((BIN / t).is_file() for t in TARGETS)):
        return
    BUILD.mkdir(exist_ok=True)
    stamp_file.unlink(missing_ok=True)
    log_path = BUILD / "perfbench-build.log"
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", "-DIHW_NATIVE_SIMD=OFF"],
                    ["cmake", "--build", str(BUILD), "-j", str(P), "--target", *TARGETS]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                tail = log_path.read_text()[-3000:]
                raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")
    stamp_file.write_text(stamp)


def host_record(seed: int) -> dict:
    host = json.loads(subprocess.run([str(BIN / "perfbench_trace"), "--host"], check=True,
                                     capture_output=True, text=True).stdout)
    cache = (BUILD / "CMakeCache.txt").read_text()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M).group(1)
    return {"nproc": NPROC, "P": P, "isa_active": host["isa_active"],
            "isa_best": host["isa_best"], "compiler": host["compiler"],
            "build_type": build_type, "llc_bytes": host["llc_bytes"], "seed": seed}


# --- running jobs -----------------------------------------------------------

@dataclasses.dataclass
class Invocation:
    binary: str
    threads: int
    rc: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int


_current_child: subprocess.Popen | None = None


def _on_hard_limit(signum, frame):
    if _current_child is not None:
        _current_child.kill()
        try:
            os.waitpid(_current_child.pid, 0)
        except ChildProcessError:  # reaped between wait4 and the signal
            pass
    raise BenchError(f"run exceeded its {HARD_LIMIT_S:.0f} s limit")


def execute(argv: list[str], cwd: Path) -> tuple[int, bytes, bytes, float, int]:
    """Runs one child to completion: exit code, stdout, stderr, wall, max RSS (KiB)."""
    global _current_child
    out_path, err_path = cwd / "job.stdout", cwd / "job.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        _current_child = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL,
                                          stdout=out, stderr=err)
        _, status, usage = os.wait4(_current_child.pid, 0)
        wall = time.perf_counter() - t0
        _current_child.returncode = os.waitstatus_to_exitcode(status)
        rc, _current_child = _current_child.returncode, None
    return rc, out_path.read_bytes(), err_path.read_bytes(), wall, usage.ru_maxrss


def job_argv(job: str, seed: int, threads: int, extra: list[str]) -> list[str]:
    binary, *args = job.split()
    if seed != DEFAULT_SEED and binary in SEEDED:
        args.append(f"--seed={seed}")
    return [str(BIN / binary), *args, f"--threads={threads}", *extra]


def run_pass(workload: str, seed: int, threads: int, cwd: Path,
             extra: list[str]) -> dict[str, Invocation]:
    runs = {}
    for job in WORKLOADS[workload]:
        rc, out, err, wall, rss = execute(job_argv(job, seed, threads, extra), cwd)
        binary = job.split()[0]
        runs[binary] = Invocation(binary, threads, rc, out, err, wall, rss)
    return runs


# --- output checks ----------------------------------------------------------

def digest(stdout: bytes) -> str:
    """sha256 of stdout without the "[runtime] threads=" banner line."""
    body = b"".join(line for line in stdout.splitlines(keepends=True)
                    if not line.startswith(b"[runtime] threads="))
    return hashlib.sha256(body).hexdigest()


def invocation_fault(inv: Invocation, golden: str | None, cold: str | None,
                     warm: bool) -> str | None:
    if inv.rc != 0:
        return f"exit code {inv.rc}"
    d = digest(inv.stdout)
    if golden is not None and d != golden:
        return "stdout differs from the golden digest"
    if cold is not None and d != cold:
        return "warm stdout differs from the cold pass"
    if warm:
        evaluated = re.findall(rb"evaluated=(\d+)", inv.stderr)
        if not evaluated or any(int(n) for n in evaluated):
            return "warm run evaluated points (or printed no [sweep] summary)"
    return None


def judge(workload: str, one: dict[str, Invocation], par: dict[str, Invocation],
          golden: dict[str, str], cold: dict[str, str] | None) -> list[str]:
    """One message per failed invocation of a round (a --threads=1 and a
    --threads=P pass of the same jobs)."""
    problems = []
    for binary in one:
        same = digest(one[binary].stdout) == digest(par[binary].stdout)
        for inv in (one[binary], par[binary]):
            why = invocation_fault(inv, golden.get(binary),
                                   cold.get(binary) if cold else None,
                                   warm=workload == "sweep_warm")
            if why is None and not same:
                why = "stdout differs between --threads=1 and --threads=P"
            if why:
                problems.append(f"{workload}/{binary} --threads={inv.threads}: {why}")
    return problems


def golden_for(workload: str, seed: int, record: dict) -> dict[str, str]:
    """The golden digests that apply to this run, by binary."""
    if not GOLDEN.is_file():
        return {}
    golden = json.loads(GOLDEN.read_text())
    if (golden["toolchain"]["compiler"] != record["compiler"]
            or golden["toolchain"]["build_type"] != record["build_type"]):
        return {}
    source = "sweep_cold" if workload == "sweep_warm" else workload
    return {binary: d for binary, d in golden["digests"].get(source, {}).items()
            if seed == DEFAULT_SEED or binary not in SEEDED}


# --- one workload -----------------------------------------------------------

@dataclasses.dataclass
class Outcome:
    setup_s: list[float] = dataclasses.field(default_factory=list)
    wall_s: list[float] = dataclasses.field(default_factory=list)
    wall_par_s: list[float] = dataclasses.field(default_factory=list)
    peak_rss_mb: list[float] = dataclasses.field(default_factory=list)
    job_s: dict[str, list[float]] = dataclasses.field(default_factory=lambda: defaultdict(list))
    job_par_s: dict[str, list[float]] = dataclasses.field(default_factory=lambda: defaultdict(list))
    digests: dict[str, str] = dataclasses.field(default_factory=dict)  # last --threads=1 pass
    attempted: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)


def set_up(workload: str, seed: int, run_dir: Path, out: Outcome,
           golden: dict[str, str]) -> dict[str, str] | None:
    """Times one set-up. For sweep_warm this is a cold fill of run_dir/warm-cache
    at --threads=P, whose stdout digests are returned as the warm reference.
    Every other workload has no set-up of its own: the time is creating the
    empty working directory and reading each job binary once, so the timed
    phase starts with the binaries in the page cache."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    if workload != "sweep_warm":
        t0 = time.perf_counter()
        run_dir.mkdir(parents=True)
        for job in WORKLOADS[workload]:
            (BIN / job.split()[0]).read_bytes()
        out.setup_s.append(time.perf_counter() - t0)
        return None
    run_dir.mkdir(parents=True)
    cache = run_dir / "warm-cache"
    cache.mkdir()
    fill = run_pass("sweep_cold", seed, P, run_dir, [f"--cache-dir={cache}"])
    out.setup_s.append(sum(inv.wall_s for inv in fill.values()))
    out.attempted += len(fill)
    for inv in fill.values():
        why = invocation_fault(inv, golden.get(inv.binary), None, warm=False)
        if why:
            out.problems.append(f"sweep_warm set-up/{inv.binary}: {why}")
    return {b: digest(inv.stdout) for b, inv in fill.items()}


def run_workload(workload: str, seed: int, seconds: float, setup_reps: int,
                 golden: dict[str, str]) -> Outcome:
    out = Outcome()
    run_dir = WORK / f"run-{workload}-{os.getpid()}"
    try:
        for _ in range(setup_reps):
            cold = set_up(workload, seed, run_dir, out, golden)
        t_end = time.perf_counter() + seconds
        rnd = 0
        while True:
            passes = {}
            for threads in ((1, P) if rnd % 2 == 0 else (P, 1)):
                extra = []
                if workload == "sweep_cold":
                    cache = run_dir / f"cold-cache-{rnd}-{threads}"
                    cache.mkdir()
                    extra = [f"--cache-dir={cache}"]
                elif workload == "sweep_warm":
                    extra = [f"--cache-dir={run_dir / 'warm-cache'}", "--resume"]
                passes[threads] = run_pass(workload, seed, threads, run_dir, extra)
                if workload == "sweep_cold":
                    shutil.rmtree(cache)
            one, par = passes[1], passes[P]
            out.wall_s.append(sum(inv.wall_s for inv in one.values()))
            out.wall_par_s.append(sum(inv.wall_s for inv in par.values()))
            out.peak_rss_mb.append(max(inv.maxrss_kb for inv in par.values()) / 1024)
            for b in one:
                out.job_s[b].append(one[b].wall_s)
                out.job_par_s[b].append(par[b].wall_s)
            out.digests = {b: digest(inv.stdout) for b, inv in one.items()}
            out.attempted += len(one) + len(par)
            out.problems += judge(workload, one, par, golden, cold)
            rnd += 1
            if time.perf_counter() >= t_end:
                return out
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# --- metrics ----------------------------------------------------------------

def end_to_end_metrics(out: Outcome) -> dict[str, float]:
    med = statistics.median
    return {"wall_s": med(out.wall_s), "wall_par_s": med(out.wall_par_s),
            "setup_s": med(out.setup_s), "peak_rss_mb": med(out.peak_rss_mb)}


def self_times(spans: list[dict]) -> list[float]:
    """Per span, in seconds: its duration minus the part of its interval that
    its child spans cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]].append(s)
    result = []
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered, reach = 0, lo
        for c in sorted(children[s["id"]], key=lambda c: c["start_ns"]):
            start, end = max(c["start_ns"], reach), min(c["end_ns"], hi)
            if end > start:
                covered += end - start
                reach = end
        result.append((hi - lo - covered) / 1e9)
    return result


def per_layer_metrics(jobs: dict[str, Outcome], doc: dict, untraced_s: float,
                      traced_s: float, exec_ms: float) -> dict[str, float]:
    dur, own = defaultdict(float), defaultdict(float)
    counts = defaultdict(lambda: defaultdict(float))
    for s, self_s in zip(doc["spans"], self_times(doc["spans"])):
        dur[s["name"]] += (s["end_ns"] - s["start_ns"]) / 1e9
        own[s["name"]] += self_s
        for k, v in s["counts"].items():
            counts[s["name"]][k] += v

    def per(span: str, key: str, scale: float = 1.0) -> float:
        return dur[span] / counts[span][key] * scale

    m = {}
    for workload, out in jobs.items():
        for binary in out.job_s:
            m[f"job.{workload}.{binary}.wall_s"] = statistics.median(out.job_s[binary])
            m[f"job.{workload}.{binary}.wall_par_s"] = statistics.median(out.job_par_s[binary])
    m["apps.hotspot.input_s"] = dur["apps.hotspot.input"]
    m["apps.srad.input_s"] = dur["apps.srad.input"]
    for app in ("hotspot", "srad", "cp"):
        m[f"apps.{app}.sim_s"] = dur[f"apps.{app}.sim"]
        m[f"apps.{app}.batched_s"] = dur[f"apps.{app}.batched"]
    for app in ("ray", "art", "gromacs", "sphinx"):
        m[f"apps.{app}.sim_s"] = dur[f"apps.{app}.sim"]
    m["gpu.ops.hotspot"] = counts["apps.hotspot.sim"]["ops"]
    m["gpu.ns_per_op.sim"] = per("apps.hotspot.sim", "ops", 1e9)
    m["gpu.ns_per_op.batched"] = per("apps.hotspot.batched", "ops", 1e9)
    m["quality.s"] = sum(v for k, v in dur.items() if k.startswith("quality."))
    m["power.s"] = sum(v for k, v in dur.items() if k.startswith("power."))
    for k in ("ifp_mul", "acfp_log_mul", "trunc_mul", "ifp_add", "rcp", "ifp_mac"):
        m[f"ihw.span_ns.{k}"] = per(f"ihw.span.{k}", "elements", 1e9)
    char = [k for k in dur if k.startswith("error.char")]
    m["error.char32_s"] = sum(dur[k] for k in char if k.startswith("error.char32."))
    m["error.char64_s"] = sum(dur[k] for k in char if k.startswith("error.char64."))
    m["error.samples_per_s"] = sum(counts[k]["samples"] for k in char) / sum(dur[k] for k in char)
    m["qmc.sobol_ns"] = per("qmc.sobol", "points", 1e9)
    m["gemm.gmacs.precise"] = 1 / per("gemm.precise", "macs", 1e9)
    m["gemm.gmacs.ifp"] = 1 / per("gemm.ifp", "macs", 1e9)
    m["gemm.gmacs_par.ifp"] = 1 / per("gemm.ifp_par", "macs", 1e9)
    m["gemm.abft_detect_ratio"] = dur["gemm.ifp_abft_detect"] / dur["gemm.ifp"]
    m["gemm.abft_recover_ratio"] = dur["gemm.ifp_abft_recover"] / dur["gemm.ifp"]
    m["apps.mlp.run_s"] = dur["apps.mlp.run"]
    m["fault.guarded_ratio"] = (per("fault.mul_guarded", "elements")
                                / per("fault.mul_unguarded", "elements"))
    points = counts["sweep.cold"]["points"]
    m["sweep.eval_ms_per_point"] = dur["sweep.eval"] / points * 1e3
    m["sweep.store_ms_per_point"] = own["sweep.cold"] / points * 1e3
    m["sweep.bytes_written_per_point"] = counts["sweep.cold"]["bytes_written"] / points
    m["sweep.lookup_ms_per_point"] = per("sweep.warm", "points", 1e3)
    m["sweep.replay_ms"] = dur["sweep.replay"] * 1e3
    m["sweep.hit_ratio"] = ((counts["sweep.warm"]["hits"] + counts["sweep.resume"]["hits"])
                            / (counts["sweep.warm"]["points"] + counts["sweep.resume"]["points"]))
    m["runtime.exec_ms"] = exec_ms
    m["trace.overhead_frac"] = traced_s / untraced_s - 1
    return m


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# --- the two modes ----------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, record: dict):
    # setup_s is a median over set-ups: 3 cold fills (~0.4 s each), or 21 of
    # the ~1 ms working-directory set-ups, whose single readings scatter ±50%.
    setup_reps = 3 if workload == "sweep_warm" else 21
    out = run_workload(workload, seed, seconds, setup_reps,
                       golden_for(workload, seed, record))
    return end_to_end_metrics(out), out.attempted, out.problems


def trace(seed: int, record: dict):
    jobs, attempted, problems = {}, 0, []
    for workload in WORKLOADS:
        out = run_workload(workload, seed, 0, 1, golden_for(workload, seed, record))
        jobs[workload] = out
        attempted += out.attempted
        problems += out.problems
    run_dir = WORK / f"trace-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        doc_path = run_dir / "trace.json"
        base = [str(BIN / "perfbench_trace"), f"--seed={seed}", f"--threads={P}",
                f"--work={run_dir}"]
        walls = {}
        for mode, extra in (("untraced", ["--spans=0"]), ("traced", [f"--out={doc_path}"])):
            rc, _, err, walls[mode], _ = execute(base + extra, run_dir)
            attempted += 1
            if rc != 0:
                problems.append(f"perfbench_trace ({mode}) exit code {rc}: "
                                f"{err.decode(errors='replace')[-500:]}")
        if not doc_path.is_file():
            raise BenchError("perfbench_trace wrote no trace document")
        doc = json.loads(doc_path.read_text())
        (WORK / f"trace-seed{seed}.json").write_text(json.dumps(doc))
        for check in doc["checks"]:
            attempted += 1
            if not check["ok"]:
                problems.append(f"perfbench_trace check failed: {check['name']}")
        exec_walls = [execute([str(BIN / EXEC_FLOOR_BINARY), "--threads=1"], run_dir)[3]
                      for _ in range(21)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = per_layer_metrics(jobs, doc, walls["untraced"], walls["traced"],
                                statistics.median(exec_walls) * 1e3)
    return metrics, attempted, problems


def write_golden() -> None:
    record = host_record(DEFAULT_SEED)
    digests = {}
    for workload in ("paper_apps", "units_gemm", "sweep_cold"):
        out = run_workload(workload, DEFAULT_SEED, 0, 1, {})
        if out.problems:
            raise BenchError("refusing to record golden digests:\n" + "\n".join(out.problems))
        digests[workload] = out.digests
    GOLDEN.write_text(json.dumps({
        "toolchain": {"compiler": record["compiler"], "build_type": record["build_type"]},
        "seed": DEFAULT_SEED, "digests": digests}, indent=2) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.write_golden and args.workload is None:
        ap.error("--workload is required")

    signal.signal(signal.SIGALRM, _on_hard_limit)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)
    try:
        build()
        WORK.mkdir(parents=True, exist_ok=True)
        if args.write_golden:
            write_golden()
            return 0
        record = host_record(args.seed)
        if args.trace:
            values, attempted, problems = trace(args.seed, record)
            units = declared("per_layer")
        else:
            values, attempted, problems = measure(args.workload, args.seed, args.seconds,
                                                  record)
            units = declared("end_to_end")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)

    missing, extra = set(units) - set(values), set(values) - set(units)
    if missing or extra:
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
              f"undeclared {sorted(extra)}", file=sys.stderr)
        return 2
    failed = len(problems)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    for p in problems:
        print(f"FAILED {p}")
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("record " + json.dumps(record, sort_keys=True))
    for k in units:
        print(f"{k:40s} {values[k]:.6g} {units[k]}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} 1 ({failed} of {attempted})")
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    (results / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "trace": args.trace, "record": record,
         "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
