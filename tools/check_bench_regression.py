#!/usr/bin/env python3
"""Gate on the batched-SoA speedups in a google-benchmark JSON report.

Usage:
  check_bench_regression.py BENCH.json
  check_bench_regression.py --sweep COLD.json WARM.json [--min-speedup=R]
  check_bench_regression.py --sweep --resume COLD.json RESUMED.json
  check_bench_regression.py --isa BENCH.json [--require=LEVEL] [--out=OUT.json]
  check_bench_regression.py --gemm BENCH.json [--require=LEVEL] [--out=OUT.json]
  check_bench_regression.py --abft VALIDATION.json GEMM.json [--max-overhead=R] [--out=OUT.json]

The batched span kernels (src/ihw/batch.h) are only worth their complexity
while they stay far ahead of the element-wise SimReal path, so the gate is
expressed machine-independently as the scalar/batch time ratio of each
benchmark pair rather than absolute times: a vectorized kernel that slips
under its floor has regressed grossly (>3x from its measured-at-merge
margin), whatever the host.

Pairs whose batch side intentionally runs element-wise (the screened
`guarded` configuration, the scalar-datapath `acfp_full` mode) only gate
against the batch entry point becoming grossly *slower* than the scalar
loop it wraps.

--sweep mode gates the memoizing sweep engine (DESIGN.md §11) instead:
COLD.json and WARM.json are the --json outputs of the same sweep bench run
twice against the same --cache-dir. The warm run must have served every row
from the cache (cache_hit true, zero misses), the row fingerprints must
match the cold run's exactly, and the warm elapsed time must beat the cold
time by at least --min-speedup (default 10x).

--sweep --resume gates the resilience layer (DESIGN.md §12) instead: COLD
is a clean reference run and RESUMED is a --resume run after a mid-grid
kill. A resumed run may legitimately mix rows served from the record store
with fresh evaluations, so per-row cache_hit/status and the speedup floor
are not checked; every *result* field of every row must still match the
reference exactly, and the resumed run must have served at least one row
from disk (its top-level disk_hits).

--isa mode gates the per-ISA SIMD backends (DESIGN.md §13) from one
micro_units JSON report containing the per-ISA rows
(BM_Span*Batch/<unit>/isa:<level>, registered for every level the host
supports). For each row family it computes the speedup of each SIMD level
over the forced-scalar row in the *same* report -- machine-independent, like
the scalar/batch pair gate -- and enforces a per-level floor (default 2x,
the acceptance bar; see ISA_FLOORS). --require=LEVEL fails the gate when the
host does not support LEVEL (so CI on an AVX2 machine cannot silently pass
by only exercising the scalar backend), and --out=OUT.json records the
detected ISA, the ratio table, and the floors as a merge artifact.

--gemm mode gates the cache-blocked tile-GEMM engine (DESIGN.md §14) from
one micro_gemm JSON report. The engine is bit-identical to the canonical
per-element reference, so each BM_GemmNaive/<cfg> / BM_GemmTiled/<cfg>
ratio is pure engineering speedup and gates machine-independently: the
imprecise-multiplier configurations must hold >= 2x (the acceptance bar;
measured margins at merge were 9x-15x), while the precise pair only floors
at 1x -- the host's native multiply is already fast, so blocking buys
less there and the gate just forbids the tiled path from losing to the
naive loop. The per-ISA tiled rows (BM_GemmTiled/ifp/isa:<level>) gate
against the forced-scalar tiled row exactly like --isa mode (floors in
GEMM_ISA_FLOORS; --require/--out behave the same).

--abft mode gates the ABFT checksum layer (DESIGN.md §15) from two inputs:
VALIDATION.json is the --json report of bench/abft_validation (the
fault-injection safety contract: zero false positives fault-free, every
injected fault detected-and-recovered or provably below the quality bound,
non-finite faults flagged immediately -- never a silent wrong answer), and
GEMM.json is a micro_gemm report containing the runtime
BM_GemmTiled/ifp/abft:* rows. The contract gates are absolute; the
performance gate is machine-independent ratios against the unguarded
BM_GemmTiled/ifp row in the same report: detect and recover modes must cost
at most --max-overhead (default 0.25, i.e. 25%; measured at merge ~2-4%)
while the full GuardedDispatch screen on the same shape must cost more than
100% extra -- that separation is the reason the checksum layer exists, so if
it ever collapses the gate fails rather than silently shipping a redundant
subsystem.
"""

import json
import sys

# scalar-name -> minimum scalar/batch time ratio.
FLOORS = {
    # Headline pairs (EXPERIMENTS.md "host performance"): acceptance is >= 3x.
    "BM_SpanMulScalar/ifp": 3.0,
    "BM_QmcCharScalar": 3.0,
    # Other vectorized kernels: same floor.
    "BM_SpanMulScalar/acfp_log": 3.0,
    "BM_SpanMulScalar/trunc": 3.0,
    "BM_SpanAddScalar/ifp": 3.0,
    "BM_SpanMulScalar/precise": 2.0,
    "BM_SpanAddScalar/precise": 2.0,
    # Element-wise-by-design batch paths: only catch gross overhead.
    "BM_SpanMulScalar/guarded": 1.0 / 3.0,
    "BM_SpanMulScalar/acfp_full": 1.0 / 3.0,
}


def batch_name(scalar_name: str) -> str:
    return scalar_name.replace("Scalar", "Batch")


def load_times(path: str) -> dict:
    with open(path) as f:
        report = json.load(f)
    times = {}
    for bench in report.get("benchmarks", []):
        # Prefer the mean aggregate when repetitions were requested; fall back
        # to the plain entry for single-run reports.
        if bench.get("aggregate_name") not in (None, "mean"):
            continue
        name = bench["name"].replace("_mean", "")
        if bench.get("aggregate_name") == "mean" or name not in times:
            times[name] = float(bench["real_time"])
    return times


def check_sweep(argv: list) -> int:
    min_speedup = 10.0
    resume = False
    paths = []
    for arg in argv:
        if arg.startswith("--min-speedup="):
            min_speedup = float(arg.split("=", 1)[1])
        elif arg == "--resume":
            resume = True
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(paths[0]) as f:
        cold = json.load(f)
    with open(paths[1]) as f:
        warm = json.load(f)

    failures = []
    if cold.get("bench") != warm.get("bench"):
        failures.append(
            f"bench mismatch: cold={cold.get('bench')} warm={warm.get('bench')}"
        )
    cold_rows, warm_rows = cold.get("rows", []), warm.get("rows", [])
    if len(cold_rows) != len(warm_rows):
        failures.append(
            f"row count mismatch: cold={len(cold_rows)} warm={len(warm_rows)}"
        )
    # Provenance fields legitimately differ between a reference run and a
    # resumed run; everything else is a result and must be identical.
    provenance = {"cache_hit", "status"}
    for i, (c, w) in enumerate(zip(cold_rows, warm_rows)):
        if c.get("fingerprint") != w.get("fingerprint"):
            failures.append(
                f"row {i}: fingerprint changed between runs "
                f"({c.get('fingerprint')} vs {w.get('fingerprint')})"
            )
        if resume:
            for key in sorted(set(c) | set(w)):
                if key in provenance:
                    continue
                if c.get(key) != w.get(key):
                    failures.append(
                        f"row {i}: {key} differs after resume "
                        f"({c.get(key)!r} vs {w.get(key)!r})"
                    )
        elif not w.get("cache_hit"):
            failures.append(f"row {i}: warm run missed the cache")
    if resume:
        disk_hits = warm.get("disk_hits", 0)
        if disk_hits < 1:
            failures.append(
                f"resumed run served {disk_hits} rows from disk (expected >= 1)"
            )
        if failures:
            print("\nsweep resume regression:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print(
            f"sweep {cold.get('bench')}: resumed run matches the reference "
            f"({len(warm_rows)} rows, {disk_hits} served from disk)"
        )
        return 0
    if warm.get("cache_misses", 1) != 0:
        failures.append(f"warm run had {warm.get('cache_misses')} cache misses")

    cold_ms, warm_ms = cold.get("elapsed_ms", 0.0), warm.get("elapsed_ms", 0.0)
    speedup = cold_ms / warm_ms if warm_ms > 0 else float("inf")
    print(
        f"sweep {cold.get('bench')}: cold {cold_ms:.1f} ms, warm "
        f"{warm_ms:.1f} ms -> {speedup:.1f}x (floor {min_speedup:.1f}x), "
        f"{len(warm_rows)} rows all cached"
        if not failures
        else f"sweep {cold.get('bench')}: cold {cold_ms:.1f} ms, warm "
        f"{warm_ms:.1f} ms -> {speedup:.1f}x (floor {min_speedup:.1f}x)"
    )
    if speedup < min_speedup:
        failures.append(
            f"warm-cache speedup {speedup:.1f}x below floor {min_speedup:.1f}x"
        )
    if failures:
        print("\nsweep cache regression:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("warm-cache sweep at or above its speedup floor")
    return 0


# SIMD-level ordering for --require comparisons (mirrors simd::IsaLevel).
ISA_ORDER = {"scalar": 0, "avx2": 1, "avx512": 2}

# Minimum speedup of each SIMD level over the forced-scalar row of the same
# bench family. 2x is the acceptance bar for the runtime-dispatched build.
# The forced-scalar mul/add rows run the baseline build of the same lanes,
# itself 4-wide SSE2 where a loop allows; the rcp row runs the per-element
# ircp unit. Measured over 30 runs on a 4-vCPU AVX-512 host: avx2 1.9x-3.5x
# (mul rows), 5.7x-9.0x (add), 14x-24x (rcp); avx512 3.1x-6.4x, 11x-20x,
# 25x-40x. The avx2 mul rows sit close to the floor: the one run below it
# (acfp_log 1.94x) overlapped a compile on the same host.
ISA_FLOORS = {"avx2": 2.0, "avx512": 2.0}


def check_isa(argv: list) -> int:
    require = None
    out_path = None
    paths = []
    for arg in argv:
        if arg.startswith("--require="):
            require = arg.split("=", 1)[1]
        elif arg.startswith("--out="):
            out_path = arg.split("=", 1)[1]
        else:
            paths.append(arg)
    if len(paths) != 1 or (require is not None and require not in ISA_ORDER):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(paths[0]) as f:
        report = json.load(f)
    context = report.get("context", {})
    active = context.get("ihw_isa", "unknown")
    best = context.get("ihw_isa_best", active)
    print(f"isa: active={active} best_supported={best}")

    # Group the per-ISA rows: "BM_SpanMulBatch/ifp/isa:avx2" ->
    # families["BM_SpanMulBatch/ifp"]["avx2"] = real_time.
    times = load_times(paths[0])
    families = {}
    for name, t in times.items():
        base, sep, level = name.rpartition("/isa:")
        if sep and base.startswith("BM_Span"):
            families.setdefault(base, {})[level] = t

    failures = []
    if not families:
        failures.append(
            "no BM_Span*/isa:* rows in the report (run micro_units with "
            "--benchmark_filter='isa:')"
        )
    if require is not None and ISA_ORDER.get(best, -1) < ISA_ORDER[require]:
        failures.append(
            f"host best_supported={best} is below required level {require}"
        )

    rows = []
    for base in sorted(families):
        levels = families[base]
        if "scalar" not in levels:
            failures.append(f"{base}: missing isa:scalar baseline row")
            continue
        for level in sorted(levels, key=lambda lv: ISA_ORDER.get(lv, 99)):
            if level == "scalar":
                continue
            floor = ISA_FLOORS.get(level)
            if floor is None:
                failures.append(f"{base}: unknown ISA level {level!r}")
                continue
            ratio = levels["scalar"] / levels[level]
            status = "ok" if ratio >= floor else "FAIL"
            print(
                f"{base:28s} {level:7s} {ratio:7.2f}x  "
                f"(floor {floor:.2f}x)  {status}"
            )
            rows.append(
                {"bench": base, "isa": level, "speedup_vs_scalar": round(ratio, 3),
                 "floor": floor, "ok": ratio >= floor}
            )
            if ratio < floor:
                failures.append(
                    f"{base}: {level} speedup {ratio:.2f}x over scalar below "
                    f"floor {floor:.2f}x"
                )

    if out_path is not None:
        artifact = {
            "gate": "simd-isa",
            "isa_active": active,
            "isa_best_supported": best,
            "require": require,
            "floors": ISA_FLOORS,
            "rows": rows,
            "host": {
                k: context.get(k)
                for k in ("host_name", "num_cpus", "mhz_per_cpu", "date",
                          "library_build_type", "runtime_threads")
                if k in context
            },
            "passed": not failures,
        }
        with open(out_path, "w") as f:
            json.dump(artifact, f, indent=2)
            f.write("\n")
        print(f"wrote {out_path}")

    if failures:
        print("\nSIMD backend performance regression:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall SIMD backends at or above their per-ISA floors")
    return 0


# Minimum BM_GemmNaive/<cfg> over BM_GemmTiled/<cfg> time ratio. The blocked
# engine earns its keep on the imprecise multiplier datapaths, where the
# fused mac spans replace one dispatched scalar multiply per product;
# measured margins at merge were 9x-15x, so 2x is a gross-regression bar.
# The precise pair is a no-loss bound only: the host multiply is a single
# instruction either way, so blocking is worth ~1.7x, not >= 2x.
GEMM_FLOORS = {
    "ifp": 2.0,          # headline (EXPERIMENTS.md "tile-GEMM engine")
    "acfp_log": 2.0,
    "trunc": 2.0,
    "ifp_acc_th8": 2.0,
    "ifp_wide32": 2.0,
    "precise": 1.0,
}

# Speedup of each forced-ISA tiled row over the forced-scalar tiled row.
# Measured at merge: 4.4x (avx2), 9x (avx512).
GEMM_ISA_FLOORS = {"avx2": 1.5, "avx512": 1.5}


def check_gemm(argv: list) -> int:
    require = None
    out_path = None
    paths = []
    for arg in argv:
        if arg.startswith("--require="):
            require = arg.split("=", 1)[1]
        elif arg.startswith("--out="):
            out_path = arg.split("=", 1)[1]
        else:
            paths.append(arg)
    if len(paths) != 1 or (require is not None and require not in ISA_ORDER):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(paths[0]) as f:
        report = json.load(f)
    context = report.get("context", {})
    active = context.get("ihw_isa", "unknown")
    best = context.get("ihw_isa_best", active)
    print(f"isa: active={active} best_supported={best}")

    times = load_times(paths[0])
    failures = []
    rows = []

    # Naive-vs-tiled pairs at identical numerics (bit-identity contract).
    for cfg, floor in GEMM_FLOORS.items():
        naive, tiled = f"BM_GemmNaive/{cfg}", f"BM_GemmTiled/{cfg}"
        if naive not in times or tiled not in times:
            failures.append(f"missing benchmark pair: {naive} / {tiled}")
            continue
        ratio = times[naive] / times[tiled]
        status = "ok" if ratio >= floor else "FAIL"
        print(f"{tiled:32s} {ratio:7.2f}x over naive  "
              f"(floor {floor:.2f}x)  {status}")
        rows.append(
            {"config": cfg, "speedup_vs_naive": round(ratio, 3),
             "floor": floor, "ok": ratio >= floor}
        )
        if ratio < floor:
            failures.append(
                f"{tiled}: naive/tiled ratio {ratio:.2f}x below floor "
                f"{floor:.2f}x"
            )

    # Per-ISA tiled rows against the forced-scalar tiled row.
    levels = {}
    for name, t in times.items():
        base, sep, level = name.rpartition("/isa:")
        if sep and base == "BM_GemmTiled/ifp":
            levels[level] = t
    isa_rows = []
    if "scalar" not in levels:
        failures.append("missing BM_GemmTiled/ifp/isa:scalar baseline row")
    else:
        for level in sorted(levels, key=lambda lv: ISA_ORDER.get(lv, 99)):
            if level == "scalar":
                continue
            floor = GEMM_ISA_FLOORS.get(level)
            if floor is None:
                failures.append(f"unknown ISA level {level!r} in gemm rows")
                continue
            ratio = levels["scalar"] / levels[level]
            status = "ok" if ratio >= floor else "FAIL"
            print(f"BM_GemmTiled/ifp            {level:7s} {ratio:7.2f}x  "
                  f"(floor {floor:.2f}x)  {status}")
            isa_rows.append(
                {"isa": level, "speedup_vs_scalar": round(ratio, 3),
                 "floor": floor, "ok": ratio >= floor}
            )
            if ratio < floor:
                failures.append(
                    f"BM_GemmTiled/ifp: {level} speedup {ratio:.2f}x over "
                    f"scalar below floor {floor:.2f}x"
                )
    if require is not None and ISA_ORDER.get(best, -1) < ISA_ORDER[require]:
        failures.append(
            f"host best_supported={best} is below required level {require}"
        )

    if out_path is not None:
        artifact = {
            "gate": "tile-gemm",
            "isa_active": active,
            "isa_best_supported": best,
            "require": require,
            "floors": GEMM_FLOORS,
            "isa_floors": GEMM_ISA_FLOORS,
            "pairs": rows,
            "isa_rows": isa_rows,
            "host": {
                k: context.get(k)
                for k in ("host_name", "num_cpus", "mhz_per_cpu", "date",
                          "library_build_type", "runtime_threads")
                if k in context
            },
            "passed": not failures,
        }
        with open(out_path, "w") as f:
            json.dump(artifact, f, indent=2)
            f.write("\n")
        print(f"wrote {out_path}")

    if failures:
        print("\ntile-GEMM performance regression:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\ntile-GEMM engine at or above its blocked and per-ISA floors")
    return 0


# Ceiling on the fractional ABFT slowdown of the tiled ifp GEMM (detect and
# recover rows against the unguarded row; measured at merge ~2-4%), and the
# floor the full per-element screen must stay above for the checksum layer to
# keep earning its place as the cheap protection tier.
ABFT_MAX_OVERHEAD = 0.25
ABFT_GUARD_MIN_OVERHEAD = 1.0


def check_abft(argv: list) -> int:
    max_overhead = ABFT_MAX_OVERHEAD
    out_path = None
    paths = []
    for arg in argv:
        if arg.startswith("--max-overhead="):
            max_overhead = float(arg.split("=", 1)[1])
        elif arg.startswith("--out="):
            out_path = arg.split("=", 1)[1]
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(paths[0]) as f:
        validation = json.load(f)

    failures = []
    if validation.get("bench") != "abft_validation":
        failures.append(f"unexpected bench tag: {validation.get('bench')!r}")

    # Safety contract: the harness's own verdict plus each invariant
    # re-checked here, so a harness that stops computing one of them (or
    # starts passing vacuously with zero injections) fails the gate too.
    ff = validation.get("fault_free", {})
    inj = validation.get("injected", {})
    nf = validation.get("nonfinite", {})
    print(
        f"abft fault-free: {ff.get('points', 0)} points, "
        f"{ff.get('checksums', 0)} checksums, "
        f"{ff.get('detections', 0)} false positives "
        f"(residual_max {ff.get('residual_max', 0.0):.3f})"
    )
    print(
        f"abft injected: {inj.get('points', 0)} points, "
        f"{inj.get('injected', 0)} faults -> {inj.get('detections', 0)} "
        f"detections, {inj.get('recovered', 0)} blocks recovered, "
        f"silent_wrong={inj.get('silent_wrong')} "
        f"post_recovery_bad={inj.get('post_recovery_bad')}"
    )
    print(
        f"abft nonfinite: {nf.get('nonfinite_detections', 0)} non-finite "
        f"detections, {nf.get('nonfinite_out', 0)} non-finite outputs after "
        f"recovery"
    )
    if ff.get("detections", 1) != 0:
        failures.append(
            f"{ff.get('detections')} fault-free false positives (threshold "
            "calibration has drifted)"
        )
    if inj.get("injected", 0) < 1:
        failures.append("injection pass injected zero faults; proves nothing")
    if inj.get("detections", 0) < 1:
        failures.append("injection pass detected zero faults")
    if inj.get("silent_wrong", 1) != 0:
        failures.append(
            f"{inj.get('silent_wrong')} silent wrong answers (out-of-bound "
            "elements with no flagged axis -- the core invariant is broken)"
        )
    if inj.get("post_recovery_bad", 1) != 0:
        failures.append(
            f"{inj.get('post_recovery_bad')} elements still out of bound "
            "after recovery"
        )
    if nf.get("nonfinite_detections", 0) < 1:
        failures.append("exponent-fault pass raised no non-finite detections")
    if nf.get("nonfinite_out", 1) != 0:
        failures.append(
            f"{nf.get('nonfinite_out')} non-finite outputs survived recovery"
        )
    if not validation.get("passed", False):
        failures.append("abft_validation's own verdict is passed=false")

    # Overhead: machine-independent ratios within one micro_gemm report.
    times = load_times(paths[1])
    base = times.get("BM_GemmTiled/ifp")
    rows = []
    if base is None:
        failures.append("missing BM_GemmTiled/ifp baseline row in GEMM report")
    else:
        checks = [
            ("BM_GemmTiled/ifp/abft:detect", max_overhead, True),
            ("BM_GemmTiled/ifp/abft:recover", max_overhead, True),
            ("BM_GemmTiled/ifp/guarded", ABFT_GUARD_MIN_OVERHEAD, False),
        ]
        for name, bound, is_ceiling in checks:
            if name not in times:
                failures.append(f"missing benchmark row: {name}")
                continue
            overhead = times[name] / base - 1.0
            ok = overhead <= bound if is_ceiling else overhead > bound
            rel = "ceiling" if is_ceiling else "floor"
            print(
                f"{name:36s} {overhead * 100.0:+7.1f}%  "
                f"({rel} {bound * 100.0:.0f}%)  {'ok' if ok else 'FAIL'}"
            )
            rows.append(
                {"bench": name, "overhead": round(overhead, 4),
                 "bound": bound, "ceiling": is_ceiling, "ok": ok}
            )
            if not ok:
                failures.append(
                    f"{name}: overhead {overhead * 100.0:.1f}% "
                    f"{'above ceiling' if is_ceiling else 'below floor'} "
                    f"{bound * 100.0:.0f}%"
                )

    if out_path is not None:
        artifact = {
            "gate": "abft",
            "fault_free": ff,
            "injected": inj,
            "nonfinite": nf,
            "max_overhead": max_overhead,
            "guard_min_overhead": ABFT_GUARD_MIN_OVERHEAD,
            "overhead_rows": rows,
            "passed": not failures,
        }
        with open(out_path, "w") as f:
            json.dump(artifact, f, indent=2)
            f.write("\n")
        print(f"wrote {out_path}")

    if failures:
        print("\nABFT safety-contract regression:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(
        "\nABFT contract holds: no silent wrong answers, no false positives, "
        "checksum overhead inside its ceiling"
    )
    return 0


def main() -> int:
    if len(sys.argv) >= 2 and sys.argv[1] == "--sweep":
        return check_sweep(sys.argv[2:])
    if len(sys.argv) >= 2 and sys.argv[1] == "--isa":
        return check_isa(sys.argv[2:])
    if len(sys.argv) >= 2 and sys.argv[1] == "--gemm":
        return check_gemm(sys.argv[2:])
    if len(sys.argv) >= 2 and sys.argv[1] == "--abft":
        return check_abft(sys.argv[2:])
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    times = load_times(sys.argv[1])
    failures = []
    for scalar, floor in FLOORS.items():
        batch = batch_name(scalar)
        if scalar not in times or batch not in times:
            failures.append(f"missing benchmark pair: {scalar} / {batch}")
            continue
        ratio = times[scalar] / times[batch]
        status = "ok" if ratio >= floor else "FAIL"
        print(f"{scalar:32s} {ratio:7.2f}x  (floor {floor:.2f}x)  {status}")
        if ratio < floor:
            failures.append(
                f"{scalar}: scalar/batch ratio {ratio:.2f}x below floor "
                f"{floor:.2f}x"
            )
    if failures:
        print("\nbatched-kernel performance regression:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nall batched-kernel speedups at or above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
