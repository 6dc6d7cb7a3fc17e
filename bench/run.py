"""voxkit benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload clips --seed 1 --seconds 15 --trace 0

Steps, each in a fresh process:
1. ``gen.py`` writes the seeded inputs under ``bench/cache`` (skipped when
   that seed is already cached).
2. ``worker.py --probe`` measures set-up time, several times.
3. ``worker.py`` runs the workload in a closed loop for ``--seconds``, checks
   every output and reports counts, latencies and peak RSS.

With ``--trace 1`` a second worker runs the same loop with every layer
wrapped, and the result holds the per-layer metrics plus the tracing
overhead (how much lower the traced run's items_per_s is). The last line of
standard output is the result; details go to ``bench/results``. Runs only
against the ``src`` tree of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE, WORK, RESULTS = BENCH / "cache", BENCH / "work", BENCH / "results"
WORKLOADS = ("clips", "longform", "recurate", "synth")
END_TO_END = (("items_per_s", "1/s"), ("p50_ms", "ms"), ("p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 10
CACHED_SEEDS = 12          # per workload; older generated inputs are removed
WORKER_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # nproc is small and every workload is single-threaded: pin BLAS/OpenMP.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    return env


def _python(args: list[str], timeout: float) -> str:
    """Run a Python helper to completion and return its standard output."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(), text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args[0]} exited with code {proc.returncode}")
    return proc.stdout


def inputs_for(workload: str, seed: int, tiny: bool) -> Path:
    # Keyed by the generator's own source, so that a changed generator never
    # reuses inputs an older one wrote.
    version = hashlib.sha256((BENCH / "gen.py").read_bytes()).hexdigest()[:12]
    base = CACHE / ("tiny" if tiny else "full") / workload
    data = base / f"seed-{seed}-{version}"
    if not (data / "meta.json").exists():
        shutil.rmtree(data, ignore_errors=True)
        staging = base / f".seed-{seed}.partial"
        shutil.rmtree(staging, ignore_errors=True)
        args = [str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
                "--out", str(staging)]
        _python(args + (["--tiny"] if tiny else []), timeout=300)
        _flush(staging)
        staging.rename(data)
        old = sorted((p for p in base.glob("seed-*") if p != data),
                     key=lambda p: p.stat().st_mtime)
        for path in old[:max(0, len(old) - CACHED_SEEDS + 1)]:
            shutil.rmtree(path, ignore_errors=True)
    return data


def _flush(directory: Path) -> None:
    """Write the generated files through to disk before anything is timed.

    Otherwise the kernel writes them back during the first seconds of the
    run, and on recurate (tens of MB a seed) that made the first passes
    after fresh inputs a quarter slower than the rest.
    """
    for path in sorted(directory.rglob("*")):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def setup_seconds(workload: str, probes: int) -> float:
    probe = [str(BENCH / "worker.py"), "--probe", workload]
    _python(probe, timeout=60)          # untimed: fills the bytecode cache
    return statistics.median(float(_python(probe, timeout=60)) for _ in range(probes))


def run_worker(workload: str, data: Path, seconds: float, trace: bool, tiny: bool) -> dict:
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    args = [str(BENCH / "worker.py"), "--workload", workload, "--data", str(data),
            "--work", str(work), "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        args += ["--spans", str(RESULTS / f"spans-{workload}.jsonl")]
    if tiny:
        args += ["--min-ops", "2", "--warmup", "1"]
    try:
        out = _python(args, timeout=WORKER_TIMEOUT_S)
    finally:
        # The outputs are checked inside the worker. Removed now, before
        # the kernel writes them back, they cannot slow the next run's
        # first operations.
        shutil.rmtree(work, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])


def _figures(summary: dict) -> str:
    return ", ".join(f"{name} {summary[name]:.4g}" for name, _ in END_TO_END[:3]
                     if summary[name] is not None) or "no completed operation"


def tracing_overhead_pct(base: dict, traced: dict) -> float:
    """How much lower the traced run's items_per_s is, in percent.

    Where a run completed no operation it compares attempted operations
    per CPU second instead.
    """
    if base["items_per_s"] and traced["items_per_s"]:
        return 100.0 * (1.0 - traced["items_per_s"] / base["items_per_s"])
    rate = [r["attempted"] / r["attempted_cpu_s"] for r in (base, traced)]
    return 100.0 * (1.0 - rate[1] / rate[0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and few operations, for the self-check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "voxkit" / "__init__.py").is_file():
        print(f"error: no voxkit source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(parents=True, exist_ok=True)

    data = inputs_for(args.workload, args.seed, args.tiny)
    base = run_worker(args.workload, data, args.seconds, False, args.tiny)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "untraced": base}
    if args.trace:
        traced = run_worker(args.workload, data, args.seconds, True, args.tiny)
        detail["traced"] = traced
        runs = (base, traced)
    else:
        detail["setup_s"] = setup_seconds(args.workload, 1 if args.tiny else SETUP_PROBES)
        runs = (base,)

    correct = all(r["correct"] for r in runs)
    for r in runs:
        for error in r["errors"]:
            print(f"check failed: {error}", file=sys.stderr)
        for label, n in r["failures"].items():
            print(f"failed {n}x: {label}", file=sys.stderr)
    metrics = {}
    if correct and args.trace:
        overhead = tracing_overhead_pct(base, traced)
        values = dict(traced["per_layer"], **{"trace.overhead_pct": overhead})
        import spans
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
        print(f"tracing overhead {overhead:.1f}% of untraced items_per_s; "
              f"not exercised here: {', '.join(traced['idle']) or 'none'}; "
              f"missing: {', '.join(traced['missing']) or 'none'}", file=sys.stderr)
        for name, calls, total_ms, self_ms in traced["self_time"]:
            print(f"  {name:32s} {calls:8d} calls {total_ms:10.1f} ms "
                  f"{self_ms:10.1f} ms self", file=sys.stderr)
    elif correct:
        print(f"wall clock: {_figures(base['wall'])}; steal {base['steal_s']:.1f} s",
              file=sys.stderr)
        values = dict(base, setup_s=detail["setup_s"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END if values[name] is not None}
    result = {"correct": correct, "attempted": runs[-1]["attempted"],
              "failed": runs[-1]["failed"], "metrics": metrics}
    detail["result"] = result
    tag = "-tiny" if args.tiny else ""
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}{tag}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
