"""Tiny-mode self-check of the benchmark: every workload, its output checks,
the traced run, and the refusal to run without a source tree. It asserts no
timings and takes well under a minute.

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(["bench/run.py", "--workload", workload, "--seed", "1",
                        "--seconds", "0.2", "--trace", str(trace), "--tiny"], ROOT)
            result = last_json(proc.stdout)
            tag = f"{workload} trace {trace}"
            if proc.returncode != 0 or result is None:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            if set(result) != RESULT_KEYS or not result["correct"]:
                problems.append(f"{tag}: bad result {result}\n{proc.stderr[-2000:]}")
                continue
            want = per_layer if trace else end_to_end
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {sorted(got)} != {sorted(want)}")
            if not 0 <= result["failed"] < result["attempted"]:
                problems.append(f"{tag}: counts {result['attempted']}/{result['failed']}")
            # Only longform's seed-independent batch of over 63 letters a
            # record fails today, once in every round of the tiny pool's three.
            failed = result["attempted"] // 3 if workload == "longform" else 0
            if result["failed"] != failed:
                problems.append(f"{tag}: {result['failed']} operations failed, not {failed}")
            print(f"{tag}: ok, {result['attempted']} attempted, {result['failed']} failed")

    # Without the source tree next to it the benchmark must refuse to run.
    bare = BENCH / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run(["bench/run.py", "--workload", "clips", "--seed", "1", "--seconds", "1",
                "--trace", "0"], bare)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"bare directory: refused with exit {proc.returncode}")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
