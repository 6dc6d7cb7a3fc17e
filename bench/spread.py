"""Run-to-run spread: one run per seed, then quartiles per end-to-end metric.

    python3 bench/spread.py --workloads clips synth --seeds 1-10
    python3 bench/spread.py --seeds 11-20 --against bench/results/spread-1-10.json

For each workload and metric it prints the median of the runs and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of that median, next to the metric's bound in BENCHMARK.json,
and the same for the unscaled CPU-clock and the wall-clock figures each run
keeps in its details. With
--against it also prints how far each median moved from an earlier set, as a
share of the earlier median (positive: worse). Raw results go to
bench/results/spread-<first seed>-<last seed>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["clips", "longform", "recurate", "synth"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--against", help="an earlier set's spread-*.json")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace0.json")
                                .read_text(encoding="utf-8"))
            result["cpu"] = detail["untraced"]["cpu"]
            result["wall"] = detail["untraced"]["wall"]
            result["steal_s"] = detail["untraced"]["steal_s"]
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f" failed {result['failed']}/{result['attempted']}", flush=True)
    earlier = (json.loads(Path(args.against).read_text(encoding="utf-8"))
               if args.against else {})
    print()
    for workload, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        steal = statistics.median(r["steal_s"] for r in results)
        print(f"{workload}: failed share {sorted(shares)}, median steal {steal:.1f} s")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
            if len(values) < len(results):
                print(f"  {name:12s} missing from {len(results) - len(values)} runs")
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            line = (f"  {name:12s} median {med:10.4g}  spread {(q3 - q1) / med:6.3f}"
                    f"  bound {metric['bound']}")
            sign = 1 if metric["better"] == "lower" else -1
            before = [r["metrics"][name]["value"] for r in earlier.get(workload, [])
                      if name in r["metrics"]]
            if len(before) >= 2:
                old = statistics.median(before)
                line += f"  moved {sign * (med - old) / old:+.3f}"
            for clock in ("cpu", "wall"):
                alt = [r[clock][name] for r in results if r.get(clock, {}).get(name)]
                if len(alt) < 2:
                    continue
                a1, amed, a3 = statistics.quantiles(alt, n=4)
                line += f"  | {clock} {amed:.4g} spread {(a3 - a1) / amed:.3f}"
                before = [r[clock][name] for r in earlier.get(workload, [])
                          if r.get(clock, {}).get(name)]
                if len(before) >= 2:
                    old = statistics.median(before)
                    line += f" moved {sign * (amed - old) / old:+.3f}"
            print(line)
    out = BENCH / "results" / f"spread-{seeds[0]}-{seeds[-1]}.json"
    out.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
