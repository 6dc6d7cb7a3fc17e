"""The process under test: one workload in a closed loop, then its checks.

    python3 bench/worker.py --workload clips --data DIR --work DIR --seconds 15
    python3 bench/worker.py --probe clips

One client, one thread: the next operation starts when the previous one has
returned. Inputs are read from files the generator wrote; this process
generates nothing. It prints one JSON line with the operation counts,
latencies, peak RSS (read before the checks run) and, with --trace, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans as tracing

now = time.perf_counter_ns


def cpu_now() -> int:
    """CPU time of this process plus that of its waited-for children, in ns.

    Operations and set-up are timed on this clock: on a shared virtual machine
    the hypervisor can take a third of the wall time (the steal column of
    /proc/stat), which a CPU clock leaves out. Child processes count, so work
    moved into a process pool is not free; work moved onto threads is summed
    across them, so this clock cannot show a gain from parallelism. Wall
    times are kept alongside in the run's details.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time_ns() + int((children.ru_utime + children.ru_stime) * 1e9)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any waited-for child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


# Even on the CPU clock this shared machine's speed drifts by a fifth over
# minutes, with the load other guests put on the host, and in step for every
# operation of a run. So a helper process (pace.py) times a fixed reference
# kernel between operations, on the same CPU, and operation times are
# reported scaled by REFERENCE_NS over the kernel's median pass in the run.
# The helper shares no memory with this process, and after each operation it
# runs the same number of passes, whatever the operation's length, the first
# of which is dropped: the operation has just evicted the kernel from the
# CPU's caches, by as much as voxkit's working set, so only warm passes
# count.
REFERENCE_NS = 1_000_000
PACE_PASSES = 2


class Pacer:
    """The reference-kernel helper, run in lockstep: this process waits."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("pace.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.passes: list[int] = []

    def sample(self) -> None:
        self.proc.stdin.write(f"{1 + PACE_PASSES}\n")
        self.proc.stdin.flush()
        self.passes.extend(int(t) for t in self.proc.stdout.readline().split()[1:])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


P90_MIN_OPS = 100      # completed operations, so that p90 has ten samples beyond it
MAX_LOOP_S = 60        # stop at the next round's end even short of the floor


def probe(workload: str) -> None:
    """Set-up time of a fresh process: import, profiles, transliteration tables."""
    start = cpu_now()
    import voxkit
    if workload != "synth":
        voxkit.load_profiles()
        voxkit.romanize("a", "en")
    print((cpu_now() - start) / 1e9)


# --------------------------------------------------------------- workloads

class PipelineWorkload:
    """clips and longform: one run_pipeline call per batch.

    A run attempts whole rounds of every batch, so each run holds the same
    mix of work; on longform each round holds the one batch that fails
    today, so the failed share is the same in every run.
    """

    MIN_OPS = P90_MIN_OPS      # completed operations before the loop may stop
    WARMUP = 3

    def __init__(self, vk, data: Path, work: Path, meta: dict, expect: dict):
        self.vk, self.meta, self.expect = vk, meta, expect
        profiles = vk.load_profiles()
        fcfg = vk.FilterConfig(profiles=profiles, **meta["filter"])
        self.batches = meta["batches"]
        self.configs = [vk.PipelineConfig(
            input_path=data / b["manifest"], output_dir=work / f"b{i:03d}",
            filter_config=fcfg, profiles=profiles, emissions_dir=data / "emissions",
            shard_count=meta["shard_count"], workers=1) for i, b in enumerate(self.batches)]
        self.completed: dict[int, bool] = {}
        self.tracer = None

    def __len__(self):
        return len(self.batches)

    @property
    def round(self):
        return len(self.batches)

    def items(self, i):
        return len(self.batches[i]["keys"])

    def op(self, i):
        if self.tracer is None:
            return self.vk.run_pipeline(self.configs[i])
        notes = []
        run = self.tracer.open("pipeline.run_pipeline")
        failed_stage = None
        try:
            return self.vk.run_pipeline(self.configs[i],
                                        progress=lambda m: notes.append((tracing.now(), m)))
        except Exception as exc:
            failed_stage = getattr(exc, "stage", "unknown")
            raise
        finally:
            self.tracer.close(run, self.items(i), failed=failed_stage is not None)
            self.tracer.stage_spans(run, notes, failed_stage)

    def after(self, i, result, failed):
        self.completed[i] = not failed
        return []

    def check(self):
        errors = []
        for i, completed in sorted(self.completed.items()):
            errors += checks.check_pipeline_batch(
                self.configs[i].output_dir, self.batches[i]["keys"], self.expect,
                completed, self.meta["shard_count"])
        return errors

    def instrument(self, tracer):
        self.tracer = tracer
        vk = self.vk
        pipeline = sys.modules["voxkit.pipeline"]

        def cells(args):
            emissions, tokens = args[0], args[1]
            return emissions.n_frames * (2 * sum(len(t) for t in tokens) + 1)

        def fault(exc):
            return not isinstance(exc, vk.AlignmentError)

        tracer.wrap(pipeline, "normalize", "textnorm.normalize")
        tracer.wrap(pipeline, "romanize", "textnorm.romanize")
        tracer.wrap(pipeline, "find_emissions", "aligner.find_emissions")
        tracer.wrap(pipeline, "load_emissions",
                    lambda args: "aligner.load_npz" if str(args[0]).endswith(".npz")
                    else "aligner.load_emit",
                    on_call=lambda args, result: tracer.capture("emissions", (args[0], result)))
        tracer.wrap(pipeline, "force_align", "aligner.force_align", work=cells,
                    failed_if=fault)
        tracer.wrap(pipeline, "run_chain", "quality.run_chain",
                    on_call=lambda args, result: tracer.capture("run_chain", args))
        _wrap_manifest_and_shards(tracer, pipeline)

    def replay(self, tracer):
        return {**_replay_emissions(self.vk, tracer), **_replay_manifest(self.vk, tracer),
                **_replay_charset(self.vk, tracer)}


class RecurateWorkload:
    """recurate: four CLI commands over one already-aligned manifest."""

    COMMANDS = ("filter", "curate-eval", "stats", "shard")
    # A pass takes seconds, so a run makes ten, not a hundred: its p90_ms is
    # the ninth of ten by nearest rank. No pass fails, so a round is one pass.
    # The first pass over each manifest ran up to a third slower than the
    # later ones (it creates the output files they overwrite), so each
    # manifest gets one untimed pass.
    MIN_OPS = 10
    WARMUP = 4
    round = 1

    def __init__(self, vk, data: Path, work: Path, meta: dict, expect: dict):
        import voxkit.cli
        self.vk, self.cli, self.meta, self.expect = vk, voxkit.cli, meta, expect
        self.manifests = meta["manifests"]
        self.inputs = [data / m["manifest"] for m in self.manifests]
        self.outs = [work / f"m{i:03d}" for i in range(len(self.manifests))]
        flt = meta["filter"]
        thresholds = [a for spec, value in meta["thresholds"].items()
                      for a in ("--threshold", f"{spec}={value}")]
        self.argv = []
        for src, out in zip(self.inputs, self.outs):
            out.mkdir(parents=True, exist_ok=True)
            self.argv.append([
                ["filter", "-i", str(src), "-o", str(out / "clean.jsonl"),
                 "--rejects", str(out / "rejects.jsonl"),
                 "--min-duration-s", str(flt["min_duration_s"]),
                 "--max-duration-s", str(flt["max_duration_s"]),
                 "--max-gap-s", str(flt["max_gap_s"]), *thresholds],
                ["curate-eval", "-i", str(out / "clean.jsonl"), "-o", str(out / "eval.jsonl"),
                 "--trims", str(out / "trims.jsonl"), "--target", str(meta["eval_target"])],
                ["stats", "-i", str(out / "clean.jsonl"), "--json"],
                ["shard", "-i", str(out / "clean.jsonl"), "-o", str(out / "shards"),
                 "-n", str(meta["shards"])],
            ])
        self.stats_text: dict[int, str] = {}
        self.tracer = None

    def __len__(self):
        return len(self.manifests)

    def items(self, i):
        return len(self.manifests[i]["keys"])

    def op(self, i):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            for name, argv in zip(self.COMMANDS, self.argv[i]):
                span = self.tracer.open(f"cli.{name}") if self.tracer else None
                code = self.cli.main(argv)
                if span is not None:
                    self.tracer.close(span, failed=code != 0)
                if code != 0:
                    raise RuntimeError(f"voxkit {name} exited with code {code}")
        return stdout.getvalue()

    def after(self, i, result, failed):
        if not failed:
            self.stats_text[i] = result
        return []

    def check(self):
        errors = []
        for i, text in sorted(self.stats_text.items()):
            with open(self.inputs[i], encoding="utf-8") as fh:
                inputs = [json.loads(line) for line in fh if line.strip()]
            errors += checks.check_recurate_pass(self.outs[i], inputs, self.expect, text,
                                                 self.meta["eval_target"], self.meta["shards"])
        return errors

    def instrument(self, tracer):
        self.tracer = tracer
        tracer.wrap(self.cli, "run_chain", "quality.run_chain",
                    on_call=lambda args, result: tracer.capture("run_chain", args))
        tracer.wrap(self.cli, "select_eval", "curate.select_eval")
        _wrap_manifest_and_shards(tracer, self.cli)

    def replay(self, tracer):
        return {**_replay_manifest(self.vk, tracer), **_replay_charset(self.vk, tracer)}


class SynthWorkload:
    """synth: one synthesis request's control calls, in order."""

    MIN_OPS = P90_MIN_OPS
    WARMUP = 3

    def __init__(self, vk, data: Path, work: Path, meta: dict, expect: dict):
        from voxkit import audio, editctl, flowsched
        self.audio, self.editctl, self.flowsched = audio, editctl, flowsched
        self.meta, self.requests, self.rate = meta, meta["requests"], meta["rate"]
        self.bank = np.load(data / "logits_bank.npy")
        self.rows = [self.bank[k] for k in range(self.bank.shape[0])]
        self.arrays = []
        for req in self.requests:
            with np.load(data / req["arrays"]) as z:
                self.arrays.append({name: z[name] for name in z.files})
        self.tokens = [a["tokens"].tolist() for a in self.arrays]
        self.chunks = [[str(data / c) for c in req["chunks"]] for req in self.requests]
        work.mkdir(parents=True, exist_ok=True)
        self.outputs = [work / f"r{i:03d}.wav" for i in range(len(self.requests))]
        self.tracer = None

    def __len__(self):
        return len(self.requests)

    @property
    def round(self):
        return len(self.requests)

    def items(self, i):
        return 1

    def op(self, i):
        req, arrays, tokens = self.requests[i], self.arrays[i], self.tokens[i]
        fs, ec, au = self.flowsched, self.editctl, self.audio
        rows = fs.schedule_table(fs.GuidanceParams(strength=req["strength"]),
                                 fs.SwayParams(gamma=req["gamma"], steps=req["steps"]))
        cond, uncond = arrays["cond"], arrays["uncond"]
        cfg = [fs.cfg_combine(cond, uncond, g) for _, _, _, g in rows[:-1]]
        params = ec.PenaltyParams(req["repetition_penalty"])
        n_rows = len(self.rows)
        penalty = []
        for k in range(len(tokens)):
            factor = ec.penalty_factor(params, k)
            penalty.append((factor, ec.apply_penalty(self.rows[k % n_rows], tokens[:k], factor)))
        regen = req["regen"]
        start = ec.RegenController(**regen)
        outcomes = [ec.GenerationOutcome(int(f), bool(b))
                    for f, b in zip(arrays["att_frames"], arrays["att_flags"])]
        decisions = ec.run_regen(start, outcomes)
        intervals = ec.chunk(req["duration_s"], req["max_chunk_s"], req["overlap_s"])
        segments = [au.read_wav(path)[0] for path in self.chunks[i]]
        stitched, plan = ec.stitch(segments, self.rate, req["fade_s"], req["overlap_s"])
        au.write_wav(self.outputs[i], stitched, self.rate)
        return {"schedule": rows, "cfg": cfg, "penalty": penalty, "regen": (decisions, start),
                "intervals": intervals, "segments": segments, "stitched": stitched,
                "plan": plan}

    def after(self, i, result, failed):
        if failed:
            return []
        return [f"request {i}: {e}" for e in checks.check_request(
            self.requests[i], self.arrays[i], self.bank, result, self.rate, self.outputs[i])]

    def check(self):
        return []

    def instrument(self, tracer):
        self.tracer = tracer
        fs, ec, au = self.flowsched, self.editctl, self.audio
        tracer.wrap(fs, "schedule_table", "flowsched.schedule_table")
        tracer.wrap(fs, "cfg_combine", "flowsched.cfg_combine")
        tracer.wrap(ec, "apply_penalty", "editctl.apply_penalty")
        tracer.wrap(ec, "run_regen", "editctl.run_regen")
        tracer.wrap(ec, "chunk", "editctl.chunk")
        tracer.wrap(ec, "stitch", "editctl.stitch", items=lambda args, result: len(result[0]))
        tracer.wrap(au, "read_wav", "audio.read_wav")
        tracer.wrap(au, "write_wav", "audio.write_wav")

    def replay(self, tracer):
        return {}


WORKLOADS = {"clips": PipelineWorkload, "longform": PipelineWorkload,
             "recurate": RecurateWorkload, "synth": SynthWorkload}


# --------------------------------------------------------------- shared tracing

def _wrap_manifest_and_shards(tracer, module):
    def keep_records(args, result):
        if isinstance(args[0], list):
            for record in args[0][:8]:
                tracer.capture("records", record)

    tracer.wrap(module, "read_manifest", "manifest.read_manifest", generator=True)
    tracer.wrap(module, "write_manifest", "manifest.write_manifest",
                items=lambda args, written: written, on_call=keep_records)
    tracer.wrap(module, "compute_stats", "curate.compute_stats")
    tracer.wrap(module, "shard", "pipeline.shard")
    assignment = getattr(sys.modules["voxkit.pipeline"], "ShardAssignment", None)
    if assignment is None:
        tracer.missing.append("voxkit.pipeline.ShardAssignment")
    else:
        tracer.wrap(assignment, "keys_for", "pipeline.keys_for")


def _replay_emissions(vk, tracer):
    def validate(sample):
        path, loaded = sample
        if str(path).endswith(".npz"):
            with np.load(path) as z:
                raw = z["log_probs"]
        else:
            raw = loaded.log_probs.copy()
        return raw, loaded.frame_dur_s, loaded.vocab

    inputs = [validate(s) for s in tracer.captured.get("emissions", [])]
    return {"validate": tracing.replay(
        inputs, lambda s: vk.EmissionMatrix(log_probs=s[0], frame_dur_s=s[1], vocab=s[2]))}


def _replay_manifest(vk, tracer):
    records = tracer.captured.get("records", [])
    return {"record_to_line": tracing.replay(records, vk.record_to_line),
            "validate_record": tracing.replay(records, vk.validate_record)}


def _replay_charset(vk, tracer):
    samples = [(record.raw_text, config.profiles[record.language], config.max_symbol_fraction)
               for record, config in tracer.captured.get("run_chain", [])
               if record.language in config.profiles]
    return {"validate_charset": tracing.replay(samples, lambda s: vk.validate_charset(*s))}


# --------------------------------------------------------------- main loop

def run(args) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    start = now()
    import voxkit as vk
    if tracer is not None and args.workload != "synth":
        tracer.add("textnorm.load_profiles", *_timed(vk.load_profiles), -1)
        tracer.add("textnorm.tables", *_timed(lambda: vk.romanize("a", "en")), -1)
    data, work = Path(args.data), Path(args.work)
    meta = json.loads((data / "meta.json").read_text(encoding="utf-8"))
    expect = json.loads((data / "expect.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](vk, data, work, meta, expect)

    errors: list[str] = []
    failures: dict[str, int] = {}

    def attempt(i):
        c0, t0 = cpu_now(), now()
        try:
            result, failed = workload.op(i), False
        except Exception as exc:
            cause = exc.__cause__
            label = (f"{type(exc).__name__} at stage {getattr(exc, 'stage', '-')}"
                     + (f" caused by {type(cause).__name__}" if cause else ""))
            failures[label] = failures.get(label, 0) + 1
            result, failed = None, True
        elapsed, cpu = now() - t0, cpu_now() - c0
        errors.extend(workload.after(i, result, failed))
        return elapsed, cpu, failed

    n_pool, round_len = len(workload), workload.round
    warmup = workload.WARMUP if args.warmup is None else args.warmup
    min_ops = workload.MIN_OPS if args.min_ops is None else args.min_ops
    for i in range(min(warmup, n_pool)):
        attempt(i)
    failures.clear()
    if tracer is not None:
        workload.instrument(tracer)
    # Latencies and items of completed operations only: a failed operation
    # is counted in `failed` and timed nowhere.
    latencies, cpu_times, items, attempted, failed = [], [], 0, 0, 0
    attempted_cpu = 0
    pacer = Pacer()
    try:
        steal0 = _steal_ticks()
        i = warmup
        loop_start = now()
        deadline = loop_start + int(args.seconds * 1e9)
        cap = loop_start + int(MAX_LOOP_S * 1e9)
        while True:
            k = i % n_pool
            elapsed, cpu, was_failed = attempt(k)
            pacer.sample()
            attempted += 1
            attempted_cpu += cpu
            if was_failed:
                failed += 1
            else:
                latencies.append(elapsed)
                cpu_times.append(cpu)
                items += workload.items(k)
            i += 1
            if attempted % round_len:
                continue
            t = now()
            if (t >= deadline and len(latencies) >= min_ops) or t >= cap:
                break
        rss_mb = peak_rss_mb()
    finally:
        pacer.close()
    kernel_ns = statistics.median(pacer.passes)
    per_layer = idle = None
    if tracer is not None:
        tracer.unwrap()
        replayed = workload.replay(tracer)
        per_layer, idle = tracing.per_layer(tracer, replayed)
        if args.spans:
            tracer.write(Path(args.spans))
    errors.extend(workload.check())

    result = {
        "correct": not errors, "errors": errors[:20], "attempted": attempted,
        "failed": failed, "failures": failures, "items": items,
        **_summary([t * REFERENCE_NS / kernel_ns for t in cpu_times], items),
        "latencies_ms": [t * REFERENCE_NS / kernel_ns / 1e6 for t in cpu_times],
        "reference_ms": kernel_ns / 1e6, "kernel_passes": len(pacer.passes),
        "cpu": _summary(cpu_times, items), "wall": _summary(latencies, items),
        "attempted_cpu_s": attempted_cpu / 1e9,
        "steal_s": (_steal_ticks() - steal0) / os.sysconf("SC_CLK_TCK"),
        "peak_rss_mb": rss_mb, "wall_s": (now() - start) / 1e9,
    }
    if tracer is not None:
        result.update(per_layer=per_layer, idle=idle, missing=tracer.missing,
                      self_time=tracing.self_time_table(tracer))
    return result


def _summary(times_ns: list[int], items: int) -> dict:
    """Throughput and latency of the completed operations; None where none did."""
    times = sorted(times_ns)
    if not times:
        return {"timed_s": 0.0, "items_per_s": None, "p50_ms": None, "p90_ms": None}
    return {"timed_s": sum(times) / 1e9, "items_per_s": items / (sum(times) / 1e9),
            "p50_ms": statistics.median(times) / 1e6,
            "p90_ms": times[math.ceil(0.9 * len(times)) - 1] / 1e6}


def _steal_ticks() -> int:
    """Ticks the hypervisor ran other guests on this machine's CPUs."""
    with open("/proc/stat", encoding="ascii") as fh:
        return int(fh.readline().split()[8])


def _timed(fn):
    t0 = tracing.now()
    fn()
    return t0, tracing.now()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", choices=sorted(WORKLOADS))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--data")
    parser.add_argument("--work")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--min-ops", type=int,
                        help="attempted operations before the loop may stop "
                             "(default: the workload's own floor)")
    parser.add_argument("--warmup", type=int,
                        help="untimed operations first (default: the workload's own)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="write the traced run's spans here")
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0
    # One CPU for this process and the pace.py helper it starts, so that the
    # reference kernel runs where the operations run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (args.workload and args.data and args.work):
        parser.error("--workload, --data and --work are required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
