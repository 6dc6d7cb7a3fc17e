"""Spans and per-layer metrics for the traced benchmark run.

The traced run wraps voxkit functions under the module attribute names that
their callers look them up by (``voxkit.pipeline.force_align``,
``voxkit.cli.read_manifest``, ...). Each wrapped call records one span: name,
start, end, parent span, items handled and whether it raised. Spans stay in
memory and are written out when the run ends. A name that has gone from its
module is skipped and reported as missing.

Calls nested inside another public function (EmissionMatrix validation inside
``load_emissions``, ``record_to_line`` and ``validate_record`` inside
``write_manifest``, ``validate_charset`` inside ``run_chain``) are not wrapped.
After the timed loop they are timed by calling that same function again on
inputs captured from the outer calls.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# Process CPU time, which leaves out time the hypervisor gives to other
# guests: the end-to-end clock of worker.py without the CPU of child
# processes, which no span inside this process could account for. In a
# single-threaded process it is a valid timeline for nesting spans.
now = time.process_time_ns

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("pipeline.ingest_ms", "ms", "lower"),
    ("pipeline.normalize_ms", "ms", "lower"),
    ("pipeline.romanize_ms", "ms", "lower"),
    ("pipeline.align_ms", "ms", "lower"),
    ("pipeline.filter_ms", "ms", "lower"),
    ("pipeline.finish_ms", "ms", "lower"),
    ("pipeline.shard_ms", "ms", "lower"),
    ("pipeline.keys_for_ms", "ms", "lower"),
    ("aligner.force_align_ms", "ms", "lower"),
    ("aligner.cells_per_s", "1/s", "higher"),
    ("aligner.failed", "count", "lower"),
    ("aligner.find_emissions_us", "us", "lower"),
    ("aligner.load_npz_ms", "ms", "lower"),
    ("aligner.load_emit_ms", "ms", "lower"),
    ("aligner.validate_ms", "ms", "lower"),
    ("textnorm.normalize_us", "us", "lower"),
    ("textnorm.romanize_us", "us", "lower"),
    ("textnorm.validate_charset_us", "us", "lower"),
    ("textnorm.load_profiles_ms", "ms", "lower"),
    ("textnorm.tables_ms", "ms", "lower"),
    ("manifest.read_per_s", "1/s", "higher"),
    ("manifest.write_per_s", "1/s", "higher"),
    ("manifest.record_to_line_us", "us", "lower"),
    ("manifest.validate_record_us", "us", "lower"),
    ("quality.run_chain_us", "us", "lower"),
    ("curate.select_eval_ms", "ms", "lower"),
    ("curate.compute_stats_ms", "ms", "lower"),
    ("cli.filter_ms", "ms", "lower"),
    ("cli.curate_eval_ms", "ms", "lower"),
    ("cli.stats_ms", "ms", "lower"),
    ("cli.shard_ms", "ms", "lower"),
    ("flowsched.schedule_table_us", "us", "lower"),
    ("flowsched.cfg_combine_us", "us", "lower"),
    ("editctl.apply_penalty_us", "us", "lower"),
    ("editctl.run_regen_us", "us", "lower"),
    ("editctl.chunk_us", "us", "lower"),
    ("editctl.stitch_ms", "ms", "lower"),
    ("editctl.stitch_samples_per_s", "1/s", "higher"),
    ("audio.read_wav_ms", "ms", "lower"),
    ("audio.write_wav_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

_SCALE = {"ms": 1e6, "us": 1e3}
_SAMPLE_CAP = 400          # captured inputs kept per nested function


class Tracer:
    """Span recorder. One instance per traced run; single-threaded."""

    def __init__(self):
        # span: [name, start_ns, end_ns, parent_index, items, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.missing: list[str] = []
        self.captured: dict[str, list] = {}
        self.counters: dict[str, float] = {}    # span name -> work units

    # ------------------------------------------------------------ spans

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, now(), 0, parent, 1, False])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, items: int = 1, failed: bool = False) -> None:
        span = self.spans[index]
        span[2] = now()
        span[4] = items
        span[5] = failed
        self._stack.pop()

    def add(self, name: str, start: int, end: int, parent: int,
            items: int = 1, failed: bool = False) -> int:
        self.spans.append([name, start, end, parent, items, failed])
        return len(self.spans) - 1

    def capture(self, key: str, value) -> None:
        bucket = self.captured.setdefault(key, [])
        if len(bucket) < _SAMPLE_CAP:
            bucket.append(value)

    def count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attr: str, name, *, items=None, work=None, on_call=None,
             failed_if=None, generator: bool = False) -> None:
        """Replace owner.attr by a span-recording wrapper, if it exists.

        ``name`` is the span name, or a function of the call's arguments that
        gives it. ``items(args, result)`` counts what one call handled;
        ``work(args)`` adds to the counter of that span name before the call,
        whether or not it raises; ``on_call(args, result)`` captures inputs for
        replay; ``failed_if(exc)`` says whether an exception is a fault rather
        than an expected rejection.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self
        span_name = name if callable(name) else (lambda args: name)

        if generator:
            def wrapped(*args, **kwargs):
                inner = original(*args, **kwargs)
                label = span_name(args)
                while True:
                    index = tracer.open(label)
                    try:
                        value = next(inner)
                    except StopIteration:
                        tracer.close(index, items=0)
                        return
                    except BaseException:
                        tracer.close(index, items=0, failed=True)
                        raise
                    tracer.close(index)
                    yield value
        else:
            def wrapped(*args, **kwargs):
                label = span_name(args)
                if work is not None:
                    tracer.count(label, work(args))
                index = tracer.open(label)
                try:
                    result = original(*args, **kwargs)
                except BaseException as exc:
                    tracer.close(index, items=0,
                                 failed=failed_if(exc) if failed_if else True)
                    raise
                tracer.close(index, items(args, result) if items else 1)
                if on_call is not None:
                    on_call(args, result)
                return result

        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------ pipeline stages

    def stage_spans(self, run_index: int, notes: list[tuple[int, str]],
                    failed_stage: str | None) -> None:
        """Turn run_pipeline progress timestamps into stage spans.

        ``notes`` are (timestamp, message) pairs from the progress callback.
        Ingest runs from the call's start to the first note, each stage from
        the previous note to its own, and ``finish`` (rejections, stats,
        shards, summary) from the last stage note to ``done``. A stage that
        raised ends where the call ended. Spans the wrappers recorded under
        the call are re-parented to the stage that contains them.
        """
        run = self.spans[run_index]
        cursor = run[1]
        stages = []
        last_stage_note = None
        for stamp, message in notes:
            head = message.split(":", 1)[0]
            if head == "done" and last_stage_note is not None:
                stages.append(self.add("pipeline.finish", last_stage_note, stamp, run_index))
            elif head not in ("shard", "done"):
                stages.append(self.add(f"pipeline.{head}", cursor, stamp, run_index))
                cursor = last_stage_note = stamp
        if failed_stage is not None:
            stages.append(self.add(f"pipeline.{failed_stage}", cursor, run[2], run_index,
                                   failed=True))
        stage_set = set(stages)
        for i in range(run_index + 1, len(self.spans)):
            span = self.spans[i]
            if span[3] != run_index or i in stage_set:
                continue
            for s in stages:
                stage = self.spans[s]
                if stage[1] <= span[1] and span[2] <= stage[2]:
                    span[3] = s
                    break

    # ------------------------------------------------------------ reporting

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total and self time, items, faults."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child_ns[span[3]] += span[2] - span[1]
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent, items, failed) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                        "items": 0, "failed": 0})
            agg["calls"] += 1
            agg["total_ns"] += end - start
            agg["self_ns"] += end - start - child_ns[i]
            agg["items"] += items
            agg["failed"] += int(bool(failed))
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, items, failed) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, items, failed]) + "\n")


def mean_time(agg: dict, name: str, unit: str) -> float | None:
    entry = agg.get(name)
    if not entry or not entry["calls"]:
        return None
    return entry["total_ns"] / entry["calls"] / _SCALE[unit]


def rate(agg: dict, name: str) -> float | None:
    entry = agg.get(name)
    if not entry or not entry["total_ns"] or not entry["items"]:
        return None
    return entry["items"] / (entry["total_ns"] / 1e9)


def replay(samples, fn) -> float | None:
    """Mean time in ns of fn(sample) over the captured samples."""
    if not samples:
        return None
    total = 0
    for sample in samples:
        start = now()
        fn(sample)
        total += now() - start
    return total / len(samples)


def per_layer(tracer: Tracer, replayed: dict[str, float | None]) -> tuple[dict, list]:
    """Every per-layer metric except the overhead, and those not exercised.

    A metric whose layer did no work in this workload reads 0 and is listed.
    """
    agg = tracer.aggregate()
    force = agg.get("aligner.force_align", {})
    cells = tracer.counters.get("aligner.force_align")
    values = {
        "pipeline.ingest_ms": mean_time(agg, "pipeline.ingest", "ms"),
        "pipeline.normalize_ms": mean_time(agg, "pipeline.normalize", "ms"),
        "pipeline.romanize_ms": mean_time(agg, "pipeline.romanize", "ms"),
        "pipeline.align_ms": mean_time(agg, "pipeline.align", "ms"),
        "pipeline.filter_ms": mean_time(agg, "pipeline.filter", "ms"),
        "pipeline.finish_ms": mean_time(agg, "pipeline.finish", "ms"),
        "pipeline.shard_ms": mean_time(agg, "pipeline.shard", "ms"),
        "pipeline.keys_for_ms": mean_time(agg, "pipeline.keys_for", "ms"),
        "aligner.force_align_ms": mean_time(agg, "aligner.force_align", "ms"),
        "aligner.cells_per_s": (cells / (force["total_ns"] / 1e9)
                                if cells and force.get("total_ns") else None),
        "aligner.failed": float(force["failed"]) if force else None,
        "aligner.find_emissions_us": mean_time(agg, "aligner.find_emissions", "us"),
        "aligner.load_npz_ms": mean_time(agg, "aligner.load_npz", "ms"),
        "aligner.load_emit_ms": mean_time(agg, "aligner.load_emit", "ms"),
        "aligner.validate_ms": _scaled(replayed.get("validate"), "ms"),
        "textnorm.normalize_us": mean_time(agg, "textnorm.normalize", "us"),
        "textnorm.romanize_us": mean_time(agg, "textnorm.romanize", "us"),
        "textnorm.validate_charset_us": _scaled(replayed.get("validate_charset"), "us"),
        "textnorm.load_profiles_ms": mean_time(agg, "textnorm.load_profiles", "ms"),
        "textnorm.tables_ms": mean_time(agg, "textnorm.tables", "ms"),
        "manifest.read_per_s": rate(agg, "manifest.read_manifest"),
        "manifest.write_per_s": rate(agg, "manifest.write_manifest"),
        "manifest.record_to_line_us": _scaled(replayed.get("record_to_line"), "us"),
        "manifest.validate_record_us": _scaled(replayed.get("validate_record"), "us"),
        "quality.run_chain_us": mean_time(agg, "quality.run_chain", "us"),
        "curate.select_eval_ms": mean_time(agg, "curate.select_eval", "ms"),
        "curate.compute_stats_ms": mean_time(agg, "curate.compute_stats", "ms"),
        "cli.filter_ms": mean_time(agg, "cli.filter", "ms"),
        "cli.curate_eval_ms": mean_time(agg, "cli.curate-eval", "ms"),
        "cli.stats_ms": mean_time(agg, "cli.stats", "ms"),
        "cli.shard_ms": mean_time(agg, "cli.shard", "ms"),
        "flowsched.schedule_table_us": mean_time(agg, "flowsched.schedule_table", "us"),
        "flowsched.cfg_combine_us": mean_time(agg, "flowsched.cfg_combine", "us"),
        "editctl.apply_penalty_us": mean_time(agg, "editctl.apply_penalty", "us"),
        "editctl.run_regen_us": mean_time(agg, "editctl.run_regen", "us"),
        "editctl.chunk_us": mean_time(agg, "editctl.chunk", "us"),
        "editctl.stitch_ms": mean_time(agg, "editctl.stitch", "ms"),
        "editctl.stitch_samples_per_s": rate(agg, "editctl.stitch"),
        "audio.read_wav_ms": mean_time(agg, "audio.read_wav", "ms"),
        "audio.write_wav_ms": mean_time(agg, "audio.write_wav", "ms"),
    }
    idle = sorted(name for name, value in values.items() if value is None)
    return {name: (0.0 if value is None else value) for name, value in values.items()}, idle


def _scaled(ns: float | None, unit: str) -> float | None:
    return None if ns is None else ns / _SCALE[unit]


def self_time_table(tracer: Tracer, limit: int = 14) -> list[tuple[str, int, float, float]]:
    """(name, calls, total ms, self ms) for the spans with the most self time."""
    agg = tracer.aggregate()
    rows = sorted(agg.items(), key=lambda kv: -kv[1]["self_ns"])[:limit]
    return [(name, e["calls"], e["total_ns"] / 1e6, e["self_ns"] / 1e6) for name, e in rows]
