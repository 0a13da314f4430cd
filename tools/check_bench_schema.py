#!/usr/bin/env python3
"""Schema check for the tracked bench JSON trajectory files.

BENCH_EPOCH_THROUGHPUT.json and BENCH_RECOVERY.json accumulate one JSON
object per line across PRs. Schema drift — a bench gaining a field
without the tracked records being regenerated — makes a file lie by
omission (e.g. older epoch_throughput records silently lacking
halo_words/partition/halo, so a halo regression hides in rows that
cannot express it). This check pins the full per-bench field set: every
tracked record must carry every field its bench emits today. For the
recovery drills it additionally pins the semantic contract: an
exact-mode run that recovered must be bitwise identical to its
uninterrupted baseline.

Run from the repo root (CI does):  python3 tools/check_bench_schema.py
"""

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRACKED_FILES = [REPO / "BENCH_EPOCH_THROUGHPUT.json",
                 REPO / "BENCH_RECOVERY.json"]

# Full field set per bench type, matching the printf emitters in
# bench/bench_epoch_throughput.cpp and bench/bench_partitioning_edgecut.cpp.
SCHEMAS = {
    "epoch_throughput": {
        "schema_version", "bench", "algebra", "world", "threads", "n",
        "degree", "f", "hidden", "epochs", "seconds", "warmup_seconds",
        "epochs_per_sec", "dense_words", "sparse_words", "transpose_words",
        "halo_words", "compress", "compressed_words", "stale_k",
        "stale_words_saved", "preagg", "partition", "halo",
        "max_remote_rows", "fanouts", "batch_size", "sampled_words",
        "latency_units", "overlap_regions", "overlap_saved_modeled_s",
        "phase_misc", "phase_trpose", "phase_dcomm", "phase_scomm",
        "phase_spmm", "phase_hpack", "phase_cpack",
    },
    "partition_edgecut_epoch": {
        "schema_version", "bench", "partitioner", "world", "n", "f",
        "max_remote_rows", "predicted_halo_words", "halo_words",
        "broadcast_total_words", "halo_total_words", "words_reduction",
        "overlap_regions", "phase_hpack", "bcast_eps", "halo_eps",
    },
    # bench/bench_recovery.cpp — the chaos/recovery drill harness.
    "recovery_drill": {
        "schema_version", "bench", "algebra", "world", "compress",
        "action", "site", "category", "nth", "epochs", "ckpt_every",
        "restarts", "retrained_epochs",
        "checkpoints_written", "checkpoint_write_seconds", "recovered",
        "bitwise_identical", "seconds", "baseline_seconds",
        "recovery_overhead_s",
    },
}

# The schema_version each bench emits today. A record carrying a stale
# version means the tracked file was not regenerated after a schema bump.
SCHEMA_VERSIONS = {
    "epoch_throughput": 5,
    "partition_edgecut_epoch": 3,
    "recovery_drill": 2,
}

# Values the "compress" field may take (the CAGNET_COMPRESS codec names).
COMPRESS_MODES = {"off", "int8"}


def check_file(tracked: Path) -> list:
    errors = []
    for lineno, line in enumerate(tracked.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {lineno}: not valid JSON ({e})")
            continue
        bench = record.get("bench")
        if bench not in SCHEMAS:
            errors.append(f"line {lineno}: unknown bench type {bench!r}")
            continue
        expected = SCHEMAS[bench]
        missing = expected - record.keys()
        extra = record.keys() - expected
        if missing:
            errors.append(
                f"line {lineno} ({bench}): missing fields "
                f"{sorted(missing)} — regenerate the record with the "
                f"current bench binary")
        if extra:
            errors.append(
                f"line {lineno} ({bench}): unknown fields {sorted(extra)} "
                f"— update SCHEMAS in tools/check_bench_schema.py alongside "
                f"the bench emitter")
        version = record.get("schema_version")
        want = SCHEMA_VERSIONS[bench]
        if version != want:
            errors.append(
                f"line {lineno} ({bench}): schema_version {version!r} != "
                f"{want} — regenerate the record with the current bench "
                f"binary")
        if "compress" in record and record["compress"] not in COMPRESS_MODES:
            errors.append(
                f"line {lineno} ({bench}): compress "
                f"{record['compress']!r} is not one of "
                f"{sorted(COMPRESS_MODES)}")
        if "compressed_words" in record:
            words = record["compressed_words"]
            if not isinstance(words, (int, float)) or words < 0:
                errors.append(
                    f"line {lineno} ({bench}): compressed_words "
                    f"{words!r} must be a non-negative number")
            if record.get("compress") == "off" and words != 0:
                errors.append(
                    f"line {lineno} ({bench}): compress=off must meter "
                    f"zero compressed_words, got {words!r}")
        if bench == "epoch_throughput":
            # Bounded-staleness fields (CAGNET_STALE): stale_k is the
            # refresh-rate mode and stale_words_saved the metered halo
            # words the cache-replay epochs elided. With staleness off
            # nothing is ever skipped, so a non-zero saving in an "off"
            # row means the meter (or the record) is lying.
            stale_k = record.get("stale_k")
            if not (stale_k == "off"
                    or (isinstance(stale_k, str) and stale_k.isdigit()
                        and int(stale_k) >= 1)):
                errors.append(
                    f"line {lineno} ({bench}): stale_k {stale_k!r} must "
                    f"be 'off' or a positive integer string")
            saved = record.get("stale_words_saved")
            if not isinstance(saved, (int, float)) or saved < 0:
                errors.append(
                    f"line {lineno} ({bench}): stale_words_saved "
                    f"{saved!r} must be a non-negative number")
            elif stale_k == "off" and saved != 0:
                errors.append(
                    f"line {lineno} ({bench}): stale_k=off must meter "
                    f"zero stale_words_saved, got {saved!r}")
            if record.get("preagg") not in (0, 1):
                errors.append(
                    f"line {lineno} ({bench}): preagg "
                    f"{record.get('preagg')!r} must be 0 or 1")
            # Sampled-mode fields travel together: full-batch rows carry
            # fanouts="" / batch_size=0 / sampled_words=0, sampled rows a
            # non-empty fanout list, a positive batch and the metered
            # kHalo volume of the sampled row exchange.
            sampled = record.get("batch_size", 0) != 0
            if sampled and not record.get("fanouts"):
                errors.append(
                    f"line {lineno} ({bench}): batch_size > 0 requires a "
                    f"non-empty fanouts list")
            if not sampled and record.get("sampled_words", 0) != 0:
                errors.append(
                    f"line {lineno} ({bench}): full-batch rows "
                    f"(batch_size=0) must meter zero sampled_words, got "
                    f"{record.get('sampled_words')!r}")
        if bench == "recovery_drill":
            # The recovery contract, as recorded: an exact-mode drill
            # that recovered must be bitwise identical to its baseline.
            if record.get("compress") == "off" and record.get("recovered") \
                    and not record.get("bitwise_identical"):
                errors.append(
                    f"line {lineno} ({bench}): compress=off and "
                    f"recovered=true require bitwise_identical=true — "
                    f"exact-mode recovery lost determinism")
            for field in ("restarts", "retrained_epochs",
                          "checkpoints_written"):
                value = record.get(field)
                if not isinstance(value, int) or value < 0:
                    errors.append(
                        f"line {lineno} ({bench}): {field} {value!r} "
                        f"must be a non-negative integer")
    return errors


def main() -> int:
    failed = False
    for tracked in TRACKED_FILES:
        if not tracked.exists():
            print(f"missing tracked file: {tracked}", file=sys.stderr)
            failed = True
            continue
        errors = check_file(tracked)
        if errors:
            print(f"{tracked.name}: schema drift detected", file=sys.stderr)
            for e in errors:
                print(f"  {e}", file=sys.stderr)
            failed = True
        else:
            print(f"{tracked.name}: all records carry the full schema")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
