"""Self-test of the benchmark: one tiny pass of each workload.

    python3 bench/selftest.py

Runs bench/run.py on every workload with --seconds 1, untraced and traced,
and checks every metric named in the tables of bench/README.md: the result
line carries exactly the metrics of BENCHMARK.json with their units, the
result file carries each workload's metrics and the per-layer metrics that
apply to it, each with its unit and a sample count, and every run is
correct. It also checks that the benchmark refuses to run, without a
result, in a tree that holds only BENCHMARK.json and bench/. Takes about
two minutes; exits 0 when every check passes.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

WORKLOAD_METRICS = {
    "chain": {"chain_s": "s", "chain_peak_rss_mb": "MB"},
    "train": {"train_lstm_samples_per_s": "samples/s", "train_cnn_samples_per_s": "samples/s",
              "train_lstm_cnn_samples_per_s": "samples/s", "infer_samples_per_s": "samples/s",
              "train_peak_rss_mb": "MB", "min_test_accuracy": "ratio"},
    "score": {"score_raw_samples_per_s": "samples/s", "score_pre_samples_per_s": "samples/s",
              "score_peak_rss_mb": "MB"},
}
NN_LAYERS = {"lstm": ("lstm", "dropout", "dense"),
             "cnn": ("conv1", "conv2", "pool", "dense"),
             "lstm_cnn": ("lstm", "conv1", "conv2", "pool", "dense")}


def nn_metrics(kind: str) -> dict[str, str]:
    out = {f"nn.{kind}.adam_step_ms": "ms", f"nn.{kind}.loss_ms": "ms"}
    for layer in NN_LAYERS[kind]:
        for d in ("fwd", "bwd"):
            out[f"nn.{kind}.{layer}.{d}_ms"] = "ms"
            if layer not in ("pool", "dropout"):
                out[f"nn.{kind}.{layer}.{d}_gflops"] = "GFLOP/s"
    return out


def models_metrics(kinds) -> dict[str, str]:
    out = {"models.predict_probs_ms": "ms", "models.stack_features_ms": "ms"}
    for kind in kinds:
        out[f"models.epoch_s.{kind}"] = "s"
        out[f"models.unattributed_share.{kind}"] = "ratio"
    return out


DSP = {f"dsp.{m}_ms": "ms" for m in ("amplitude", "impute_mean", "butterworth", "run_pipeline")}
EVALUATE = {f"evaluate.{m}_ms": "ms" for m in ("split", "evaluate_model", "compute_metrics")}
STORAGE_READ = {"storage.read_sample_ms": "ms", "storage.bytes_read": "B",
                "storage.read_mb_per_s": "MB/s", "storage.manifest_reads": "count",
                "storage.rows_used_ratio": "ratio", "storage.load_model_ms": "ms"}
STORAGE_WRITE = {"storage.write_sample_ms": "ms", "storage.bytes_written": "B",
                 "storage.write_mb_per_s": "MB/s", "storage.save_model_ms": "ms"}
CLI = {f"cli.{c}.{m}": u for c in ("generate", "preprocess", "train", "evaluate", "report")
       for m, u in (("wall_s", "s"), ("peak_rss_mb", "MB"))}

PER_LAYER = {
    "chain": {**CLI, "cli.train.load_share": "ratio", "cli.evaluate.load_share": "ratio",
              "synth.generate_sample_ms": "ms", **STORAGE_READ, **STORAGE_WRITE, **DSP,
              **models_metrics(["lstm"]), **nn_metrics("lstm"), **EVALUATE},
    "train": {**models_metrics(NN_LAYERS), **nn_metrics("lstm"), **nn_metrics("cnn"),
              **nn_metrics("lstm_cnn")},
    "score": {"cli.evaluate.wall_s": "s", "cli.evaluate.peak_rss_mb": "MB",
              "cli.evaluate.load_share": "ratio", **STORAGE_READ, **DSP, **EVALUATE},
}
for table in PER_LAYER.values():
    table["bench.trace_overhead_share"] = "ratio"


def run(workload: str, trace: int, errors: list[str]) -> None:
    label = f"{workload} --trace {trace}"
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result line keys {sorted(line)}")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        errors.append(f"{label}: correct={line['correct']} failed={line['failed']} "
                      f"attempted={line['attempted']}")
    if set(line["metrics"]) != set(wanted):
        errors.append(f"{label}: result line metrics differ from BENCHMARK.json: "
                      f"{sorted(set(line['metrics']) ^ set(wanted))}")
    for name, m in line["metrics"].items():
        if m.get("unit") != wanted.get(name) or not math.isfinite(m["value"]) \
                or (not trace and m["value"] <= 0):
            errors.append(f"{label}: {name} = {m}")

    result = json.loads((BENCH / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    if trace:
        expected, found = PER_LAYER[workload], result["per_layer"]
    else:
        expected = {**WORKLOAD_METRICS[workload], "setup_s": "s", "error_rate": "ratio"}
        found = result["workload_metrics"]
    for name, unit in expected.items():
        m = found.get(name)
        if m is None or m["unit"] != unit or m["n"] < 1:
            errors.append(f"{label}: {name} missing, without unit {unit} or without samples: {m}")


def refuses_bare_tree(errors: list[str]) -> None:
    """Without harlab's sources the benchmark must fail and print no result."""
    bare = BENCH / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(
        "work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "chain",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"bare tree: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    errors: list[str] = []
    refuses_bare_tree(errors)
    for workload in WORKLOAD_METRICS:
        for trace in (0, 1):
            run(workload, trace, errors)
            print(f"{workload} --trace {trace}: done, {len(errors)} problem(s) so far",
                  flush=True)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "all checks passed" if not errors else f"{len(errors)} failed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
