"""harlab benchmark: three workloads timed from outside the program.

    python3 bench/run.py --workload {chain,train,score} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; harlab is imported and run from the
checkout's own `src/`. Load comes from this one process, closed loop: one
client, one command or call at a time. BLAS is pinned to one thread here
and in every child. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The full result, with the environment, sample counts, the
workload-specific metrics and output fingerprints, goes to
bench/results/. bench/README.md explains the workloads and metrics.
"""
from __future__ import annotations

import sys
from pathlib import Path

from env import environment, pin_blas_threads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if not (SRC / "harlab" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
    sys.exit(f"error: {ROOT} is not a harlab checkout (needs src/harlab and BENCHMARK.json)")
pin_blas_threads()
sys.path.insert(0, str(SRC))

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from harlab import dsp, evaluate, models, storage, synth
from harlab.core import Dataset
from tracer import KINDS, Tracer, module_self_seconds, per_layer

RESULTS = BENCH / "results"

WORKLOADS = ("chain", "train", "score")
# chain and score: 2 per class is the smallest dataset whose stratified
# split keeps every class on both sides (14 samples). train: 16 per class,
# split 96 / 16 so that every training step runs a full batch of 32.
SAMPLES_PER_CLASS = {"chain": 2, "train": 16, "score": 2}
TRAIN_FRACTION = 6 / 7
CLI_EPOCHS = 3
DECIMATE = 12
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    output: str


def run_child(argv: list[str], log: Path, env: dict, timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion; wall time and peak RSS from wait4."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 log.read_text(errors="replace"))


def file_sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def tree_sha256(root: Path) -> str | None:
    """Digest of every file under root (relative path and bytes), harlab.log excepted."""
    if not root.is_dir():
        return None
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "harlab.log"):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def summary(values: list[float], better: str) -> dict:
    """Median, plus the worst-side percentile with ten samples beyond it
    (null when there are fewer than eleven samples), and the count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values) if values else None, "n": n,
           "tail": None, "tail_pct": None}
    if n >= 11:
        out["tail"] = values[n - 11] if better == "lower" else values[10]
        out["tail_pct"] = 100.0 * (n - 10) / n if better == "lower" else 100.0 * 10 / n
    return out


class Bench:
    """One invocation: set-up, timed rounds, output checks and tracing."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.work = BENCH / "work" / f"{workload}-s{seed}-t{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.tracer = Tracer("bench") if trace else None
        self.child_spans: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.fingerprints: dict[str, str] = {}
        self.setup_s: list[float] = []
        self.rounds: list[dict] = []
        self.cli: dict[str, list[Child]] = defaultdict(list)  # untraced children by command
        self.metrics: dict[str, dict] = {}  # workload metrics named in README.md

    # -- checks ------------------------------------------------------------

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def repeats(self, key: str, digest: str | None) -> bool:
        """True when digest matches the first one recorded under key."""
        return digest is not None and self.fingerprints.setdefault(key, digest) == digest

    def check_child(self, child: Child, what: str, key: str, digest: str | None) -> None:
        """The child exited 0 and its output matches the first one seen."""
        if child.code != 0:
            self.check(False, f"{what}: exit {child.code}: {child.output[-300:]!r}")
        else:
            self.check(self.repeats(key, digest), f"{what}: {key} missing or differs")

    # -- running -----------------------------------------------------------

    def harlab(self, args: list, log: Path, parent: str | None) -> Child:
        """One harlab command as a child process, traced when parent is set."""
        args = [str(a) for a in args]
        if parent is None:
            child = run_child([sys.executable, "-m", "harlab.cli", *args], log, self.env)
            self.cli[args[0]].append(child)
            return child
        spans = log.with_suffix(".spans.json")
        child = run_child([sys.executable, str(BENCH / "traced_cli.py"), str(spans), parent,
                           *args], log, self.env)
        if spans.is_file():
            self.child_spans += json.loads(spans.read_text())
        return child

    def setup(self, prepare) -> None:
        """Run the set-up SETUP_REPEATS times; set-up time is their median."""
        for i in range(SETUP_REPEATS):
            if self.tracer:
                self.tracer.install()
                span = self.tracer.begin("bench.setup")
            t0 = time.perf_counter()
            prepare(i)
            self.setup_s.append(time.perf_counter() - t0)
            if self.tracer:
                self.tracer.end(span)
                self.tracer.uninstall()

    def run_rounds(self, one_round) -> None:
        """Rounds until --seconds have passed; in trace mode every second
        round is traced, and there is at least one of each kind."""
        start = time.perf_counter()
        while (not self.rounds or time.perf_counter() - start < self.seconds
               or (self.trace and len(self.rounds) < 2)):
            traced = self.trace and len(self.rounds) % 2 == 1
            span = self.tracer.begin("bench.round") if traced else None
            record = one_round(len(self.rounds), span["id"] if span else None)
            if span:
                self.tracer.end(span)
                span["attrs"].update(workload=self.workload, index=len(self.rounds), traced=True)
            record["traced"] = traced
            self.rounds.append(record)

    def untraced(self, key: str) -> list[float]:
        return [r[key] for r in self.rounds if not r["traced"]]

    def put(self, name: str, values: list[float], unit: str, better: str) -> None:
        self.metrics[name] = {"unit": unit, "better": better, **summary(values, better)}

    # -- workloads ---------------------------------------------------------

    def chain(self) -> None:
        def prepare(_):
            child = run_child([sys.executable, "-m", "harlab.cli", "--help"],
                              self.work / "warmup.log", self.env)
            self.check(child.code == 0, f"warm-up: exit {child.code}")

        def one_round(i, parent):
            out = self.work / f"round{i}"
            out.mkdir()
            raw, pre, run, ev, rep = (out / d for d in ("raw", "pre", "train", "eval", "report"))
            steps = [
                ["generate", "--out", raw, "--seed", self.seed,
                 "--samples-per-class", SAMPLES_PER_CLASS["chain"]],
                ["preprocess", "--dataset", raw, "--out", pre],
                ["train", "--model", "lstm", "--dataset", pre, "--decimate", DECIMATE,
                 "--epochs", CLI_EPOCHS, "--seed", self.seed, "--out", run],
                ["evaluate", "--model-file", run / "model.json", "--dataset", pre,
                 "--split-seed", self.seed, "--svg", "--out", ev],
                ["report", "--run-dir", ev, "--out", rep],
            ]
            t0 = time.perf_counter()
            children = [self.harlab(args, out / f"{args[0]}.log", parent) for args in steps]
            wall = time.perf_counter() - t0
            outputs = [("raw_tree", tree_sha256(raw)), ("pre_tree", tree_sha256(pre)),
                       ("model_json", file_sha256(run / "model.json")),
                       ("metrics_csv", file_sha256(ev / "metrics.csv")),
                       ("report_md", file_sha256(rep / "report.md"))]
            for args, child, (key, digest) in zip(steps, children, outputs):
                self.check_child(child, f"round {i} {args[0]}", f"chain.{key}", digest)
            self.check(history_finite(run / "history.csv"),
                       f"round {i} train: non-finite or missing history")
            shutil.rmtree(out)
            return {"wall_s": wall, "peak_rss_mb": max(c.peak_rss_mb for c in children),
                    "commands": {args[0]: {"wall_s": c.wall_s, "peak_rss_mb": c.peak_rss_mb}
                                 for args, c in zip(steps, children)}}

        self.setup(prepare)
        self.run_rounds(one_round)
        self.put("chain_s", self.untraced("wall_s"), "s", "lower")
        self.put("chain_peak_rss_mb", self.untraced("peak_rss_mb"), "MB", "lower")

    def train(self) -> None:
        data = {}

        def prepare(i):
            cfg = synth.GeneratorConfig(seed=self.seed,
                                        samples_per_class=SAMPLES_PER_CLASS["train"])
            stages = dsp.default_stages()
            tensors = [models.decimate(dsp.run_pipeline(s, stages), DECIMATE)
                       for s in synth.iter_samples(cfg)]
            train_ds, test_ds = evaluate.split(
                Dataset.from_samples(tensors, seed=self.seed),
                evaluate.SplitSpec(seed=self.seed, train_fraction=TRAIN_FRACTION,
                                   stratified=False))
            (data["x_train"], data["y_train"]) = models.stack_features(train_ds.samples)
            (data["x_test"], data["y_test"]) = models.stack_features(test_ds.samples)
            digest = hashlib.sha256(data["x_train"].tobytes() + data["x_test"].tobytes())
            self.check(self.repeats("train.features", digest.hexdigest()),
                       f"set-up {i}: features differ from the first set-up")

        self.setup(prepare)
        features = self.work / "features.npz"
        np.savez(features, **data)
        span = self.tracer.begin("bench.worker") if self.tracer else None
        spans_out = self.work / "worker.spans.json"
        child = run_child([sys.executable, str(BENCH / "train_worker.py"), str(features),
                           str(self.seed), str(self.seconds), str(int(self.trace)),
                           str(spans_out), span["id"] if span else "-"],
                          self.work / "worker.log", self.env,
                          timeout=self.seconds + CHILD_TIMEOUT_S)
        if span:
            self.tracer.end(span)
            if spans_out.is_file():
                self.child_spans += json.loads(spans_out.read_text())
        try:
            rounds = json.loads(child.output.strip().splitlines()[-1])["rounds"]
        except (IndexError, ValueError, KeyError):
            rounds = []
        self.check(child.code == 0 and bool(rounds),
                   f"train worker: exit {child.code}: {child.output[-300:]!r}")
        for i, r in enumerate(rounds):
            for kind in KINDS:
                t, p = r["train"][kind], r["infer"][kind]
                self.check(t["finite"] and self.repeats(f"train.{kind}.weights",
                                                        t["weights_sha256"]),
                           f"round {i} train {kind}: non-finite loss or weights differ")
                self.check(p["finite"] and self.repeats(f"train.{kind}.probs",
                                                        p["probs_sha256"]),
                           f"round {i} predict {kind}: bad probabilities or they differ")
            self.rounds.append({**r, "peak_rss_mb": child.peak_rss_mb})
        plain = [r for r in rounds if not r["traced"]]
        for kind in KINDS:
            self.put(f"train_{kind}_samples_per_s",
                     [r["train"][kind]["samples"] * r["train"][kind]["epochs"]
                      / r["train"][kind]["seconds"] for r in plain], "samples/s", "higher")
        self.put("infer_samples_per_s",
                 [sum(r["infer"][k]["samples"] for k in KINDS)
                  / sum(r["infer"][k]["seconds"] for k in KINDS) for r in plain],
                 "samples/s", "higher")
        self.put("train_peak_rss_mb", [child.peak_rss_mb], "MB", "lower")
        self.put("min_test_accuracy",
                 [min(r["train"][k]["test_accuracy"] for k in KINDS) for r in rounds[:1]],
                 "ratio", "higher")

    def score(self) -> None:
        data = self.work / "data"

        def prepare(i):
            shutil.rmtree(data, ignore_errors=True)
            cfg = synth.GeneratorConfig(seed=self.seed,
                                        samples_per_class=SAMPLES_PER_CLASS["score"])
            raw = synth.generate_dataset(cfg)
            storage.save_dataset(raw, data / "raw")
            stages = dsp.default_stages()
            pre = Dataset.from_samples([dsp.run_pipeline(s, stages) for s in raw.samples],
                                       seed=self.seed)
            storage.save_dataset(pre, data / "pre")
            tensors = Dataset.from_samples(models.decimate_all(pre.samples, DECIMATE),
                                           seed=self.seed)
            train_ds, val_ds = evaluate.split(tensors, evaluate.SplitSpec(seed=self.seed))
            spec = models.ModelSpec(kind="lstm", epochs=CLI_EPOCHS, seed=self.seed)
            model = models.train(models.build(spec), train_ds.samples, val_ds.samples)
            storage.save_model(model, data / "model.json")
            for key, digest in (("raw_tree", tree_sha256(data / "raw")),
                                ("pre_tree", tree_sha256(data / "pre")),
                                ("model_json", file_sha256(data / "model.json"))):
                self.check(self.repeats(f"score.{key}", digest),
                           f"set-up {i}: {key} differs from the first set-up")

        def one_round(i, parent):
            out = self.work / f"round{i}"
            out.mkdir()
            t0 = time.perf_counter()
            children = {
                half: self.harlab(["evaluate", "--model-file", data / "model.json",
                                   "--dataset", data / half, "--split-seed", self.seed,
                                   "--out", out / half], out / f"{half}.log", parent)
                for half in ("raw", "pre")}
            wall = time.perf_counter() - t0
            for half, child in children.items():
                self.check_child(child, f"round {i} evaluate {half}", "score.metrics_csv",
                                 file_sha256(out / half / "metrics.csv"))
            shutil.rmtree(out)
            return {"wall_s": wall,
                    "peak_rss_mb": max(c.peak_rss_mb for c in children.values()),
                    "raw_s": children["raw"].wall_s, "pre_s": children["pre"].wall_s}

        self.setup(prepare)
        self.run_rounds(one_round)
        n = 7 * SAMPLES_PER_CLASS["score"]
        self.put("score_raw_samples_per_s", [n / s for s in self.untraced("raw_s")],
                 "samples/s", "higher")
        self.put("score_pre_samples_per_s", [n / s for s in self.untraced("pre_s")],
                 "samples/s", "higher")
        self.put("score_peak_rss_mb", self.untraced("peak_rss_mb"), "MB", "lower")

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        rss = self.untraced("peak_rss_mb")
        self.put("setup_s", self.setup_s, "s", "lower")
        self.put("error_rate", [len(self.failures) / max(self.attempted, 1)], "ratio", "lower")
        return {"setup_s": (statistics.median(self.setup_s), "s"),
                "round_s": (statistics.median(self.untraced("wall_s")), "s"),
                "peak_rss_mb": (statistics.median(rss), "MB")}

    def layer_metrics(self) -> tuple[dict[str, tuple[float, str, int]], dict[str, float]]:
        spans = self.tracer.spans + self.child_spans
        rounds = [s for s in spans if s["name"] == "bench.round"]
        layers = per_layer(spans, rounds)
        for cmd in ("generate", "preprocess", "train", "evaluate", "report"):
            children = self.cli.get(cmd, [])
            layers[f"cli.{cmd}.wall_s"] = (
                statistics.median(c.wall_s for c in children) if children else 0.0,
                "s", len(children))
            layers[f"cli.{cmd}.peak_rss_mb"] = (
                statistics.median(c.peak_rss_mb for c in children) if children else 0.0,
                "MB", len(children))
        traced = [r["wall_s"] for r in self.rounds if r["traced"]]
        plain = self.untraced("wall_s")
        layers["bench.trace_overhead_share"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0, "ratio", len(traced))
        return layers, module_self_seconds(spans, rounds)


def history_finite(path: Path) -> bool:
    if not path.is_file():
        return False
    rows = path.read_text().splitlines()[1:]
    return bool(rows) and all(math.isfinite(float(v)) for row in rows
                              for v in row.split(",")[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    getattr(bench, args.workload)()
    e2e = bench.end_to_end()
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(ROOT),
              "attempted": bench.attempted, "failed": len(bench.failures),
              "failures": bench.failures, "fingerprints": bench.fingerprints,
              "setup_s": bench.setup_s, "rounds": bench.rounds,
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "workload_metrics": bench.metrics}
    if args.trace:
        layers, self_s = bench.layer_metrics()
        result["per_layer"] = {k: {"value": v, "unit": u, "n": n}
                               for k, (v, u, n) in layers.items() if n}
        result["module_self_s_per_round"] = self_s
        reported = {m["name"]: layers[m["name"]][:2] for m in declared["per_layer"]}
    else:
        reported = {m["name"]: e2e[m["name"]] for m in declared["end_to_end"]}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1))
    if bench.tracer:
        (RESULTS / f"{stem}-spans.json").write_text(
            json.dumps(bench.tracer.spans + bench.child_spans))
    shutil.rmtree(bench.work, ignore_errors=True)

    for name, m in bench.metrics.items():
        tail = "" if m["tail"] is None else f"  p{m['tail_pct']:.0f}={m['tail']:.6g}"
        print(f"{args.workload:5s} {name:32s} {m['median']} {m['unit']}  n={m['n']}{tail}")
    if args.trace:
        for name, (v, u, n) in sorted(layers.items()):
            if n:
                print(f"{args.workload:5s} {name:40s} {v:.6g} {u}  n={n}")
    for msg in bench.failures:
        print(f"FAILED {msg}")
    print(json.dumps({"correct": not bench.failures, "attempted": bench.attempted,
                      "failed": len(bench.failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
