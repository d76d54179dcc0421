"""Command-line entry point.

Commands: generate, preprocess, train, evaluate, grid, gradcheck, report.
Exit codes: 0 success, 1 I/O failure, 2 invalid flags.  All outputs land
under an explicit --out directory; set HARLAB_LOG to control verbosity
(timestamps appear only in <out>/harlab.log, never in data files).
numpy and the pipeline modules are imported inside the commands, so help
and flag errors are answered without loading them.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

log = logging.getLogger("harlab")

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Invalid flag combination discovered after argparse."""


def _start(out_text: str | None) -> Path | None:
    """Make the command's --out directory, if it has one, and log to stderr
    and to <out>/harlab.log there; returns the directory."""
    out = None if out_text is None else Path(out_text)
    level = logging.getLevelName(os.environ.get("HARLAB_LOG", "INFO").upper())  # an int only for a level name
    handlers: list[logging.Handler] = [logging.StreamHandler(sys.stderr)]
    handlers[-1].setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        handlers.append(logging.FileHandler(out / "harlab.log"))
        handlers[-1].setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(message)s"))
    logging.basicConfig(level=level if isinstance(level, int) else logging.INFO,
                        handlers=handlers, force=True)
    return out


def _feature_dataset(root: Path, rows: list[dict], decimate_k: int):
    """Model inputs from manifest `rows`, read on the sample pool: the
    default chain runs on a raw root, then decimation."""
    from . import dsp, models, storage
    stages = None
    if rows[0]["is_complex"] == "1":  # read_manifest rejects a root that mixes
        log.info("raw complex dataset: applying default preprocessing chain")
        stages = dsp.default_stages()

    def prepare(sample):
        if stages is not None:
            sample = dsp.run_pipeline(sample, stages)
        return models.decimate(sample, decimate_k)

    return storage.read_dataset(root, rows, prepare)


def cmd_generate(args) -> int:
    from . import storage, synth
    from .core import ActivityClass
    cfg = synth.GeneratorConfig(seed=args.seed, samples_per_class=args.samples_per_class,
                                snr_db=args.snr_db)
    out = _start(args.out)
    keys = [(cls, i) for cls in ActivityClass for i in range(cfg.samples_per_class)]
    storage.write_dataset(out, [cls.class_name for cls, _ in keys],
                          lambda i: synth.generate_sample(cfg, *keys[i]), cfg.seed)
    storage.save_experiment_config(out / "config", generator=cfg)
    for cls in ActivityClass:
        print(f"{cls.class_name}: {cfg.samples_per_class}")
    print(f"total: {len(keys)} samples in {out}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    from . import dsp, evaluate, storage
    stages = dsp.parse_stages(args.stages)
    root = Path(args.dataset)
    rows = storage.read_manifest(root)
    if rows[0]["is_complex"] != "1":  # read_manifest rejects a root that mixes
        raise dsp.not_raw_error(rows[0]["lineage"])
    out = _start(args.out)
    fitted = [s for s in stages if hasattr(s, "fit")]
    raw = None
    if fitted:
        # Fit on the training portion only, then transform the samples read for it.
        log.info("fitting %d stage(s) on the training split (seed %d)",
                 len(fitted), args.fit_split_seed)
        raw = storage.read_dataset(root, rows)
        train_ds, _ = evaluate.split(raw, evaluate.SplitSpec(seed=args.fit_split_seed))
        dsp.fit_stages(stages, train_ds.samples)

    def make(i):
        sample = storage.read_sample(root, rows[i]) if raw is None else raw.samples[i]
        return dsp.run_pipeline(sample, stages)

    storage.write_dataset(out, [r["class_name"] for r in rows], make,
                          storage.load_dataset_seed(rows))
    storage.save_experiment_config(out / "config", stages=stages)
    print(f"preprocessed {len(rows)} samples -> {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    from dataclasses import replace

    from . import evaluate, models, storage
    # Validate hyperparameter flags before touching the filesystem.
    spec = models.ModelSpec(kind=args.model.replace("-", "_"), hidden_size=args.hidden,
                            dropout=args.dropout, lr0=args.lr, epochs=args.epochs,
                            batch_size=args.batch_size, seed=args.seed)
    if args.decimate < 1:
        raise UsageError(f"--decimate must be >= 1, got {args.decimate}")
    rows = storage.read_manifest(root := Path(args.dataset))
    out = _start(args.out)
    dataset = _feature_dataset(root, rows, args.decimate)
    timesteps, n_features = dataset.samples[0].values.shape
    spec = replace(spec, timesteps=timesteps, n_features=n_features)
    split_spec = evaluate.SplitSpec(seed=args.seed)
    train_ds, val_ds = evaluate.split(dataset, split_spec)
    log.info("training %s on %d samples (%d validation)", spec.kind,
             len(train_ds), len(val_ds))
    trained = models.train(models.build(spec), train_ds.samples, val_ds.samples)
    storage.save_model(trained, out / "model.json")
    storage.write_history_csv(trained.history, out / "history.csv")
    storage.save_experiment_config(out / "config", model=spec, split=split_spec)
    last = trained.history[-1]
    print(f"trained {spec.kind}: train_acc={last.train_acc:.4f} "
          f"val_acc={last.val_acc:.4f} -> {out / 'model.json'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from . import evaluate, models, reporting, storage
    from .core import class_from_name
    model = storage.load_model(args.model_file)
    root = Path(args.dataset)
    rows = storage.read_manifest(root)
    out = _start(args.out)
    # Every stage keeps the packet count, so the manifest fixes the factor.
    k = models.infer_decimation(int(rows[0]["n_packets"]), model.spec.timesteps)
    _, test_idx = evaluate.split_indices([class_from_name(r["class_name"]) for r in rows],
                                         evaluate.SplitSpec(seed=args.split_seed))
    test_ds = _feature_dataset(root, [rows[i] for i in test_idx], k)
    report = evaluate.evaluate_model(model, test_ds.samples)
    storage.write_metrics_csv(report, out / "metrics.csv")
    storage.write_confusion_csv(report.confusion, out / "confusion.csv")
    storage.write_confusion_csv(report.confusion_normalized, out / "confusion_normalized.csv")
    if args.svg:
        with storage._replace_on_success(out / "confusion.svg") as fh:
            fh.write(reporting.confusion_svg(report.confusion_normalized))
    print(f"accuracy={report.accuracy:.4f} macro_f1={report.macro_f1:.4f} "
          f"mean_loss={report.mean_loss:.4f} on {len(test_ds)} test samples")
    return EXIT_OK


def cmd_grid(args) -> int:
    from . import evaluate, models, storage
    if args.decimate < 1:
        raise UsageError(f"--decimate must be >= 1, got {args.decimate}")
    models.ModelSpec(kind="lstm", hidden_size=args.hidden)  # rejects --hidden before any write
    rows = storage.read_manifest(root := Path(args.dataset))
    out = _start(args.out)
    dataset = _feature_dataset(root, rows, args.decimate)
    cells = evaluate.run_grid(dataset, seed=args.seed, hidden_size=args.hidden)
    storage.write_grid_csv(cells, out / "grid.csv")
    failed = [c for c in cells if c.failed]
    for c in failed:
        log.warning("grid cell (%s, epochs=%d, lr=%g) failed: %s",
                    c.kind, c.epochs, c.lr, c.error)
    print(f"grid: {len(cells)} cells, {len(failed)} failed -> {out / 'grid.csv'}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from . import gradcheck
    _start(None)
    results = gradcheck.run_standard_checks()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_rel_err={r.max_rel_error:.3e}  "
              f"tol={r.tolerance:.0e}  {status}")
    all_ok = all(r.passed for r in results)
    print("gradient check:", "all passed" if all_ok else "FAILED")
    return EXIT_OK if all_ok else EXIT_IO


def cmd_report(args) -> int:
    from . import reporting, storage
    run_dir = Path(args.run_dir)
    metrics_path, grid_path = run_dir / "metrics.csv", run_dir / "grid.csv"
    if not (metrics_path.exists() or grid_path.exists()):
        raise UsageError(f"nothing to report: no metrics.csv or grid.csv in {run_dir}")
    out = _start(args.out)
    sections = ["# harlab run report", ""]
    if metrics_path.exists():
        row = storage.read_metrics_csv(metrics_path)
        sections += ["## test metrics", "",
                     "| " + " | ".join(row.keys()) + " |",
                     "|" + "---|" * len(row),
                     "| " + " | ".join(f"{v:.4f}" for v in row.values()) + " |", ""]
    if grid_path.exists():
        cells = storage.read_grid_csv(grid_path)
        sections += ["## learning rate vs. epochs", "", reporting.grid_markdown(cells)]
    with storage._replace_on_success(out / "report.md") as fh:
        fh.write("\n".join(sections))
    print(f"wrote {out / 'report.md'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harlab",
        description="Synthetic Wi-Fi CSI activity-recognition laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic CSI dataset")
    p.add_argument("--seed", type=int, default=42, help="generator seed (default 42)")
    p.add_argument("--out", required=True, help="dataset root directory")
    p.add_argument("--samples-per-class", type=int, default=100,
                   help="samples per activity class (default 100)")
    p.add_argument("--snr-db", type=float, default=20.0,
                   help="signal-to-noise ratio in dB; inf disables noise (default 20)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", help="run the preprocessing chain over a dataset")
    p.add_argument("--dataset", required=True, help="input dataset root")
    p.add_argument("--out", required=True, help="output dataset root")
    p.add_argument("--stages", default="amplitude;impute_mean;butterworth:order=1,cutoff=0.05",
                   help="';'-separated stage list (default: amplitude;impute_mean;"
                        "butterworth:order=1,cutoff=0.05)")
    p.add_argument("--fit-split-seed", type=int, default=42,
                   help="split seed for fitting PCA/selection stages on training data only")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train one classifier")
    p.add_argument("--model", required=True, choices=["lstm", "cnn", "lstm-cnn"],
                   help="architecture kind")
    p.add_argument("--dataset", required=True, help="dataset root (raw or preprocessed)")
    p.add_argument("--epochs", type=int, default=50, help="training epochs (default 50)")
    p.add_argument("--lr", type=float, default=0.01, help="initial learning rate (default 0.01)")
    p.add_argument("--batch-size", type=int, default=32, help="mini-batch size (default 32)")
    p.add_argument("--hidden", type=int, default=50,
                   help="LSTM hidden size, candidates 20 and 50 (default 50)")
    p.add_argument("--dropout", type=float, default=0.2, help="dropout rate (default 0.2)")
    p.add_argument("--decimate", type=int, default=12,
                   help="keep every k-th packet (default 12; 1 = full length)")
    p.add_argument("--seed", type=int, default=42, help="training + split seed (default 42)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model on the test split")
    p.add_argument("--model-file", required=True, help="model file from train")
    p.add_argument("--dataset", required=True, help="dataset root")
    p.add_argument("--split-seed", type=int, default=42,
                   help="split seed; use the train seed to get its held-out split")
    p.add_argument("--svg", action="store_true", help="also write confusion.svg")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("grid", help="learning-rate-by-epochs grid over all model kinds")
    p.add_argument("--dataset", required=True, help="dataset root")
    p.add_argument("--seed", type=int, default=42, help="split + training seed (default 42)")
    p.add_argument("--decimate", type=int, default=12, help="decimation factor (default 12)")
    p.add_argument("--hidden", type=int, default=50, help="LSTM hidden size (default 50)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("gradcheck",
                       help="verify every backward pass against finite differences")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("report", help="render report.md from a run directory")
    p.add_argument("--run-dir", required=True,
                   help="directory with metrics.csv and/or grid.csv")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # harlab's parallelism is its process pool.  One BLAS thread, set before
    # numpy loads and over any value the caller set, keeps output bytes
    # independent of the core count and keeps pool workers from
    # oversubscribing the cores.
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    from concurrent.futures.process import BrokenProcessPool

    from . import dsp, evaluate, models, storage, synth
    try:
        if "dataset" in args and Path(args.out).resolve() == Path(args.dataset).resolve():
            raise UsageError(f"--out {args.out} is the --dataset root; "
                             "write to another directory")
        return args.func(args)
    except (UsageError, dsp.DspError, models.ModelError,
            evaluate.EvalError, synth.GeneratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (storage.StorageError, OSError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
