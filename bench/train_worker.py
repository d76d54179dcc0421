"""Timed part of the `train` workload, in a process of its own so that its
peak RSS covers the timed part and not the set-up.

    python bench/train_worker.py FEATURES SEED SECONDS TRACE SPANS_OUT PARENT_SPAN

FEATURES is the .npz the benchmark's set-up wrote (x_train, y_train,
x_test, y_test). One round trains lstm, cnn and lstm_cnn with
`models.train` and then runs `TrainedModel.predict_probs` of each over
every sample. Rounds repeat until SECONDS have passed; with TRACE 1 every
second round is traced and the spans go to SPANS_OUT. Prints one JSON
object describing every round.
"""
import hashlib
import json
import os
import sys
import time

from env import pin_blas_threads

EPOCHS = 3


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def main() -> int:
    features, seed, seconds, trace, spans_out, parent = sys.argv[1:7]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    pin_blas_threads()
    import numpy as np
    from harlab import models
    from harlab.core import FeatureTensor
    from tracer import KINDS, Tracer

    with np.load(features, allow_pickle=False) as data:
        x_train, y_train, x_test, y_test = (data[k] for k in ("x_train", "y_train",
                                                              "x_test", "y_test"))
    train_set = [FeatureTensor(x, int(y)) for x, y in zip(x_train, y_train)]
    test_set = [FeatureTensor(x, int(y)) for x, y in zip(x_test, y_test)]
    x_all = np.concatenate([x_train, x_test])

    tracer = Tracer(f"w{os.getpid()}", root_parent=parent)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds or (trace and len(rounds) < 2):
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            span = tracer.begin("bench.round")
        t0 = time.perf_counter()
        record = {"traced": traced, "train": {}, "infer": {}}
        for kind in KINDS:
            spec = models.ModelSpec(kind=kind, epochs=EPOCHS, seed=seed)
            t = time.perf_counter()
            model = models.train(models.build(spec), train_set, test_set)
            train_s = time.perf_counter() - t
            t = time.perf_counter()
            probs = model.predict_probs(x_all)
            infer_s = time.perf_counter() - t
            losses = [v for h in model.history for v in (h.train_loss, h.val_loss)]
            record["train"][kind] = {
                "seconds": train_s, "samples": len(train_set), "epochs": EPOCHS,
                "finite": bool(np.all(np.isfinite(losses))),
                "test_accuracy": model.history[-1].val_acc,
                "weights_sha256": _sha256(a for _, a in sorted(model.weights.items()))}
            record["infer"][kind] = {
                "seconds": infer_s, "samples": int(x_all.shape[0]),
                "finite": bool(np.all(np.isfinite(probs))
                               and np.allclose(probs.sum(axis=1), 1.0)),
                "probs_sha256": _sha256([probs])}
        record["wall_s"] = time.perf_counter() - t0
        if traced:
            tracer.end(span)
            span["attrs"].update(workload="train", index=len(rounds), traced=True)
            tracer.uninstall()
        rounds.append(record)
    if trace:
        tracer.dump(spans_out)
    print(json.dumps({"rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
