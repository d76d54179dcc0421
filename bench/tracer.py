"""In-memory span tracer for the harlab benchmark.

The tracer never edits harlab's source. `Tracer.install` swaps harlab's
public functions and layer methods for wrappers that record one span per
call (name, start, end, parent span, attributes), and `uninstall` puts
the originals back, so traced and untraced rounds run the same code.
Spans stay in memory until the process writes them out with `dump`.
Times come from `time.perf_counter`, which is CLOCK_MONOTONIC on Linux,
so spans from the benchmark and its child processes share one time base.

`per_layer` reduces a list of spans to the per-module metrics that
bench/README.md defines.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
import weakref
from collections import defaultdict

MODULES = ("bench", "cli", "synth", "storage", "dsp", "models", "nn", "evaluate")
KINDS = ("lstm", "cnn", "lstm_cnn")
LAYERS = {"lstm": ("lstm", "dropout", "dense"),
          "cnn": ("conv1", "conv2", "pool", "dense"),
          "lstm_cnn": ("lstm", "conv1", "conv2", "pool", "dense")}
FLOP_LAYERS = ("lstm", "conv1", "conv2", "dense")
_MISSING = object()


def io_counters() -> tuple[int, int]:
    """Bytes this process has passed through read() and write() so far."""
    fields = {}
    with open("/proc/self/io") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            fields[key] = int(value)
    return fields["rchar"], fields["wchar"]


def _shape(x):
    return tuple(getattr(x, "shape", ()))


def _layer_flops(layer, shape) -> float:
    """Multiply-add FLOPs of one forward call, from shapes alone.

    Only the matrix products count; elementwise gate and activation work
    is left out. A backward call does twice these FLOPs (one product for
    the weight gradient, one for the input gradient).
    """
    cls = type(layer).__name__
    if cls == "Lstm" and len(shape) == 3:
        b, t, d = shape
        h = layer.hidden_size
        return 2.0 * b * t * 4 * h * (d + h)
    if cls == "Conv1d" and len(shape) == 3:
        c_out, k, c_in = layer.kernels.shape
        b, t, _ = shape
        return 2.0 * b * (t - k + 1) * c_out * k * c_in
    if cls == "Dense" and len(shape) == 2:
        d, u = layer.w.shape
        return 2.0 * shape[0] * d * u
    return 0.0


class Tracer:
    """Spans of one process, kept in memory.

    `tag` makes span ids unique across processes; `root_parent` is the id
    of the span in another process that caused this one (a round span of
    the benchmark), or None.
    """

    def __init__(self, tag: str, root_parent: str | None = None):
        self.tag = tag
        self.root_parent = root_parent
        self.spans: list[dict] = []
        self._stack: list[str] = []
        self._next_id = 0
        self._saved: list[tuple] = []
        self._kinds: list[str] = []
        self._layers = weakref.WeakKeyDictionary()   # layer -> (kind, name)
        self._fwd_shape = weakref.WeakKeyDictionary()  # layer -> last forward input shape

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> dict:
        self._next_id += 1
        span = {"id": f"{self.tag}:{self._next_id}",
                "parent": self._stack[-1] if self._stack else self.root_parent,
                "name": name, "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def event(self, name: str) -> None:
        now = time.perf_counter()
        self._next_id += 1
        self.spans.append({"id": f"{self.tag}:{self._next_id}",
                           "parent": self._stack[-1] if self._stack else self.root_parent,
                           "name": name, "start": now, "end": now, "attrs": {}})

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else getattr(owner, attr, _MISSING)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(getattr(owner, attr, None)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def _timed(self, name: str, attrs=None, io=False):
        """Wrapper factory: one span per call, attributes computed after
        the clock stops so they cost the traced function nothing."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                before = io_counters() if io else None
                span = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(span)
                if io:
                    after = io_counters()
                    span["attrs"]["read_bytes"] = after[0] - before[0]
                    span["attrs"]["written_bytes"] = after[1] - before[1]
                if attrs is not None:
                    span["attrs"].update(attrs(args, result))
                return result
            return wrapper
        return make

    def _read_samples(self, fn):
        """storage.iter_dataset yields one sample per manifest row; time
        each yield as one storage.read_sample span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            samples = fn(*args, **kwargs)
            while True:
                before = io_counters()
                span = self.begin("storage.read_sample")
                try:
                    sample = next(samples)
                except StopIteration:
                    sample = None
                finally:
                    self.end(span)
                if sample is None:
                    self.spans.remove(span)  # the exhausting call read no sample
                    return
                after = io_counters()
                values = getattr(sample, "frames", getattr(sample, "values", None))
                span["attrs"].update(read_bytes=after[0] - before[0],
                                     rows=int(_shape(values)[0]) if values is not None else 0)
                yield sample
        return wrapper

    def _open_counter(self, _):
        def counting_open(file, mode="r", *args, **kwargs):
            if str(file).endswith("manifest.csv") and not set(mode) & set("wax+"):
                self.event("storage.manifest_open")
            return open(file, mode, *args, **kwargs)
        return counting_open

    def _layer_call(self, direction: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(layer, *args, **kwargs):
                kind, name = self._layers.get(layer, ("unknown", type(layer).__name__.lower()))
                if direction == "fwd":
                    shape = _shape(args[0]) if args else ()
                    self._fwd_shape[layer] = shape
                    flops = _layer_flops(layer, shape)
                else:
                    flops = 2.0 * _layer_flops(layer, self._fwd_shape.get(layer, ()))
                span = self.begin(f"nn.{kind}.{name}.{direction}")
                try:
                    return fn(layer, *args, **kwargs)
                finally:
                    self.end(span)
                    span["attrs"]["flops"] = flops
            return wrapper
        return make

    def _kind_call(self, op: str):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = self.begin(f"nn.{self._kinds[-1] if self._kinds else 'none'}.{op}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(span)
            return wrapper
        return make

    def _train(self, fn):
        @functools.wraps(fn)
        def wrapper(net, *args, **kwargs):
            self._kinds.append(net.spec.kind)
            span = self.begin("models.train")
            try:
                return fn(net, *args, **kwargs)
            finally:
                self.end(span)
                self._kinds.pop()
                span["attrs"].update(kind=net.spec.kind, epochs=net.spec.epochs)
        return wrapper

    def _build(self, fn):
        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            net = fn(spec, *args, **kwargs)
            for name, layer in getattr(net, "_layers", ()):
                if layer is not None:
                    self._layers[layer] = (spec.kind, name)
            return net
        return wrapper

    def install(self) -> "Tracer":
        """Wrap harlab's module boundaries; see bench/README.md for the list."""
        from harlab import dsp, evaluate, models, nn, storage, synth

        p = self._patch
        p(synth, "generate_sample", self._timed("synth.generate_sample"))
        p(storage.DatasetWriter, "add", self._timed("storage.write_sample", io=True))
        p(storage.DatasetWriter, "close", self._timed("storage.write_manifest", io=True))
        p(storage, "iter_dataset", self._read_samples)
        p(storage, "open", self._open_counter)
        for fn in ("dataset_is_complex", "load_dataset_seed"):
            p(storage, fn, self._timed("storage.read_manifest", io=True))
        p(storage, "load_dataset", self._timed("storage.load_dataset", io=True))
        p(storage, "save_model", self._timed("storage.save_model", io=True))
        p(storage, "load_model", self._timed("storage.load_model", io=True))
        for fn in ("save_dataset", "write_metrics_csv", "write_confusion_csv",
                   "write_history_csv", "save_experiment_config"):
            p(storage, fn, self._timed(f"storage.{fn}", io=True))
        p(dsp, "run_pipeline", self._timed("dsp.run_pipeline"))
        p(dsp, "amplitude", self._timed("dsp.amplitude"))
        p(dsp, "impute_mean", self._timed("dsp.impute_mean"))
        p(dsp, "filter_apply", self._timed("dsp.butterworth"))
        p(models, "build", self._build)
        p(models, "train", self._train)
        p(models.TrainedModel, "predict_probs", self._timed("models.predict_probs"))
        p(models, "stack_features", self._timed(
            "models.stack_features", lambda a, r: {"rows": int(r[0].shape[0] * r[0].shape[1])}))
        for cls in (nn.Lstm, nn.Conv1d, nn.MaxPool1d, nn.Dropout, nn.Dense):
            p(cls, "forward", self._layer_call("fwd"))
            p(cls, "backward", self._layer_call("bwd"))
        p(nn, "adam_step", self._kind_call("adam_step"))
        p(nn, "cross_entropy", self._kind_call("cross_entropy"))
        p(nn, "cross_entropy_grad", self._kind_call("cross_entropy_grad"))
        p(evaluate, "split", self._timed("evaluate.split"))
        p(evaluate, "evaluate_model", self._timed("evaluate.evaluate_model"))
        p(evaluate, "compute_metrics", self._timed("evaluate.compute_metrics"))
        return self


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer metrics

def _dur(span) -> float:
    return span["end"] - span["start"]


def _module(span) -> str:
    return span["name"].split(".")[0]


class _Spans:
    """Index over a span list: by id, by name, and each span's ancestors."""

    def __init__(self, spans: list[dict]):
        self.all = spans
        self.by_id = {s["id"]: s for s in spans}
        self.by_name: dict[str, list[dict]] = defaultdict(list)
        self.children: dict[str, list[dict]] = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)
            self.children[s["parent"]].append(s)
        self._lineage: dict[str, tuple[str, ...]] = {}

    def lineage(self, span) -> tuple[str, ...]:
        """Ids of the span's ancestors, nearest first."""
        sid = span["id"]
        if sid not in self._lineage:
            parent = self.by_id.get(span["parent"])
            self._lineage[sid] = () if parent is None else \
                (parent["id"],) + self.lineage(parent)
        return self._lineage[sid]

    def under(self, root) -> list[dict]:
        return [s for s in self.all if root["id"] in self.lineage(s)]

    def inside(self, span, name: str) -> bool:
        return any(self.by_id[a]["name"] == name for a in self.lineage(span))


def _mean_ms(spans) -> tuple[float, str, int]:
    return (1e3 * statistics.fmean(_dur(s) for s in spans) if spans else 0.0), "ms", len(spans)


def _mean(values, unit: str) -> tuple[float, str, int]:
    return (statistics.fmean(values) if values else 0.0), unit, len(values)


def per_layer(spans: list[dict], rounds: list[dict]) -> dict[str, tuple[float, str, int]]:
    """Per-module metrics as {name: (value, unit, sample count)}.

    `spans` holds every span of the traced set-ups and traced rounds;
    `rounds` holds the traced round spans, over which per-round byte
    counts are averaged. A metric whose layer never ran reports 0 with
    sample count 0.
    """
    ix = _Spans(spans)
    name = ix.by_name
    out: dict[str, tuple[float, str, int]] = {}

    # cli: share of the in-process command time spent in storage and dsp
    # before the first model work starts
    for cmd in ("train", "evaluate"):
        shares = []
        for root in name[f"cli.{cmd}"]:
            family = ix.under(root)
            model_start = min((s["start"] for s in family if s["name"] in
                               ("models.train", "models.predict_probs",
                                "evaluate.evaluate_model")), default=root["end"])
            load = sum(_dur(s) for s in family if s["end"] <= model_start
                       and _module(s) in ("storage", "dsp")
                       and _module(ix.by_id[s["parent"]]) not in ("storage", "dsp"))
            shares.append(load / _dur(root))
        out[f"cli.{cmd}.load_share"] = _mean(shares, "ratio")

    out["synth.generate_sample_ms"] = _mean_ms(name["synth.generate_sample"])

    # outermost storage spans, so that save_dataset's own writes count once
    storage = [s for s in spans if _module(s) == "storage"
               and _module(ix.by_id.get(s["parent"], {"name": ""})) != "storage"]
    writes = [s for s in storage if s["attrs"].get("written_bytes", 0) > 0]
    reads = [s for s in storage if s["attrs"].get("read_bytes", 0) > 0]
    round_ids = {r["id"] for r in rounds}
    in_rounds = [s for s in storage if round_ids & set(ix.lineage(s))]
    n_rounds = max(len(rounds), 1)
    out["storage.write_sample_ms"] = _mean_ms(name["storage.write_sample"])
    out["storage.read_sample_ms"] = _mean_ms(name["storage.read_sample"])
    out["storage.bytes_written"] = (
        sum(s["attrs"].get("written_bytes", 0) for s in in_rounds) / n_rounds, "B", len(rounds))
    out["storage.bytes_read"] = (
        sum(s["attrs"].get("read_bytes", 0) for s in in_rounds) / n_rounds, "B", len(rounds))
    for label, group, key in (("write", writes, "written_bytes"), ("read", reads, "read_bytes")):
        secs = sum(_dur(s) for s in group)
        out[f"storage.{label}_mb_per_s"] = (
            sum(s["attrs"][key] for s in group) / 1e6 / secs if secs else 0.0, "MB/s", len(group))
    loaders = [s for c in ("preprocess", "train", "evaluate") for s in name[f"cli.{c}"]]
    opens = sum(1 for root in loaders for s in ix.under(root)
                if s["name"] == "storage.manifest_open")
    out["storage.manifest_reads"] = (opens / len(loaders) if loaders else 0.0,
                                     "count", len(loaders))
    # rows stacked into a model input / rows parsed, over commands that do both
    parsed = used = 0
    consumers = name["cli.train"] + name["cli.evaluate"]
    for root in consumers:
        for s in ix.under(root):
            if s["name"] == "storage.read_sample":
                parsed += s["attrs"]["rows"]
            elif s["name"] == "models.stack_features":
                used += s["attrs"]["rows"]
    out["storage.rows_used_ratio"] = (used / parsed if parsed else 0.0, "ratio", len(consumers))
    out["storage.save_model_ms"] = _mean_ms(name["storage.save_model"])
    out["storage.load_model_ms"] = _mean_ms(name["storage.load_model"])

    out["dsp.amplitude_ms"] = _mean_ms(name["dsp.amplitude"])
    out["dsp.impute_mean_ms"] = _mean_ms(name["dsp.impute_mean"])
    out["dsp.butterworth_ms"] = _mean_ms(name["dsp.butterworth"])
    out["dsp.run_pipeline_ms"] = _mean_ms(name["dsp.run_pipeline"])

    for kind in KINDS:
        epochs, unattributed = [], []
        for t in (s for s in name["models.train"] if s["attrs"].get("kind") == kind):
            stack = sum(_dur(s) for s in ix.children[t["id"]]
                        if s["name"] == "models.stack_features")
            epochs.append((_dur(t) - stack) / t["attrs"]["epochs"])
            nn_time = sum(_dur(s) for s in ix.under(t) if _module(s) == "nn")
            unattributed.append(1.0 - nn_time / _dur(t))
        out[f"models.epoch_s.{kind}"] = _mean(epochs, "s")
        out[f"models.unattributed_share.{kind}"] = _mean(unattributed, "ratio")
    out["models.predict_probs_ms"] = _mean_ms(name["models.predict_probs"])
    out["models.stack_features_ms"] = _mean_ms(name["models.stack_features"])

    # nn: training steps only; forward calls under predict_probs belong to
    # models.predict_probs_ms
    for kind, layers in LAYERS.items():
        for layer in layers:
            for direction in ("fwd", "bwd"):
                calls = [s for s in name[f"nn.{kind}.{layer}.{direction}"]
                         if not ix.inside(s, "models.predict_probs")]
                out[f"nn.{kind}.{layer}.{direction}_ms"] = _mean_ms(calls)
                if layer in FLOP_LAYERS:
                    secs = sum(_dur(s) for s in calls)
                    out[f"nn.{kind}.{layer}.{direction}_gflops"] = (
                        sum(s["attrs"]["flops"] for s in calls) / secs / 1e9 if secs else 0.0,
                        "GFLOP/s", len(calls))
        out[f"nn.{kind}.adam_step_ms"] = _mean_ms(name[f"nn.{kind}.adam_step"])
        steps = name[f"nn.{kind}.cross_entropy_grad"]
        loss = sum(_dur(s) for s in name[f"nn.{kind}.cross_entropy"] + steps)
        out[f"nn.{kind}.loss_ms"] = (1e3 * loss / len(steps) if steps else 0.0, "ms", len(steps))

    out["evaluate.split_ms"] = _mean_ms(name["evaluate.split"])
    out["evaluate.evaluate_model_ms"] = _mean_ms(name["evaluate.evaluate_model"])
    out["evaluate.compute_metrics_ms"] = _mean_ms(name["evaluate.compute_metrics"])
    return out


def module_self_seconds(spans: list[dict], rounds: list[dict]) -> dict[str, float]:
    """Self time (span time minus child-span time) per traced round,
    summed by module. `bench` self time is what no harlab span covers:
    child interpreter start-up and the harness itself."""
    ix = _Spans(spans)
    child_time: dict[str, float] = defaultdict(float)
    for s in spans:
        child_time[s["parent"]] += _dur(s)
    round_ids = {r["id"] for r in rounds}
    totals = dict.fromkeys(MODULES, 0.0)
    for s in spans:
        if s["id"] in round_ids or round_ids & set(ix.lineage(s)):
            totals[_module(s)] = totals.get(_module(s), 0.0) + _dur(s) - child_time[s["id"]]
    return {m: t / max(len(rounds), 1) for m, t in totals.items()}
