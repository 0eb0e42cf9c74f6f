"""Per-layer tracing of hydroforecast from outside the package.

``Tracer.install`` replaces module-level public functions and layer methods
of ``hydroforecast`` with wrappers that record a span (name, start, end,
parent) per call, plus counts taken where the work happens: tape nodes by op
(walked from the graph returned to the caller), kernel evaluations per solve,
checkpoint and dataset bytes, and Python GC pauses via ``gc.callbacks``.
Spans stay in memory until ``write``. ``uninstall`` puts every original back.
Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import FORECAST_MODELS

# op names the engine creates today; any other op is counted as "other"
OPS = ("leaf", "add", "sub", "mul", "scale", "tanh", "square", "sigmoid", "matmul",
       "softmax", "sum", "concat", "slice", "transpose", "reshape", "expand")

# spans reported as "<name>_ms" (median per call) and "<name>_calls"
TIMED = ("autodiff.backward", "odeint.integrate", "models.encode_conditions",
         "layers.attention", "layers.mlp", "layers.lstm", "training.step",
         "training.adam_step", "training.evaluate_loss", "models.checkpoint_save",
         "models.checkpoint_load")
SETUP_TIMED = ("hydrodata.generate", "hydrodata.save_dataset", "hydrodata.load_dataset")


def model_tag(config) -> str:
    if config.encoder == "lstm-baseline":
        return "lstm"
    return f"{config.encoder}-ode-{config.solver}"


def reachable(roots) -> dict[int, object]:
    """Every tensor reachable from ``roots`` through parent pointers, by id."""
    seen: dict[int, object] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        stack.extend(node._parents)
    return seen


def op_counts(root) -> Counter:
    counts: Counter = Counter()
    for node in reachable([root]).values():
        counts[node.op if node.op in OPS else "other"] += 1
    return counts


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, t0, t1, parent index
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[tuple[str, int]] = []  # open span names and their indices
        self._undo: list[tuple[object, str, object]] = []
        self._step_start: float | None = None
        self._gc_start: float | None = None
        self._watched = 0.0  # seconds with the GC callback installed
        self._walked: set[tuple] = set()

    # ---- spans ----------------------------------------------------------

    def _inside(self, name: str) -> bool:
        return any(n == name for n, _ in self._stack)

    def _call(self, name, fn, args, kwargs):
        parent = self._stack[-1][1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append((name, index))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, t0, t1, parent)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr, name):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        self._patch(owner, attr, wrapper)

    # ---- installation ---------------------------------------------------

    def install(self, hf) -> None:
        """Wrap the public entry points of every module of package ``hf``."""
        ad, layers, models, training, hydrodata = (
            hf.autodiff, hf.layers, hf.models, hf.training, hf.hydrodata)
        tracer = self

        backward = ad.backward

        def traced_backward(loss, seed=None):
            counts = op_counts(loss)
            tracer.samples["autodiff.tape_nodes"].append(sum(counts.values()))
            for op in OPS + ("other",):
                tracer.samples[f"autodiff.nodes.{op}"].append(counts[op])
            return tracer._call("autodiff.backward", backward, (loss,), {"seed": seed})
        self._patch(ad, "backward", traced_backward)

        integrate = models.integrate

        def traced_integrate(solver, f0, kernel, grid, controls):
            evals = [0]

            def counted(state, control, t):
                evals[0] += 1
                return kernel(state, control, t)
            out = tracer._call("odeint.integrate", integrate,
                               (solver, f0, counted, grid, controls), {})
            tracer.samples["odeint.kernel_evals"].append(evals[0])
            key = (solver, controls.shape)
            if key not in tracer._walked:  # same count for every call of a shape
                tracer._walked.add(key)
                before = reachable([f0, controls])
                made = sum(1 for i in reachable([out]) if i not in before)
                tracer.samples["odeint.nodes_per_step"].append(made / grid.steps)
            return out
        self._patch(models, "integrate", traced_integrate)

        predict = models.ForecastModel.predict_forces

        def traced_predict(model, x, f0, grid=None):
            # inside train() a call is either a step's forward, which opens the
            # training.step span, or a validation forecast; neither is a
            # user forecast, so only forecasts outside train() get a span
            tag = model_tag(model.config)
            if tracer._inside("training.train"):
                if tracer._inside("training.evaluate_loss"):
                    out = predict(model, x, f0, grid)
                else:
                    if tracer._step_start is None:
                        tracer._step_start = time.perf_counter()
                    return predict(model, x, f0, grid)
            else:
                out = tracer._call(f"models.predict_forces.{tag}", predict,
                                   (model, x, f0, grid), {})
            key = ("forecast", tag, out.shape)
            if key not in tracer._walked:
                tracer._walked.add(key)
                tracer.samples["models.forecast_tape_nodes"].append(len(reachable([out])))
            return out
        self._patch(models.ForecastModel, "predict_forces", traced_predict)

        adam_step = training.adam_step

        def traced_adam(*args, **kwargs):
            try:
                return tracer._call("training.adam_step", adam_step, args, kwargs)
            finally:
                if tracer._step_start is not None:
                    tracer.spans.append(("training.step", tracer._step_start,
                                         time.perf_counter(), -1))
                    tracer._step_start = None
        self._patch(training, "adam_step", traced_adam)

        self._span(training, "evaluate_loss", "training.evaluate_loss")
        self._span(training, "train", "training.train")
        self._span(models.ForecastModel, "encode_conditions", "models.encode_conditions")
        self._span(layers.MultiHeadSelfAttention, "__call__", "layers.attention")
        self._span(layers.MLPBlock, "__call__", "layers.mlp")
        self._span(layers.LSTMStack, "__call__", "layers.lstm")
        self._span(hydrodata, "generate", "hydrodata.generate")
        self._span(hydrodata, "load_dataset", "hydrodata.load_dataset")

        save = models.checkpoint_save

        def traced_save(model, path):
            out = tracer._call("models.checkpoint_save", save, (model, path), {})
            tracer.samples["models.checkpoint_bytes"].append(os.path.getsize(path))
            return out
        # train() calls the name it imported, so both bindings are replaced
        self._patch(models, "checkpoint_save", traced_save)
        self._patch(training, "checkpoint_save", traced_save)
        self._span(models, "checkpoint_load", "models.checkpoint_load")

        save_dataset = hydrodata.save_dataset

        def traced_save_dataset(ds, outdir):
            out = tracer._call("hydrodata.save_dataset", save_dataset, (ds, outdir), {})
            tracer.samples["hydrodata.dataset_bytes"].append(_dir_bytes(outdir))
            return out
        self._patch(hydrodata, "save_dataset", traced_save_dataset)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ---- garbage collector ----------------------------------------------

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.spans.append(("runtime.gc", self._gc_start, time.perf_counter(), -1))
            self._gc_start = None

    @contextlib.contextmanager
    def active(self, hf, gc_pauses: bool = False):
        """The wrappers are installed, and GC pauses recorded if asked, inside
        the block."""
        self.install(hf)
        if gc_pauses:
            self.watch_gc()
        try:
            yield self
        finally:
            if gc_pauses:
                self.unwatch_gc()
            self.uninstall()

    def watch_gc(self) -> None:
        self._watched -= time.perf_counter()
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
            self._watched += time.perf_counter()

    # ---- reporting ------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [t1 - t0 for n, t0, t1, _ in self.spans if n == name]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Median per call (ms or s) with call counts, and median counts."""
        out: dict[str, tuple[float, str]] = {}

        def median(values):
            return float(statistics.median(values)) if values else 0.0

        for stem in TIMED:
            d = self.durations(stem)
            out[f"{stem}_ms"] = (median(d) * 1e3, "ms")
            out[f"{stem}_calls"] = (len(d), "count")
        for tag, _, _ in FORECAST_MODELS:
            d = self.durations(f"models.predict_forces.{tag}")
            out[f"models.predict_forces_ms.{tag}"] = (median(d) * 1e3, "ms")
            out[f"models.predict_forces_calls.{tag}"] = (len(d), "count")
        for stem in SETUP_TIMED:
            d = self.durations(stem)
            out[f"{stem}_s"] = (median(d), "s")
        gc_pauses = self.durations("runtime.gc")
        out["runtime.gc_ms"] = (median(gc_pauses) * 1e3, "ms")
        out["runtime.gc_collections"] = (len(gc_pauses), "count")
        out["runtime.gc_share_pct"] = (100.0 * sum(gc_pauses) / self._watched
                                       if self._watched > 0 else 0.0, "%")
        # one sample per model and batch shape; their mean moves with any model
        forecast = self.samples["models.forecast_tape_nodes"]
        out["models.forecast_tape_nodes"] = (statistics.mean(forecast) if forecast else 0.0,
                                             "count")
        for name in ("autodiff.tape_nodes", "odeint.kernel_evals", "odeint.nodes_per_step",
                     "models.checkpoint_bytes", "hydrodata.dataset_bytes"):
            out[name] = (median(self.samples[name]), "count" if "bytes" not in name
                         else "bytes")
        for op in OPS + ("other",):
            out[f"autodiff.nodes.{op}"] = (median(self.samples[f"autodiff.nodes.{op}"]),
                                           "count")
        return out

    def write(self, path) -> None:
        names = sorted({n for n, *_ in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "spans": [[index[n], t0, t1, p] for n, t0, t1, p in self.spans]},
                      fh)
