"""Outside-in layer tracing for the benchmark.

A :class:`Tracer` wraps public functions of each patchcast layer in spans.
It wraps them from outside the program, at every module attribute that
holds them. Functions imported by name (``from .inference import forecast``)
live on as attributes of the importing module. A wrapper placed only on the
defining module would never see those calls, so :meth:`Tracer.install`
finds every ``patchcast`` module attribute that is the original function and
wraps each one.

Each span records its name, parent span, start and end. Spans stay in memory
until the run ends. Counts are taken in the same wrappers as the spans.
Uninstalling restores every original attribute.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, defining module, attribute). "Class.method" patches the class.
SPAN_TARGETS = (
    ("data.synth", "patchcast.data", "synth_corpus"),
    ("data.sample", "patchcast.data", "sample_training_windows"),
    ("data.features", "patchcast.data", "derive_date_features"),
    ("data.ingest", "patchcast.data", "ingest_csv"),
    ("checkpoint.load", "patchcast.checkpoint", "load_checkpoint"),
    ("training.train", "patchcast.training", "train"),
    ("training.assemble", "patchcast.training", "assemble_batch"),
    ("training.loss", "patchcast.training", "train_loss"),
    ("training.adam", "patchcast.training", "adam_step"),
    ("tensor.backward", "patchcast.tensor", "Tape.backward"),
    ("tensor.matmul", "patchcast.tensor", "matmul"),
    ("tensor.softmax", "patchcast.tensor", "softmax_lastdim"),
    ("tensor.layer_norm", "patchcast.tensor", "layer_norm"),
    ("model.forward", "patchcast.model", "forward"),
    ("model.input", "patchcast.model", "input_tokens"),
    ("model.stack", "patchcast.model", "stacked_transformer"),
    ("model.output", "patchcast.model", "output_forecasts"),
    ("inference.forecast", "patchcast.inference", "forecast"),
    ("evaluation.rolling_eval", "patchcast.evaluation", "rolling_eval"),
    ("evaluation.predictor", "patchcast.evaluation", "repeat_last"),
    ("cli.main", "patchcast.cli", "main"),
)

# Factories whose returned predictor closures get an "evaluation.predictor" span.
PREDICTOR_FACTORIES = (
    ("patchcast.evaluation", "make_model_predictor"),
    ("patchcast.evaluation", "make_seasonal_naive"),
)

PREDICTOR_SPAN = "evaluation.predictor"


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    for part in attr.split(".")[:-1]:
        owner = getattr(owner, part)
    leaf = attr.rsplit(".", 1)[-1]
    return owner, leaf, getattr(owner, leaf)


def holders(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) of a loaded patchcast module bound to fn."""
    found = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "patchcast" or name.startswith("patchcast.")):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                found.append((mod, attr))
    return found


def target_sites() -> list[tuple[object, str, object]]:
    """(owner, attribute, original) for every site a Tracer patches."""
    sites = []
    targets = [(m, a) for _, m, a in SPAN_TARGETS] + list(PREDICTOR_FACTORIES)
    for module, attr in targets:
        owner, leaf, fn = _resolve(module, attr)
        if "." in attr:
            sites.append((owner, leaf, fn))
        else:
            sites.extend((mod, name, fn) for mod, name in holders(fn))
    return sites


class Tracer:
    """Span recorder; a context manager that installs and removes wrappers."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.model_windows: set[tuple[int, str, int]] = set()
        self.sites: list[str] = []
        self._stack: list[int] = []
        self._open: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._model_predictors: set[int] = set()
        self._cli_calls = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.sites.clear()
        span_of = {id(_resolve(m, a)[2]): name for name, m, a in SPAN_TARGETS}
        for owner, attr, fn in target_sites():
            name = span_of.get(id(fn))
            wrapped = self._factory(fn) if name is None else self._span(name, fn)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
            self.sites.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        spans, stack, open_names, clock = self.spans, self._stack, self._open, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            open_names.append(name)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_names.pop()
                spans[sid] = (name, parent, t0, t1)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _factory(self, factory):
        is_model = factory.__name__ == "make_model_predictor"

        def wrapper(*args, **kwargs):
            predictor = self._span(PREDICTOR_SPAN, factory(*args, **kwargs))
            if is_model:
                self._model_predictors.add(id(predictor))
            return predictor

        wrapper.__wrapped__ = factory
        return wrapper

    # -- counters, named after the span they belong to ---------------------------

    def _before_cli_main(self, args, kwargs):
        self._cli_calls += 1

    def _before_tensor_backward(self, args, kwargs):
        records = args[0].records
        self.counts["tape_records"] += len(records)
        self.counts["tape_bytes"] += sum(r.out.data.nbytes for r in records)

    def _after_tensor_matmul(self, args, kwargs, out):
        self.counts["matmul_flops"] += 2 * out.data.size * np.shape(_data(args[0]))[-1]

    def _after_tensor_softmax(self, args, kwargs, out):
        self.counts["softmax_bytes"] += np.asarray(_data(args[0])).nbytes + out.data.nbytes

    def _before_model_forward(self, args, kwargs):
        inputs = args[2] if len(args) > 2 else kwargs["inputs"]
        tokens = math.prod(np.shape(_data(inputs))[:-1])
        self.counts["tokens_encoded"] += tokens
        if "inference.forecast" in self._open:
            self.counts["forecast_tokens"] += tokens

    def _after_inference_forecast(self, args, kwargs, result):
        self.counts["rounds"] += result.rounds

    def _after_training_adam(self, args, kwargs, norm):
        clip = kwargs.get("clip_norm", 1.0)
        if clip is not None and norm > clip:
            self.counts["clipped_steps"] += 1

    def _after_evaluation_rolling_eval(self, args, kwargs, report):
        predictor = args[0] if args else kwargs["predictor"]
        if id(predictor) in self._model_predictors:
            for w in report.windows:
                self.model_windows.add((self._cli_calls, report.series_id, w.origin))

    # -- summaries ------------------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms, and self ms (total minus children)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s is not None and s[1] >= 0:
                child_ns[s[1]] += s[3] - s[2]
        out: dict[str, dict[str, float]] = {}
        for sid, s in enumerate(self.spans):
            if s is None:
                continue
            name, _, t0, t1 = s
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (t1 - t0) / 1e6
            row["self_ms"] += (t1 - t0 - child_ns[sid]) / 1e6
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, s in enumerate(self.spans):
                if s is not None:
                    fh.write(f"{sid},{s[1]},{s[0]},{s[2]},{s[3]}\n")


def _data(x):
    """The array behind a Tensor operand, or the operand itself."""
    return getattr(x, "data", x)
