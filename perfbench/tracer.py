"""Per-layer tracing by wrapping package functions from outside the package.

Each traced name is wrapped where the calling module looks it up (for
example ``uman.core.forward_mlp`` is the feature net's forward pass as the
training loop calls it), so nothing under ``src/`` changes. A wrapper records
a span into a stack; a layer's time is the duration of its spans minus the
part covered by spans of *other* layers they called, and its inclusive time
keeps those. The ``nn`` and ``core`` per-step layers are recorded only while
a ``train`` call is open, so evaluation's inference passes stay in
``evaluate``.

A name that no longer exists is recorded as absent and its layer reads zero;
tracing never fails because the package was refactored.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute path as the caller sees it, layer, only inside train)
TRACED = (
    ("uman.core", "forward_mlp", "nn.forward", True),
    ("uman.core", "l2_normalize", "nn.forward", True),
    ("uman.core", "grad_reverse", "nn.forward", True),
    ("uman.core", "mlp_apply", "nn.forward", True),
    ("uman.core", "softmax", "nn.forward", True),
    ("uman.core", "run_backward", "nn.backward", True),
    ("uman.core", "sgd_step", "nn.sgd", True),
    ("uman.core", "classification_loss", "core.losses", True),
    ("uman.core", "domain_loss", "core.losses", True),
    ("uman.core", "scalar_sum", "core.losses", True),
    ("uman.core", "batch_margins", "core.margins", True),
    ("uman.core", "margin_vector", "core.register", True),
    ("uman.core", "TargetMarginRegister.update", "core.register", True),
    ("uman.core", "normalize_weights", "core.weights", True),
    ("uman.core", "batch_iterator", "synth.batch", True),
    ("uman.evaluate", "train", "core.train", False),
    ("uman.evaluate", "evaluate", "evaluate.evaluate", False),
    ("uman.cli", "run_method", "evaluate.run_method", False),
    ("uman.cli", "generate", "synth.generate", False),
    ("uman.cli", "execute_run", "cli.execute_run", False),
    ("uman.cli", "config_hash", "config.cli", False),
    ("uman.cli", "derive_sweep_cell", "config.cli", False),
    ("uman.cli", "parse_config", "config.cli", False),
    ("uman.cli", "canonical_dict", "config.cli", False),
    ("uman.cli", "partition_from_matrix", "labelspace.partition", False),
    ("uman.config", "partition_from_matrix", "labelspace.partition", False),
    ("uman.config", "load_config", "config.load", False),
    ("uman.config", "derive_sweep_cell", "config.cli", False),
    ("uman.labelspace", "partition_from_matrix", "labelspace.partition", False),
)


class Layer:
    __slots__ = ("calls", "inclusive", "own")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0  # outermost spans of the layer, callees included
        self.own = 0.0  # the same minus time in other traced layers


class Tracer:
    """Span stack, per-layer totals and per-method step counts."""

    def __init__(self):
        self.layers = defaultdict(Layer)
        self.absent: list[str] = []
        self.method = "unknown"  # set by the run_method wrapper
        self.train_depth = 0
        self.steps = defaultdict(int)  # per method: batches drawn inside train
        self.train_seconds = defaultdict(float)  # per method
        self.tape_ops = defaultdict(int)  # per method: len(tape) at backward
        self.backward_calls = defaultdict(int)
        self.register_updates = defaultdict(int)
        self.step_intervals: list[float] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def _enter(self, layer: str) -> list:
        frame = [layer, 0.0, perf_counter()]  # layer, other-layer child time, start
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        inclusive = perf_counter() - frame[2]
        self._stack.pop()
        layer, others = frame[0], frame[1]
        stats = self.layers[layer]
        stats.calls += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent[0] == layer:
            parent[1] += others  # same layer nested: the parent span already covers it
            return inclusive
        stats.inclusive += inclusive
        stats.own += inclusive - others
        if parent is not None:
            parent[1] += inclusive
        return inclusive

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, fn, layer: str, train_only: bool, attr: str):
        tracer = self
        hooks = {
            "train": self._train_hook,
            "run_method": self._run_method_hook,
            "run_backward": self._backward_hook,
            "update": self._update_hook,
        }
        hook = hooks.get(attr.rsplit(".", 1)[-1])
        if attr == "batch_iterator":
            def wrapper(*args, **kwargs):
                return _TimedStream(tracer, fn(*args, **kwargs))
            return wrapper

        def wrapper(*args, **kwargs):
            if train_only and not tracer.train_depth:
                return fn(*args, **kwargs)
            if hook is not None:
                return hook(fn, layer, args, kwargs)
            return tracer._span(layer, fn, args, kwargs)

        return wrapper

    def _span(self, layer, fn, args, kwargs):
        frame = self._enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    def _train_hook(self, fn, layer, args, kwargs):
        method = self.method
        self.train_depth += 1
        frame = self._enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.train_seconds[method] += self._exit(frame)
            self.train_depth -= 1

    def _run_method_hook(self, fn, layer, args, kwargs):
        self.method = args[0] if args else kwargs.get("method", "unknown")
        try:
            return self._span(layer, fn, args, kwargs)
        finally:
            self.method = "unknown"

    def _backward_hook(self, fn, layer, args, kwargs):
        tape = args[0] if args else kwargs.get("tape")
        try:
            self.tape_ops[self.method] += len(tape)
            self.backward_calls[self.method] += 1
        except TypeError:
            pass  # a tape without a length leaves its count at zero
        return self._span(layer, fn, args, kwargs)

    def _update_hook(self, fn, layer, args, kwargs):
        self.register_updates[self.method] += 1
        return self._span(layer, fn, args, kwargs)

    # -- install / restore -------------------------------------------------
    def install(self):
        self.absent.clear()
        for module_name, attr, layer, train_only in TRACED:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = vars(owner).get(name) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, train_only, attr))

    def restore(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class _TimedStream:
    """Batch stream whose draws are spans; successive draws time a step."""

    def __init__(self, tracer: Tracer, stream):
        self._tracer = tracer
        self._stream = stream
        self._last = None

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        start = perf_counter()
        if self._last is not None:
            tracer.step_intervals.append(start - self._last)
        self._last = start
        tracer.steps[tracer.method] += 1
        frame = tracer._enter("synth.batch")
        try:
            return next(self._stream)
        finally:
            tracer._exit(frame)
