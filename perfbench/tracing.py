"""Span recorder for the benchmark.

Stage spans are opened by the benchmark itself in every run.  In a traced
run, :meth:`Tracer.installed` also wraps derivop's public functions at their
module attributes, inside this process only, so each call into a layer
records a span with its name, start, end and parent span.  Spans stay in
memory and are written out when the run ends.
"""

import dataclasses
import sys
import time
from contextlib import contextmanager
from functools import wraps

# Public functions timed in a traced run, by module.  A function is wrapped
# wherever a derivop module holds a reference to it, so calls through
# ``from .models import solve_state`` in another module are timed as well.
TRACED = {
    "models": ("sample_prior", "solve_state", "residual", "state_jacobian",
               "parameter_jacobian", "jacobian_operator"),
    "linalg": ("randomized_svd", "symmetric_eig_topk"),
    "datagen": ("generate_dataset", "reduce_dataset"),
    "bases": ("derivative_informed_bases", "input_gram", "output_gram"),
    "netop": ("loss_and_grad", "forward", "parametric_jacobian"),
    "training": ("train", "adam_step"),
    "metrics": ("evaluate", "l2_accuracy", "h1_seminorm_accuracy",
                "gradient_accuracy", "gauss_newton_accuracies"),
}
# Span row fields, in order.
FIELDS = ("name", "parent", "start", "end", "columns")
NAME, PARENT, START, END, COLUMNS = range(len(FIELDS))


class _ModuleProxy:
    """Stands in for a module, overriding some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _columns(x):
    return x.shape[1] if getattr(x, "ndim", 1) == 2 else 1


class Tracer:
    """In-memory spans: rows of (name, parent index, start, end, columns)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name, columns):
        row = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, columns]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[START] = time.perf_counter()
        return row

    def _close(self, row):
        row[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        row = self._open(name, 0)
        try:
            yield row
        finally:
            self._close(row)

    def wrap(self, name, fn, count_columns=False):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            row = tracer._open(name, _columns(args[0]) if count_columns else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(row)

        return traced

    def _trace_operator(self, jacobian_operator):
        """Wrap jacobian_operator so the actions of the operator it returns
        record one ``linalg.solve`` span each, counting columns."""
        timed = self.wrap("models.jacobian_operator", jacobian_operator)

        @wraps(jacobian_operator)
        def traced(*args, **kwargs):
            op = timed(*args, **kwargs)
            return dataclasses.replace(
                op,
                apply=self.wrap("linalg.solve", op.apply, True),
                apply_transpose=self.wrap("linalg.solve", op.apply_transpose, True))

        return traced

    @contextmanager
    def installed(self):
        """For the duration of the block, wrap the TRACED functions, the
        sparse LU of models and the Jacobian operator's actions in every
        loaded derivop module."""
        patched = []

        def patch(owner, attr, value):
            patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        modules = [mod for name, mod in sys.modules.items()
                   if name == "derivop" or name.startswith("derivop.")]
        try:
            for module_name, attrs in TRACED.items():
                home = sys.modules[f"derivop.{module_name}"]
                for attr in attrs:
                    original = getattr(home, attr)
                    if attr == "jacobian_operator":
                        wrapper = self._trace_operator(original)
                    else:
                        wrapper = self.wrap(f"{module_name}.{attr}", original)
                    for module in modules:
                        if getattr(module, attr, None) is original:
                            patch(module, attr, wrapper)
            models = sys.modules["derivop.models"]
            patch(models, "spla", _ModuleProxy(
                models.spla, splu=self.wrap("models.splu", models.spla.splu)))
            yield self
        finally:
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)


def span_cost(calls=20000):
    """Seconds a wrapped call adds over a plain one (tracing overhead)."""
    def plain(x):
        return x

    traced = Tracer().wrap("calibration", plain)
    t0 = time.perf_counter()
    for i in range(calls):
        plain(i)
    t1 = time.perf_counter()
    for i in range(calls):
        traced(i)
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


class SpanTable:
    """Aggregates over finished spans: durations, self times and the
    top-level stage each span belongs to."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.duration = [row[END] - row[START] for row in spans]
        self.self_time = list(self.duration)
        self.stage = [""] * n
        for i, row in enumerate(spans):
            parent = row[PARENT]
            if parent < 0:
                self.stage[i] = row[NAME]
            else:
                self.stage[i] = self.stage[parent]
                self.self_time[parent] -= self.duration[i]

    def select(self, name, stage=None, parent=None):
        """Indices of spans called ``name``, optionally inside ``stage``
        (prefix match) and directly under a span called ``parent``."""
        return [i for i, row in enumerate(self.spans)
                if row[NAME] == name
                and (stage is None or self.stage[i].startswith(stage))
                and (parent is None
                     or (row[PARENT] >= 0
                         and self.spans[row[PARENT]][NAME] == parent))]

    def count(self, name, **where):
        return len(self.select(name, **where))

    def total(self, name, **where):
        return sum(self.duration[i] for i in self.select(name, **where))

    def total_self(self, name, **where):
        return sum(self.self_time[i] for i in self.select(name, **where))

    def columns(self, name, **where):
        return sum(self.spans[i][COLUMNS] for i in self.select(name, **where))

    def mean_ms(self, name, **where):
        idx = self.select(name, **where)
        if not idx:
            raise ValueError(f"no {name} spans recorded")
        return 1e3 * sum(self.duration[i] for i in idx) / len(idx)

    def self_times(self):
        """Total self time per span name, in seconds."""
        out = {}
        for i, row in enumerate(self.spans):
            out[row[NAME]] = out.get(row[NAME], 0.0) + self.self_time[i]
        return out

    def stage_coverage(self):
        """Per top-level span: its duration and the share of it that the
        self times of the layer spans below it account for."""
        out = {}
        for i, row in enumerate(self.spans):
            if row[PARENT] < 0:
                entry = out.setdefault(row[NAME], {"seconds": 0.0, "layers": 0.0})
                entry["seconds"] += self.duration[i]
                entry["layers"] += self.duration[i] - self.self_time[i]
        for entry in out.values():
            entry["layer_share"] = entry["layers"] / entry["seconds"]
        return out
