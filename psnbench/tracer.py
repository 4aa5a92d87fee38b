"""Per-layer counts and self times, measured by wrapping the library's
public functions from outside.

A wrapper is installed wherever a module holds the original object, so a name
imported by value (``flags.is_nice``, ``kernels.reduce_word`` bound from
``_kernels_py``) is wrapped where it is looked up too.  Self time is a span's
duration minus the time of the wrapped calls made inside it.  Counting is on
only while a timed operation runs, never during generation or checks.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from time import perf_counter

from pseudospace import flags, kernels, oracle, space, words
from pseudospace.letters import Letter
from pseudospace.space import ColoredSpace

# (owner, attribute, layer name); owner is a module or a class.  The kernel
# spans sit on the backend module in use, so its internal calls are seen too.
SPANS = [
    (kernels._impl, "reduce_word", "kernels.reduce_word"),
    (kernels._impl, "normal_form", "kernels.normal_form"),
    (kernels._impl, "is_reduced", "kernels.is_reduced"),
    (kernels._impl, "absorbed_at", "kernels.absorbed_at"),
    (words, "reduce", "words.reduce"),
    (words, "concat_reduce", "words.concat_reduce"),
    (words, "equivalent", "words.equivalent"),
    (words, "prec", "words.prec"),
    (words, "strong_reducts_bounded", "words.strong_reducts_bounded"),
    (words, "divides_left_bounded", "words.divides_left_bounded"),
    (ColoredSpace, "upward_closure", "space.upward_closure"),
    (ColoredSpace, "downward_closure", "space.downward_closure"),
    (ColoredSpace, "lies_over", "space.lies_over"),
    (ColoredSpace, "between", "space.between"),
    (ColoredSpace, "distances_from", "space.distances_from"),
    (ColoredSpace, "apply_alpha", "space.apply_alpha"),
    (ColoredSpace, "to_json", "space.to_json"),
    (ColoredSpace, "from_json", "space.from_json"),
    (space, "nice_witness", "space.nice_witness"),
    (space, "open_pairs", "space.open_pairs"),
    (space, "simply_connected_witness", "space.simply_connected_witness"),
    (flags, "flag_path", "flags.flag_path"),
    (flags, "is_global_step", "flags.is_global_step"),
    (flags, "enumerate_flags", "flags.enumerate_flags"),
    (flags, "basepoint", "flags.basepoint"),
    (flags, "realize_type", "flags.realize_type"),
]

# constructors counted, not timed
CREATED = [(words.Word, "words.Word.created"), (Letter, "letters.Letter.created")]

# (metric, unit) in report order; "calls" and "self_ms" come from SPANS
METRICS = [
    ("kernels.reduce_word.calls", "calls/round"),
    ("kernels.reduce_word.self_ms", "ms/round"),
    ("kernels.normal_form.calls", "calls/round"),
    ("kernels.normal_form.self_ms", "ms/round"),
    ("kernels.is_reduced.calls", "calls/round"),
    ("kernels.is_reduced.self_ms", "ms/round"),
    ("kernels.absorbed_at.calls", "calls/round"),
    ("words.Word.created", "count/round"),
    ("letters.Letter.created", "count/round"),
    ("words.reduce.calls", "calls/round"),
    ("words.reduce.self_ms", "ms/round"),
    ("words.concat_reduce.calls", "calls/round"),
    ("words.concat_reduce.self_ms", "ms/round"),
    ("words.equivalent.calls", "calls/round"),
    ("words.prec.calls", "calls/round"),
    ("words.prec.self_ms", "ms/round"),
    ("words.strong_reducts_bounded.self_ms", "ms/round"),
    ("words.divides_left_bounded.self_ms", "ms/round"),
    ("words.strong.steps", "count/round"),
    ("words.division.explored", "count/round"),
    ("space.upward_closure.calls", "calls/round"),
    ("space.upward_closure.self_ms", "ms/round"),
    ("space.downward_closure.calls", "calls/round"),
    ("space.downward_closure.self_ms", "ms/round"),
    ("space.lies_over.calls", "calls/round"),
    ("space.between.calls", "calls/round"),
    ("space.between.self_ms", "ms/round"),
    ("space.distances_from.calls", "calls/round"),
    ("space.distances_from.self_ms", "ms/round"),
    ("space.nice_witness.calls", "calls/round"),
    ("space.nice_witness.self_ms", "ms/round"),
    ("space.open_pairs.self_ms", "ms/round"),
    ("space.simply_connected_witness.self_ms", "ms/round"),
    ("space.apply_alpha.calls", "calls/round"),
    ("space.apply_alpha.self_ms", "ms/round"),
    ("space.to_json.self_ms", "ms/round"),
    ("space.from_json.self_ms", "ms/round"),
    ("flags.flag_path.calls", "calls/round"),
    ("flags.flag_path.self_ms", "ms/round"),
    ("flags.is_global_step.calls", "calls/round"),
    ("flags.is_global_step.self_ms", "ms/round"),
    ("flags.enumerate_flags.self_ms", "ms/round"),
    ("flags.basepoint.calls", "calls/round"),
    ("flags.basepoint.self_ms", "ms/round"),
    ("flags.realize_type.self_ms", "ms/round"),
    ("oracle.words-confluence.ms", "ms/round"),
    ("oracle.space-axioms.ms", "ms/round"),
    ("oracle.flags-paths.ms", "ms/round"),
    ("oracle.flags-forking.ms", "ms/round"),
    ("oracle.cases", "count/round"),
    ("trace.ops_per_s", "1/s"),
]


class Tracer:
    def __init__(self):
        self.on = False
        self.counts: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self._children: list[float] = []

    def span(self, name: str, fn):
        counts, self_s, children = self.counts, self.self_s, self._children

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            counts[name] += 1
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                self_s[name] += took - children.pop()
                if children:
                    children[-1] += took

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.on:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("pseudospace") and m]
        for owner, attr, name in SPANS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.span(name, raw.__func__)))
                continue
            wrapped = self.span(name, raw)
            setattr(owner, attr, wrapped)
            if isinstance(owner, types.ModuleType):
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)
        for cls, name in CREATED:
            cls.__post_init__ = self.counter(name, cls.__post_init__)

    def observe(self, result) -> None:
        """Counts the library reports in its own return values."""
        if isinstance(result, words.StrongReductionResult):
            self.counts["words.strong.steps"] += result.steps
        elif isinstance(result, words.DivisionResult):
            self.counts["words.division.explored"] += result.explored
        elif isinstance(result, oracle.SuiteReport):
            self.self_s[f"oracle.{result.suite}"] += result.elapsed
            self.counts["oracle.cases"] += result.cases_run

    def metrics(self, rounds: int, ops_per_s: float) -> dict:
        out = {}
        for metric, unit in METRICS:
            if metric == "trace.ops_per_s":
                value = ops_per_s
            elif metric.endswith(".self_ms"):
                value = self.self_s[metric[: -len(".self_ms")]] * 1e3 / rounds
            elif metric.endswith(".calls"):
                value = self.counts[metric[: -len(".calls")]] / rounds
            elif metric.startswith("oracle.") and metric.endswith(".ms"):
                value = self.self_s[metric[: -len(".ms")]] * 1e3 / rounds
            else:
                value = self.counts[metric] / rounds
            out[metric] = {"value": value, "unit": unit}
        return out
