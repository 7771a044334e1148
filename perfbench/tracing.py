"""Spans around geomorph's layer entry points, recorded from outside ``src/``.

``Tracer.install`` rebinds the names through which each op reaches a layer
(``geomorph.cli`` imports most of them; ``training`` and ``rotations`` reach
``exponence`` and their inner learners through their own module globals) to
wrappers that record one span per call: name, start, end, parent span and
op id. Spans stay in memory until ``write``. A few wrappers also read the
returned result to count work exactly (learner sub-iterations, delta passes,
angle passes and adjustments, serialized bytes).

A span's layer is the part of its name before the first dot. A layer's
self time is the time its spans cover minus the time their child spans
cover; its busy share is that self time over the total op time.
"""
from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from geomorph import cli, paradigm, rotations, training
from geomorph import report as rpt
from geomorph.paradigm import ParadigmFile

OP_SPAN = "cli.op"
LAYERS = ("rotations", "exponence", "training", "composition", "paradigm", "features",
          "report", "cli")


def _count_train(counts, result, args, kwargs):
    _, trace = result
    counts["training.trains"] += 1
    counts["training.converged"] += int(trace.converged)


def _count_pass(counts, result, args, kwargs):
    counts["training.passes"] += 1


def _count_learn_rotation(counts, result, args, kwargs):
    counts["rotations.runs"] += 1
    counts["rotations.converged"] += int(result.converged)
    counts["rotations.passes"] += len(result.plan.rotations)


def _count_learn_angles(counts, result, args, kwargs):
    stems, affixes = list(args[0]), list(args[1])
    # a converged result reports the adjusting passes, not the final clean one
    passes = result.iterations + int(result.converged)
    counts["composition.learns"] += 1
    counts["composition.converged"] += int(result.converged)
    counts["composition.passes"] += passes
    counts["composition.adjustments"] += result.adjustments
    # every pass compares each (stem, gold affix) target on both axes with each rival
    counts["composition.checks"] += passes * 2 * len(stems) * (len(affixes) - 1)


def _count_bytes(counts, result, args, kwargs):
    counts["report.bytes"] += len(result.encode("utf-8"))


# (owner, attribute, span name, counter); an owner is a module or a class
TARGETS = (
    (cli, "load_paradigm", "paradigm.parse", None),
    (ParadigmFile, "feature_system", "paradigm.tables", None),
    (ParadigmFile, "corner_matrix", "paradigm.tables", None),
    (ParadigmFile, "gold_table", "paradigm.tables", None),
    (ParadigmFile, "class_inventory", "paradigm.tables", None),
    (ParadigmFile, "gold_forms", "paradigm.tables", None),
    (paradigm, "build_corner_matrix", "features.corner_matrix", None),
    (cli, "initial_exponents", "exponence.init", None),
    (cli, "activations", "exponence.activations", None),
    (cli, "evaluate", "exponence.evaluate", None),
    (training, "activations", "exponence.activations", None),
    (training, "evaluate", "exponence.evaluate", None),
    (rotations, "activations", "exponence.activations", None),
    (cli, "train", "training.train", _count_train),
    (training, "delta_step", "training.pass", _count_pass),
    (cli, "learn_all_classes", "rotations.batch", None),
    (cli, "base_configuration", "rotations.base", None),
    (rotations, "base_configuration", "rotations.base", None),
    (cli, "class_of_base", "rotations.class_of_base", None),
    (rotations, "learn_class_rotation", "rotations.learn", _count_learn_rotation),
    (cli, "learn_angles", "composition.learn", _count_learn_angles),
    (cli, "verify_gold_forms", "composition.verify", None),
    (cli, "select_affix_by_angle", "composition.select", None),
    (rpt, "labeled_matrix", "report.build", None),
    (rpt, "build_report", "report.build", None),
    (rpt, "dumps", "report.dumps", _count_bytes),
    (rpt, "dumps_line", "report.dumps", _count_bytes),
    (rpt, "to_tsv", "report.tsv", _count_bytes),
    (rpt, "loads", "report.loads", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: dict[int, Counter] = defaultdict(Counter)  # op id -> counts
        self._stack: list[int] = []
        self._op = -1
        self._saved: list = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
            if counter is not None:
                counter(self.counts[self._op], result, args, kwargs)
            return result

        return traced

    def install(self):
        for owner, attr, name, counter in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def call(self, op_id: int, fn, *args):
        """Run one op under its root span."""
        self._op = op_id
        return self._wrap(OP_SPAN, fn, None)(*args)

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def totals(self, first_op: int = 0, end_op: int | None = None) -> Counter:
        out = Counter()
        for op, c in self.counts.items():
            if op >= first_op and (end_op is None or op < end_op):
                out.update(c)
        return out


def span_stats(spans):
    """Per span name: calls, total seconds, self seconds."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_time = Counter(), Counter(), Counter()
    for k, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child[k]
    return calls, total, self_time


TIME_UNITS = ("ms", "us", "ns")


def layer_metrics(tracer: Tracer, pass_counts: Counter, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase; exact counts come from pass 0.

    Times are multiplied by ``scale``, the phase's machine-speed scale.
    """
    calls, total, self_time = span_stats(tracer.spans)
    counts = tracer.totals()
    busy = total[OP_SPAN]

    def mean(name, per):
        return total[name] / calls[name] * per if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = Counter()
    for name, t in self_time.items():
        layer_self[name.split(".", 1)[0]] += t
    m = {f"{layer}.busy_share": (ratio(layer_self[layer], busy), "share") for layer in LAYERS}
    m.update({
        "rotations.batch_ms": (mean("rotations.batch", 1e3), "ms"),
        "rotations.passes": (pass_counts["rotations.passes"], "count"),
        "rotations.pass_us": (ratio(total["rotations.learn"], counts["rotations.passes"]) * 1e6, "us"),
        "rotations.converged_ratio": (ratio(counts["rotations.converged"], counts["rotations.runs"]), "ratio"),
        "exponence.init_us": (mean("exponence.init", 1e6), "us"),
        "exponence.activations_us": (mean("exponence.activations", 1e6), "us"),
        "exponence.evaluate_us": (mean("exponence.evaluate", 1e6), "us"),
        "exponence.evaluate_per_activation": (
            ratio(mean("exponence.evaluate", 1), mean("exponence.activations", 1)), "ratio"),
        "training.train_ms": (mean("training.train", 1e3), "ms"),
        "training.passes": (pass_counts["training.passes"], "count"),
        "training.pass_us": (mean("training.pass", 1e6), "us"),
        "training.converged_ratio": (ratio(counts["training.converged"], counts["training.trains"]), "ratio"),
        "composition.learn_ms": (mean("composition.learn", 1e3), "ms"),
        "composition.passes": (pass_counts["composition.passes"], "count"),
        "composition.adjustments": (pass_counts["composition.adjustments"], "count"),
        "composition.check_ns": (ratio(total["composition.learn"], counts["composition.checks"]) * 1e9, "ns"),
        "composition.converged_ratio": (
            ratio(counts["composition.converged"], counts["composition.learns"]), "ratio"),
        "paradigm.parse_us": (mean("paradigm.parse", 1e6), "us"),
        "features.corner_matrix_us": (mean("features.corner_matrix", 1e6), "us"),
        "report.dumps_us": (mean("report.dumps", 1e6), "us"),
        "report.tsv_us": (mean("report.tsv", 1e6), "us"),
        "report.loads_us": (mean("report.loads", 1e6), "us"),
        "report.bytes": (pass_counts["report.bytes"], "bytes"),
        "cli.self_us": (ratio(self_time[OP_SPAN], calls[OP_SPAN]) * 1e6, "us"),
    })
    return {k: (v * scale if unit in TIME_UNITS else v, unit) for k, (v, unit) in m.items()}
