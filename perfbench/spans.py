"""Spans around the public entry points of each filebasis module, installed
from outside by replacing module attributes.

Calls made inside a module go through its globals, so replacing
`decision._fill_search` catches the calls from `in_C` and `are_conjugate`
too.  A function imported by name into another module
(`from .words import iter_regular_words`) is replaced there as well.

Coarse layers keep one span per call: name, start, end, parent span and
query id.  The word-kernel layers run millions of times per query, so their
spans are folded into (parent span, layer) totals instead of being kept one
by one.  Self time is a span's duration minus the time its child spans
cover, kept for every layer.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

KERNEL = "kernel"  # folded spans
SPAN = "span"  # one record per call
GENERATOR = "generator"  # one span per item produced


@dataclass(frozen=True)
class Layer:
    name: str
    module: str
    attr: str  # may be dotted, Class.method
    kind: str = SPAN
    count: Optional[Callable] = None  # result -> extra counter names to bump


def _fill_counts(result) -> tuple:
    return ("found",) if result.found else () if result.complete else ("capped",)


LAYERS = (
    Layer("cli.main", "cli", "main"),
    Layer("construction.generate", "construction", "generate"),
    Layer("construction.load", "construction", "Presentation.from_dict"),
    Layer("decision.equals", "decision", "equals_in_G"),
    Layer("decision.nf", "decision", "regular_normal_form"),
    Layer("decision.conj", "decision", "are_conjugate"),
    Layer("decision.fill_search", "decision", "_fill_search", count=_fill_counts),
    Layer("decision.rewrite", "decision", "rewrite_search"),
    Layer("decision.variants", "decision", "relator_variants"),
    Layer(
        "decision.abelian", "decision", "_ab_in_lattice",
        count=lambda result: ("undecided",) if result is None else (),
    ),
    Layer("decision.kernel.canon", "decision", "_canon_cyclic", KERNEL),
    Layer("decision.kernel.reduce", "decision", "_reduce_seq", KERNEL),
    Layer("decision.kernel.reduce", "decision", "_cyclic_reduce_seq", KERNEL),
    Layer("words.successor", "words", "deglex_successor", KERNEL),
    Layer("words.regular_enum", "words", "iter_regular_words", GENERATOR),
    Layer("diagram.validate", "diagram", "validate_diagram"),
    Layer("diagram.match_label", "diagram", "match_face_label"),
    Layer("diagram.selection", "diagram", "special_selection"),
    Layer("diagram.conditions", "diagram", "check_condition_B"),
    Layer("diagram.conditions", "diagram", "check_condition_X"),
    Layer("diagram.conditions", "diagram", "check_main_lemma"),
    Layer("diagram.load", "diagram", "load_diagram"),
)

# extra counters reported next to calls and self time
COUNTERS = (
    "decision.fill_search.found",
    "decision.fill_search.capped",
    "decision.abelian.undecided",
    "words.regular_enum.items",
)


def layer_names() -> list:
    return list(dict.fromkeys(layer.name for layer in LAYERS))


class Tracer:
    def __init__(self):
        import importlib

        self._modules = {
            name: importlib.import_module(f"filebasis.{name}")
            for name in ("cli", "construction", "decision", "diagram", "words")
        }
        self.calls = {name: 0 for name in layer_names()}
        self.self_time = {name: 0.0 for name in layer_names()}
        self.counters = {name: 0 for name in COUNTERS}
        self.spans: list = []  # [id, name, start, end, parent id, query id]
        self.folded: dict = {}  # (parent id, layer) -> [calls, seconds]
        self.absent: list = []
        self.query_id = None
        self._stack: list = []  # child time of each open call, innermost last
        self._open: list = []  # ids of open spans
        self._next_id = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _enter(self):
        self._stack.append([0.0])
        return time.perf_counter()

    def _leave(self, name, start, kind):
        end = time.perf_counter()
        frame = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
        self.self_time[name] += duration - frame[0]
        if kind == SPAN:
            span_id = self._open.pop()
            parent = self._open[-1] if self._open else None
            self.spans.append([span_id, name, start, end, parent, self.query_id])
        else:
            key = (self._open[-1] if self._open else None, name)
            slot = self.folded.get(key)
            if slot is None:
                self.folded[key] = [1, duration]
            else:
                slot[0] += 1
                slot[1] += duration

    def _wrap(self, layer: Layer, fn):
        name, kind, count = layer.name, layer.kind, layer.count
        tracer = self

        if kind == GENERATOR:

            def generator(*args, **kwargs):
                tracer.calls[name] += 1
                items = fn(*args, **kwargs)
                while True:
                    start = tracer._enter()
                    try:
                        item = next(items)
                    except StopIteration:
                        tracer._leave(name, start, KERNEL)
                        return
                    tracer._leave(name, start, KERNEL)
                    tracer.counters[f"{name}.items"] += 1
                    yield item

            return generator

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if kind == SPAN:
                tracer._open.append(tracer._next_id)
                tracer._next_id += 1
            start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._leave(name, start, kind)
            if count is not None:
                for counter in count(result):
                    tracer.counters[f"{name}.{counter}"] += 1
            return result

        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            owner = self._modules[layer.module]
            *path, attr = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(f"{layer.module}.{layer.attr}")
                continue
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(layer, fn)
            self._set(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            if not path:
                # aliases made by `from .module import name` elsewhere in the package
                for module in self._modules.values():
                    for alias, value in list(vars(module).items()):
                        if value is fn and module is not owner:
                            self._set(module, alias, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Spans, one JSON object a line, then the folded kernel totals."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, query in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "query": query}
                    )
                    + "\n"
                )
            for (parent, name), (calls, seconds) in sorted(
                self.folded.items(), key=lambda kv: (kv[0][0] is None, kv[0][0] or 0, kv[0][1])
            ):
                fh.write(
                    json.dumps({"folded": name, "parent": parent, "calls": calls, "seconds": seconds})
                    + "\n"
                )
