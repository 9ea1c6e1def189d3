"""Span recording around the public entry points of each repro layer.

The benchmark times layers from outside: :func:`layer_hooks` names the
functions and methods at each layer boundary, and :class:`Tracer`
replaces them with wrappers that record a span per call while a traced
repetition runs, then puts the originals back.  Untraced repetitions run
the unmodified program.

A span record is ``(name, start, end, parent, run_id, attrs)``; records
stay in memory and are written out once, at exit.  A span's *layer* is
its name up to the first dot.  A layer's self time is the time its spans
cover minus the time covered by spans of other layers nested inside
them, so the self times of all layers add up to the wall time of the
root spans by construction.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["Tracer", "layer_hooks", "layer_totals", "root_wall"]


class Tracer:
    """In-memory span recorder with install/uninstall of layer hooks."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.records: List[Dict] = []
        self.active = False
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._main = threading.main_thread()
        self._saved: List[Tuple[object, str, object]] = []
        self.installed: List[str] = []
        self.missing: List[str] = []

    def _recording(self) -> bool:
        # Forked service workers inherit the hooks; only the benchmark's
        # own main thread records.
        return (
            self.active
            and os.getpid() == self._pid
            and threading.current_thread() is self._main
        )

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict]:
        """Record one span; yields its attrs dict for the caller to extend."""
        if not self._recording():
            yield attrs
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "run_id": self.run_id,
            "attrs": attrs,
        }
        self.records.append(record)
        self._stack.append(index)
        try:
            yield attrs
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    # -- hooks -------------------------------------------------------------

    def _wrap_call(self, fn: Callable, name: str, attrs: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name, **attrs(args)) as span_attrs:
                out = fn(*args, **kwargs)
                span_attrs["packets"] = _packets(out)
                span_attrs["hit"] = out is not None
            return out

        return wrapper

    def _wrap_iter(self, fn: Callable, name: str, attrs: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                # The span covers producing one item, not the consumer's
                # work between items.
                with tracer.span(name, **attrs(args)) as span_attrs:
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    span_attrs["packets"] = _packets(item)
                yield item

        return wrapper

    def install(self) -> None:
        """Replace every available hook target with its span wrapper.

        A required target that is missing goes to :attr:`missing`; the
        run turns each into a failed check.
        """
        if self._saved:
            return
        self.installed = []
        self.missing = []
        for target, attr, name, kind, attrs, optional in layer_hooks():
            original = getattr(target, attr, None)
            if original is None:
                if not optional:
                    self.missing.append(f"{_label(target)}.{attr}")
                continue
            wrap = self._wrap_iter if kind == "iter" else self._wrap_call
            self._saved.append((target, attr, vars(target).get(attr, _INHERITED)))
            _set(target, attr, wrap(original, name, attrs))
            self.installed.append(f"{_label(target)}.{attr}")

    def uninstall(self) -> None:
        """Restore every hooked attribute."""
        while self._saved:
            target, attr, original = self._saved.pop()
            if original is _INHERITED:
                delattr(target, attr)
            else:
                _set(target, attr, original)

    def write(self, path: str, header: Dict) -> None:
        """Write the header and every record as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for record in self.records:
                fh.write(json.dumps(record, default=str) + "\n")


def _packets(out) -> int:
    """Packets in a traffic batch or departure record, else 0."""
    if type(out) is tuple:  # kernels return (departures, extras)
        out = out[0] if out else None
    if isinstance(out, list) and out:  # stream kernels return per-seed lists
        out = out[0]
    try:
        return len(out)
    except TypeError:
        return 0


_INHERITED = object()


def _set(target, attr: str, value) -> None:
    # Switch models are frozen dataclasses; modules and classes are not.
    try:
        setattr(target, attr, value)
    except dataclasses.FrozenInstanceError:
        object.__setattr__(target, attr, value)


def _label(target) -> str:
    return getattr(target, "__name__", None) or getattr(target, "name", repr(target))


def _no_attrs(args) -> Dict:
    return {}


def _self_model(args) -> Dict:
    return {"switch": args[0].model.name}


def layer_hooks() -> List[Tuple[object, str, str, str, Callable, bool]]:
    """``(target, attribute, span name, call|iter, attrs, optional)`` per hook.

    Targets are looked up in the namespace the caller resolves them
    from (a function imported by name is patched in the importing
    module).  Only the per-module lookups of the polled-queue and frame
    formation helpers are optional, since not every kernel module
    imports both; any other target a later version no longer has is
    reported in :attr:`Tracer.missing`.
    """
    from repro import models
    from repro.sim import experiment, stage
    from repro.sim import composite
    from repro.store import ExperimentStore
    from repro.traffic.batch import BatchTrafficGenerator

    hooks: List[Tuple[object, str, str, str, Callable, bool]] = [
        (BatchTrafficGenerator, "draw", "traffic.draw", "call", _no_attrs, False),
        (BatchTrafficGenerator, "draw_chunks", "traffic.draw_chunks", "iter", _no_attrs, False),
        (experiment, "build_batch_traffic", "traffic.build", "call", _no_attrs, False),
        (stage.KernelStage, "feed", "kernels.stage.feed", "call", _self_model, False),
        (stage.KernelStage, "finish", "kernels.stage.finish", "call", _self_model, False),
        (experiment, "delay_vs_load_sweep", "experiment.delay_vs_load_sweep", "call", _no_attrs,
         False),
        (experiment, "run_single", "experiment.run_single", "call", _no_attrs, False),
        (experiment, "run_single_fast", "fold.run_single_fast", "call", _no_attrs, False),
        (composite, "run_fabric", "composite.run_fabric", "call", _no_attrs, False),
        (ExperimentStore, "fetch", "store.fetch", "call", _no_attrs, False),
        (ExperimentStore, "fetch_by_key", "store.fetch_by_key", "call", _no_attrs, False),
    ]
    for name in models.available(engine="vectorized"):
        model = models.get(name)
        hooks.append((
            model, "kernel", "kernels.model", "call",
            lambda args, switch=model.name: {"switch": switch}, False,
        ))
    frames = importlib.import_module("repro.sim.kernels.frames")
    for attr in ("feed", "finish"):
        hooks.append((
            frames.FrameFormationStream, attr, "kernels.formation", "call", _no_attrs, False
        ))
    for module in ("base", "pf", "foff", "sprinklers", "ufs", "load_balanced", "output_queued"):
        mod = importlib.import_module(f"repro.sim.kernels.{module}")
        hooks.append((mod, "replay_polled_queues", "kernels.polled", "call", _no_attrs, True))
        hooks.append((mod, "build_frame_schedule", "kernels.formation", "call", _no_attrs, True))
    return hooks


def layer_totals(records: List[Dict]) -> Tuple[Dict[str, Dict], Dict[str, float]]:
    """Per-layer busy, self and packet totals, and per-name busy times.

    ``busy`` sums the outermost spans of a layer (a span whose parent is
    in the same layer is inside its parent's busy time already); ``self``
    subtracts nested spans of other layers.  The second dict holds the
    busy time of each span name (outermost of that name) and, for kernel
    spans, of each switch.
    """
    durations = [r["end"] - r["start"] for r in records]
    layers = [r["name"].split(".", 1)[0] for r in records]
    child_time = [0.0] * len(records)
    for i, record in enumerate(records):
        parent = record["parent"]
        if parent is not None and layers[parent] != layers[i]:
            child_time[parent] += durations[i]
    out: Dict[str, Dict] = {}
    by_name: Dict[str, float] = {}
    for i, record in enumerate(records):
        layer = layers[i]
        entry = out.setdefault(layer, {"busy": 0.0, "self": 0.0, "packets": 0})
        parent = record["parent"]
        outermost = parent is None or layers[parent] != layer
        # Self time: the span's own time minus other-layer children.
        # Same-layer children are already inside the parent's span, so
        # only the outermost span of a layer contributes its duration.
        if outermost:
            entry["busy"] += durations[i]
            entry["self"] += durations[i]
            entry["packets"] += record["attrs"].get("packets", 0)
        entry["self"] -= child_time[i]
        name_parent = parent is not None and records[parent]["name"] == record["name"]
        if not name_parent:
            by_name[record["name"]] = by_name.get(record["name"], 0.0) + durations[i]
            switch = record["attrs"].get("switch")
            if switch is not None and layer == "kernels" and outermost:
                key = f"kernels.{switch}"
                by_name[key] = by_name.get(key, 0.0) + durations[i]
    return out, by_name


def root_wall(records: List[Dict]) -> float:
    """Total duration of the root spans."""
    return sum(r["end"] - r["start"] for r in records if r["parent"] is None)

