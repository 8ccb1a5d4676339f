"""Layer attribution for the benchmark's traced and profiled runs.

A layer is named after the ``repro`` module that does the work:
``repro.sim.switch`` is ``sim.switch``, ``repro.core.observer`` is
``core.observer``, and every other package collapses to its first
component (``repro.workloads.hadoop`` is ``workloads``).  ``heapq`` is
the engine's priority queue, so it belongs to ``sim.engine``.

Two views use that one map:

* :class:`EventTracer` is installed as the engine's public
  ``Simulator.trace`` hook.  It counts executed events per layer of the
  event function and charges the host time until the next event (or the
  end of the ``run`` call) to that layer.  The hook only reads, so the
  event stream is the same with it on or off.
* :func:`profile_shares` groups cProfile self time by layer.  Work
  inside switch events (counters, the dataplane agent, load balancers)
  shows up under its own module here, which the event view cannot see.
  Self time of functions outside ``repro`` (builtins, ``random``,
  ``json``) is charged to the layers of their callers, in proportion to
  the self time each caller spent in them.
"""

from __future__ import annotations

import os
import pstats
import time
from collections import defaultdict
from typing import Any, Callable

#: Layers whose event counts and event time the traced run reports.
EVENT_LAYERS = ("sim.switch", "sim.channel", "sim.host", "sim.clock",
                "sim.mgmt", "workloads", "core.control_plane",
                "core.observer", "core.aggregation", "service", "updates")

#: Layers whose share of profiled self time the profiled run reports.
PROFILE_LAYERS = ("sim.engine", "sim.switch", "sim.channel", "sim.host",
                  "sim.packet", "workloads", "lb", "counters",
                  "core.dataplane", "core.control_plane", "core.observer",
                  "core.aggregation", "service", "analysis")

#: Bucket for anything the map cannot name.
UNMAPPED = "unmapped"


def layer_of_module(module: str | None) -> str:
    """The layer a module belongs to, or :data:`UNMAPPED`."""
    if module in ("heapq", "_heapq"):
        return "sim.engine"
    if not module or not module.startswith("repro."):
        return UNMAPPED
    parts = module.split(".")[1:]
    if parts[0] in ("sim", "core") and len(parts) > 1:
        return f"{parts[0]}.{parts[1]}"
    return parts[0]


def module_of(fn: Callable[..., Any]) -> str | None:
    """The defining module of a scheduled callable (a bound builtin
    method has none of its own: use its receiver's)."""
    module = getattr(fn, "__module__", None)
    if module is None and hasattr(fn, "__self__"):
        module = type(fn.__self__).__module__
    return module


class EventTracer:
    """Per-layer event counts and host time via ``Simulator.trace``."""

    def __init__(self) -> None:
        self.events: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        #: Event functions seen, by qualified name, with their layer.
        self.functions: dict[str, str] = {}
        self._layers: dict[Any, str] = {}
        self._open: str | None = None
        self._since = 0.0

    def hook(self, _time: int, _seq: int, fn: Callable[..., Any]) -> None:
        now = time.perf_counter()
        if self._open is not None:
            self.seconds[self._open] += now - self._since
        key = getattr(fn, "__func__", fn)
        layer = self._layers.get(key)
        if layer is None:
            module = module_of(fn)
            layer = layer_of_module(module)
            self._layers[key] = layer
            name = getattr(fn, "__qualname__", type(fn).__name__)
            self.functions[f"{module}.{name}"] = layer
        self.events[layer] += 1
        self._open = layer
        self._since = now

    def flush(self) -> None:
        """Close the open event at the end of a ``run`` call."""
        if self._open is not None:
            self.seconds[self._open] += time.perf_counter() - self._since
            self._open = None


def _module_of_file(filename: str, root: str) -> str | None:
    """``<root>/sim/switch.py`` -> ``repro.sim.switch``."""
    path = os.path.abspath(filename)
    if not path.startswith(root) or not path.endswith(".py"):
        return None
    parts = ["repro", *path[len(root):-3].split(os.sep)]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _own_layer(func: tuple[str, int, str], root: str) -> str | None:
    filename, _line, name = func
    if filename == "~":
        return "sim.engine" if "_heapq." in name else None
    module = _module_of_file(filename, root)
    if module is None:
        return None
    layer = layer_of_module(module)
    return None if layer == UNMAPPED else layer


def profile_shares(profiler: Any) -> dict[str, float]:
    """Share of total self time per layer for a finished cProfile run."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    memo: dict[tuple, dict[str, float]] = {}

    def weights(func: tuple, depth: int = 0) -> dict[str, float]:
        if func in memo:
            return memo[func]
        own = _own_layer(func, root)
        if own is not None:
            memo[func] = {own: 1.0}
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        total = sum(entry[2] for entry in callers.values())
        if depth > 16 or not callers or total <= 0:
            return {UNMAPPED: 1.0}
        out: dict[str, float] = defaultdict(float)
        for caller, entry in callers.items():
            for layer, weight in weights(caller, depth + 1).items():
                out[layer] += weight * entry[2] / total
        memo[func] = dict(out)
        return memo[func]

    seconds: dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, self_time, _ct, _callers) in stats.items():
        for layer, weight in weights(func).items():
            seconds[layer] += weight * self_time
    total = sum(seconds.values()) or 1.0
    return {layer: value / total for layer, value in seconds.items()}
