"""Outside-in tracer: spans around every public function of the library layers.

While installed, every public module-level function of the six layer modules
is replaced by a timing wrapper at each place it is bound under `spindle.*`
(the defining module, the package namespace, and every `from .x import f`
site), so calls between layers are seen as well as calls from the
benchmark. Spans stay in memory; self time is computed from them after the
run. Functions are discovered at the first install, so a function that is
added or deleted only changes which per-function names appear: the layer
aggregates remain.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import fields, is_dataclass

import numpy as np

from spindle.corpus import MASK_ID

LAYERS = ("corpus", "diffusion", "denoiser", "training", "sampling", "evaluation")


def _nbytes(obj) -> int:
    """Bytes of the arrays in a result: arrays, tuples/lists of them, or
    dataclasses holding them (one level deep)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj if isinstance(o, np.ndarray))
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name)) for f in fields(obj))
    return 0


class Tracer:
    """Records (layer, fn, start, end, parent span, operation id) per call."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.op_phase: list[str] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str]] = []
        self._op = -1
        self._prev_xt: tuple[int, np.ndarray] | None = None  # (op, last forward input)
        self._sites: list[tuple[object, str, object, object]] | None = None

    # --- operations ---------------------------------------------------------------

    def start_op(self, phase: str) -> int:
        """Begin a new operation; later spans carry its id."""
        self.op_phase.append(phase)
        self._op = len(self.op_phase) - 1
        return self._op

    @property
    def phase(self) -> str | None:
        return self.op_phase[self._op] if self._op >= 0 else None

    # --- install / uninstall ------------------------------------------------------

    def _binding_sites(self) -> list[tuple[object, str, object, object]]:
        """(module, attribute, function, wrapper) for every place under
        `spindle.*` where a public function of a layer module is bound."""
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"spindle.{layer}"]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not name.startswith("_"):
                    originals[id(fn)] = (layer, fn)
        wrappers = {key: self._wrap(layer, fn) for key, (layer, fn) in originals.items()}
        sites = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "spindle" or mod_name.startswith("spindle.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)][1] is value:
                    sites.append((mod, attr, value, wrapper))
        return sites

    def install(self) -> None:
        if self._sites is None:
            self._sites = self._binding_sites()
        for mod, attr, _, wrapper in self._sites:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._sites or ():
            setattr(mod, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        hook = None
        if (layer, name) == ("denoiser", "forward"):
            hook = self._count_forward
        elif layer == "diffusion":
            hook = self._count_grid

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent, caller = stack[-1] if stack else (-1, None)
            stack.append((sid, layer))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (layer, name, start, end, parent, self._op)
            if hook is not None and caller != layer:
                hook(args, kwargs, result)
            return result

        return traced

    # --- counters from arguments and results ---------------------------------------

    def _count_forward(self, args, kwargs, result) -> None:
        params = args[0] if args else kwargs["params"]
        xt = np.atleast_2d(np.asarray(args[1] if len(args) > 1 else kwargs["xt"]))
        phase = self.phase
        rows = xt.shape[0] * (xt.shape[1] + params.config.prefix_len)
        self.counters[f"{phase}.denoiser.head_rows"] += rows
        self.counters[f"{phase}.denoiser.masked_rows"] += int((xt == MASK_ID).sum())
        self.counters[f"{phase}.forward_rows"] += xt.shape[0]
        if self._prev_xt is not None and self._prev_xt[0] == self._op:
            prev = self._prev_xt[1]
            if prev.shape == xt.shape:
                self.counters[f"{phase}.unchanged_rows"] += int((prev == xt).all(axis=1).sum())
        self._prev_xt = (self._op, xt.copy())

    def _count_grid(self, args, kwargs, result) -> None:
        """Array bytes a diffusion call hands to another layer (nested
        calls inside the layer are not counted twice)."""
        self.counters[f"{self.phase}.diffusion.grid_bytes"] += _nbytes(result)

    # --- aggregation ------------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """Per (phase, layer) and (phase, layer, fn): [calls, self seconds]."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[4] >= 0:
                child[span[4]] += span[3] - span[2]
        by_layer: dict = defaultdict(lambda: [0, 0.0])
        by_fn: dict = defaultdict(lambda: [0, 0.0])
        for sid, span in enumerate(self.spans):
            if span is None:
                continue
            layer, name, start, end, _, op = span
            phase = self.op_phase[op] if op >= 0 else "none"
            own = end - start - child[sid]
            for key, table in (((phase, layer), by_layer), ((phase, layer, name), by_fn)):
                table[key][0] += 1
                table[key][1] += own
        return by_layer, by_fn

    def dump(self) -> dict:
        """Spans and operations in a JSON-ready form."""
        return {
            "fields": ["layer", "fn", "start", "end", "parent", "op"],
            "spans": [list(s) for s in self.spans if s is not None],
            "ops": self.op_phase,
        }
