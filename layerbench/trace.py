"""Outside-in span tracing of the simulated substrate.

The traced pass wraps layer entry points *from here* — no edits under
``src/``. Every wrapped call records a span (name, start, end, parent);
a span's self time is its duration minus the time its direct children
cover, and self times are summed per layer (layer = the ``repro``
sub-package the wrapped function lives in).

Two kinds of wrapping cover a run completely:

* named entry points (:data:`ENTRY_POINTS`): class methods are replaced
  on the class, module functions in every ``repro`` module that imported
  them by name;
* every callback the sim kernel fires: ``Kernel.call_at`` /
  ``call_repeating`` are wrapped so the scheduled callback runs inside a
  span named after it. ``Kernel.run`` is the root span, so whatever no
  layer claims lands in the kernel's own self time.

Self times are accumulated online; only the first :data:`KEEP_SPANS`
spans are kept verbatim for the trace file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept verbatim (the self-time totals cover every span regardless).
KEEP_SPANS = 100_000

LAYERS = ("crypto", "prime", "core", "net", "kernel", "store", "load")

_LAYER_OF_PACKAGE = {
    "repro.crypto": "crypto",
    "repro.prime": "prime",
    "repro.core": "core",
    "repro.net": "net",
    "repro.sim": "kernel",
    "repro.store": "store",
    "repro.load": "load",
    "repro.system": "load",  # the builder's closed-loop workload processes
}

#: (module, class or None, attribute) of every named entry point.
ENTRY_POINTS: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("repro.prime.engine", "PrimeReplica", "handle"),
    ("repro.core.replica", "ReplicaBase", "on_message"),
    ("repro.core.proxy", "ClientProxy", "submit"),
    ("repro.core.proxy", "ClientProxy", "_on_message"),
    ("repro.net.network", "Network", "send"),
    ("repro.net.network", "Network", "_deliver"),
    ("repro.crypto.threshold", "ThresholdKeyShare", "sign_partial"),
    ("repro.crypto.threshold", "ThresholdKeyShare", "sign_partial_with_proof"),
    ("repro.crypto.threshold", "ThresholdPublicKey", "verify"),
    ("repro.crypto.threshold", None, "combine_partials"),
    ("repro.crypto.threshold", None, "combine_verified"),
    ("repro.crypto.threshold", None, "combine_with_retry"),
    ("repro.crypto.threshold", None, "verify_partial"),
    ("repro.crypto.rsa", "RsaKeyPair", "sign"),
    ("repro.crypto.rsa", "RsaPublicKey", "verify"),
    ("repro.crypto.symmetric", None, "encrypt"),
    ("repro.crypto.symmetric", None, "decrypt"),
    ("repro.store.memory", "MemoryStore", "append"),
    ("repro.store.memory", "MemoryStore", "save_checkpoint"),
    ("repro.store.filestore", "FileStore", "append"),
    ("repro.store.filestore", "FileStore", "save_checkpoint"),
    ("repro.load.generator", "LoadGenerator", "_arrival"),
)


def layer_of_module(module: Optional[str]) -> str:
    """The layer a ``repro`` module belongs to; unknown code is the kernel's."""
    if module:
        for package, layer in _LAYER_OF_PACKAGE.items():
            if module == package or module.startswith(package + "."):
                return layer
    return "kernel"


class SpanRecorder:
    """Stack-based span recorder with online self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter, keep: int = KEEP_SPANS):
        self.clock = clock
        self.keep = keep
        self.names: List[str] = []
        self.layers: List[str] = []
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self.spans: List[Tuple[int, float, float, int]] = []  # name id, start, end, parent
        self.total_spans = 0
        self._ids: Dict[str, int] = {}
        # One frame per open span: [span index, seconds covered by children].
        self._stack: List[List] = []

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def enter(self, nid: int) -> float:
        index = self.total_spans
        self.total_spans += 1
        self._stack.append([index, 0.0])
        return self.clock()

    def exit(self, nid: int, start: float) -> None:
        end = self.clock()
        index, covered = self._stack.pop()
        duration = end - start
        self.self_s[nid] += duration - covered
        self.calls[nid] += 1
        parent = -1
        if self._stack:
            frame = self._stack[-1]
            frame[1] += duration
            parent = frame[0]
        if index < self.keep:
            self.spans.append((nid, start, end, parent))

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` running inside a span; marked so it is never wrapped twice."""
        nid = self.name_id(name, layer)
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(nid, start)

        traced._layerbench_traced = True
        return traced

    # -- results --------------------------------------------------------------

    def self_seconds_by_layer(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for nid, seconds in enumerate(self.self_s):
            totals[self.layers[nid]] += seconds
        return totals

    def total_self_seconds(self) -> float:
        return sum(self.self_s)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "layers": self.layers,
            "self_s": self.self_s,
            "calls": self.calls,
            "total_spans": self.total_spans,
            "kept_spans": len(self.spans),
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


class Installation:
    """The set of patches one traced pass applied; ``uninstall`` undoes them."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str) -> None:
        original = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        self._set(cls, attr, self.recorder.wrap(original, name, layer_of_module(cls.__module__)))

    def patch_function(self, module, attr: str) -> None:
        """Replace a module-level function wherever ``repro`` code bound it."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        traced = self.recorder.wrap(original, name, layer_of_module(module.__name__))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def patch_kernel(self) -> None:
        """Root span around ``Kernel.run``; a span around every fired callback."""
        from repro.sim.kernel import Kernel

        recorder = self.recorder
        span_of: Dict[object, Optional[int]] = {}

        def dispatch(callback, *args):
            key = getattr(callback, "__func__", callback)
            nid = span_of.get(key, -1)
            if nid == -1:
                if getattr(callback, "_layerbench_traced", False):
                    nid = None  # a named entry point: it records its own span
                else:
                    owner = getattr(callback, "__self__", None)
                    label = getattr(callback, "__qualname__", type(callback).__name__)
                    if owner is not None and "." not in label:
                        label = f"{type(owner).__name__}.{label}"
                    nid = recorder.name_id(
                        f"timer:{label}",
                        layer_of_module(getattr(callback, "__module__", None)),
                    )
                span_of[key] = nid
            if nid is None:
                return callback(*args)
            start = recorder.enter(nid)
            try:
                return callback(*args)
            finally:
                recorder.exit(nid, start)

        call_at = Kernel.__dict__["call_at"]
        call_repeating = Kernel.__dict__["call_repeating"]

        @functools.wraps(call_at)
        def traced_call_at(kernel, when, callback, *args):
            return call_at(kernel, when, dispatch, callback, *args)

        @functools.wraps(call_repeating)
        def traced_call_repeating(kernel, interval, callback, *args):
            return call_repeating(kernel, interval, dispatch, callback, *args)

        self._set(Kernel, "call_at", traced_call_at)
        self._set(Kernel, "call_repeating", traced_call_repeating)
        self.patch_method(Kernel, "run")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def install(recorder: Optional[SpanRecorder] = None) -> Installation:
    """Wrap every entry point and the kernel; returns the handle to undo it."""
    installation = Installation(recorder or SpanRecorder())
    try:
        for module_name, class_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if class_name is None:
                installation.patch_function(module, attr)
            else:
                installation.patch_method(getattr(module, class_name), attr)
        installation.patch_kernel()
    except BaseException:
        installation.uninstall()
        raise
    return installation
