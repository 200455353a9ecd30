"""Spans around the public functions of the groundbem modules.

The tracer wraps every public function of the layer modules and installs
each wrapper under every module-level name that refers to it, which is
where the callers look it up: ``groundbem.bem.source_signature_batch``,
``groundbem.experiments.kernel_integral`` and so on.  ``scipy.linalg`` as
seen from ``groundbem.bem`` (the name ``sla``) is replaced by a proxy
whose ``solve`` is wrapped, so the LU solve shows as its own span without
touching scipy for anyone else.  Nothing under ``src/`` changes, and
uninstalling restores the original objects.

Spans are kept in memory (id, parent id, layer, name, start, end, counts)
and turned into per-layer metrics when the run ends; ``dump`` writes them
out as JSON.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

LAYERS = ("surface_mesh", "harmonics", "ground_kernel", "bem", "experiments")

_HARMONICS = ("solid_harmonics_batch", "solid_harmonics")
_SIGNATURES = ("source_signature_batch", "source_signature")
# Index arithmetic called once per coefficient; a span per call would cost
# more than the call and says nothing about a layer.
_UNTRACED = ("sh_index", "sh_size")


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class _Proxy:
    """Attribute view of a module with a few names replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.plane_sources: list[tuple[int, object]] = []  # (p, xi array)
        self.warnings: list[tuple[str, str]] = []  # (layer, category)
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._modules = {
            layer: importlib.import_module(f"groundbem.{layer}") for layer in LAYERS
        }

    # -- spans ---------------------------------------------------------------

    def _open(self, layer, name, counts=None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, layer, name, 0.0, counts=counts or {})
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextmanager
    def span(self, layer, name):
        """Record one span around the benchmark's own code."""
        span = self._open(layer, name)
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            self._close(span)

    def current_layer(self) -> str:
        return self._stack[-1].layer if self._stack else "bench"

    def record_warning(self, message, category, *_args, **_kwargs) -> None:
        """``warnings.showwarning`` replacement: attribute to the open layer."""
        self.warnings.append((self.current_layer(), category.__name__))

    # -- counts taken from the arguments of a call ---------------------------

    def _counts(self, name, args, kwargs) -> dict:
        if name in _HARMONICS:
            pts = np.atleast_2d(np.asarray(args[0], dtype=float))
            p = int(args[1] if len(args) > 1 else kwargs["p"])
            return {"rows": pts.shape[0], "bytes": pts.shape[0] * p * p * 8}
        if name in _SIGNATURES:
            pts = np.atleast_2d(np.asarray(args[0], dtype=float))
            constants = args[1] if len(args) > 1 else kwargs["constants"]
            rho = np.hypot(pts[:, 0], pts[:, 1])
            plane = (pts[:, 2] == 0.0) & (rho > 0.0)
            if np.any(plane):
                self.plane_sources.append((int(constants.p), rho[plane].copy()))
            n_plane = int(np.count_nonzero(plane))
            return {"plane": n_plane, "interior": pts.shape[0] - n_plane}
        return {}

    # -- installing the wrappers --------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(layer, name, tracer._counts(name, args, kwargs))
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                tracer._close(span)

        return wrapper

    def _set(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer, mod in self._modules.items():
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and name not in _UNTRACED
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self._wrap(layer, name, obj)
        package = importlib.import_module("groundbem")
        for mod in (package, *self._modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, name, wrapped[obj])
        bem = self._modules["bem"]
        sla = bem.sla
        self._set(bem, "sla", _Proxy(sla, solve=self._wrap("bem", "sla.solve", sla.solve)))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def dump(self, path) -> None:
        """Write every recorded span as one JSON list."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")

    @contextmanager
    def installed(self):
        """Keep the wrappers installed for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


@contextmanager
def capture_warnings(record):
    """Catch every warning raised inside the block and pass it to ``record``
    (a ``warnings.showwarning`` replacement) instead of printing it."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = record
        yield


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _total(spans, layer, names):
    return sum(s.duration for s in spans if s.layer == layer and s.name in names)


def _self(spans, layer, names):
    return sum(s.self_s for s in spans if s.layer == layer and s.name in names)


def _count(spans, layer, names):
    return sum(1 for s in spans if s.layer == layer and s.name in names)


def _sum_count(spans, layer, names, key):
    return sum(s.counts.get(key, 0) for s in spans if s.layer == layer and s.name in names)


def span_metrics(spans: list[Span], root: Span) -> dict:
    """Per-layer times and counts of one traced operation.

    ``spans`` are those recorded under ``root``.  The self times of all
    layers plus ``trace.uncovered_s`` (the root's own self time: benchmark
    code outside every layer) add up to ``trace.wall_s``.
    """
    out = {
        "harmonics.constants_s": _total(spans, "harmonics", ("build_spectral_constants",)),
        "harmonics.solid_harmonics_s": _total(spans, "harmonics", _HARMONICS),
        "harmonics.solid_harmonics_calls": _count(spans, "harmonics", _HARMONICS),
        "harmonics.solid_harmonics_mb": _sum_count(spans, "harmonics", _HARMONICS, "bytes") / 1e6,
        "ground_kernel.signature_s": _total(spans, "ground_kernel", _SIGNATURES),
        "ground_kernel.signature_self_s": _self(spans, "ground_kernel", _SIGNATURES),
        "ground_kernel.plane_sources": _sum_count(spans, "ground_kernel", _SIGNATURES, "plane"),
        "ground_kernel.interior_sources": _sum_count(spans, "ground_kernel", _SIGNATURES, "interior"),
        "bem.assemble_s": _total(spans, "bem", ("assemble",)),
        "bem.assemble_self_s": _self(spans, "bem", ("assemble",)),
        "bem.solve_s": _total(spans, "bem", ("solve",)),
        "bem.lu_s": _total(spans, "bem", ("sla.solve",)),
        "bem.matvecs": _count(spans, "bem", ("apply_operator",)),
        "bem.matvec_s": _total(spans, "bem", ("apply_operator",)),
        "bem.rhs_s": _total(spans, "bem", ("set_point_source_rhs",)),
        "bem.field_s": _total(spans, "bem", ("evaluate_field",)),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(s.self_s for s in spans if s.layer == layer)
    out["trace.wall_s"] = root.duration
    out["trace.uncovered_s"] = root.self_s
    return out
