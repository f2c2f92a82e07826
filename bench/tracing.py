"""Outside-in spans around the public functions of each mmslab layer.

A span is recorded by wrapping a function at the module attribute its
callers look up (``curvature.w2`` as well as ``transport.w2``, because
curvature imported the name). Spans live in memory as (name, start, end,
parent, op) plus a few counts taken from the call's arguments and result,
and are written out once the run ends. Nothing under ``src/`` changes, and
``install`` puts every original attribute back when it exits.
"""
from __future__ import annotations

import functools
import importlib
import math
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = Span(name, time.perf_counter(), math.nan,
                   self._stack[-1] if self._stack else None, self.op)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def roots(self) -> list[int]:
        """Index of the root span above each span."""
        out: list[int] = []
        for k, s in enumerate(self.spans):
            out.append(k if s.parent is None else out[s.parent])
        return out

    def to_json(self) -> list[dict]:
        selfs = self.self_times()
        return [{**asdict(s), "self": st} for s, st in zip(self.spans, selfs)]


def _ball_size(ps, R) -> int:
    return int((ps.base_distances() < R).sum())


def _w2_counts(args, res) -> dict:
    return {"pairs": int(res.plan.rows.size * res.plan.cols.size)}


def _gap_counts(args, res) -> dict:
    A, B, _corr, R = args
    return {"pairs": _ball_size(A, R) * _ball_size(B, R)}


def _make_counts(args, res) -> dict:
    return {"points": res.n, "metric_mb": res.n * res.n * 8 / 1e6}


def _pmgh_counts(args, res) -> dict:
    return {"aggregated": sum(bool(t.aggregated) for t in res.per_radius)}


# (span name, [(module, attribute)], counts from (positional args, result))
LAYERS = (
    ("transport.w2", [("transport", "w2"), ("curvature", "w2")], _w2_counts),
    ("transport.geodesic_plan",
     [("transport", "geodesic_plan"), ("curvature", "geodesic_plan")],
     lambda a, r: {"atoms": int(len(r.i))}),
    ("curvature.cdstar_check", [("curvature", "cdstar_check")], None),
    ("pmgh.pmgh_distance",
     [("pmgh", "pmgh_distance"), ("tangent_lab", "pmgh_distance")], _pmgh_counts),
    ("pmgh.measure_gap", [("pmgh", "measure_gap")], _gap_counts),
    ("pmgh.distortion", [("pmgh", "distortion")], None),
    ("models.make", [("models", "make")], _make_counts),
    ("core.load_space", [("core", "load_space")], None),
    ("core.normalize_at", [("core", "normalize_at"), ("tangent_lab", "normalize_at")], None),
    ("core.rescale", [("core", "rescale"), ("tangent_lab", "rescale")], None),
    ("core.ball_restrict",
     [("core", "ball_restrict"), ("tangent_lab", "ball_restrict")], None),
    ("tangent_lab.blowup", [("tangent_lab", "blowup")], None),
    ("tangent_lab.normalize_window", [("tangent_lab", "normalize_window")], None),
    ("tangent_lab.detect_line", [("tangent_lab", "detect_line")],
     lambda a, r: {"found": int(r is not None)}),
    ("tangent_lab.split", [("tangent_lab", "split")],
     lambda a, r: {"quotient_points": int(r.quotient.n)}),
    ("tangent_lab.euclidean_dimension", [("tangent_lab", "euclidean_dimension")], None),
)


def _wrap(tracer: Tracer, name: str, fn, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            res = fn(*args, **kwargs)
        if counts is not None:
            rec.counts.update(counts(args, res))
        return res
    return traced


@contextmanager
def install(tracer: Tracer):
    """Wrap every layer function for the duration of the block."""
    saved = []
    try:
        for name, sites, counts in LAYERS:
            for mod_name, attr in sites:
                mod = importlib.import_module(f"mmslab.{mod_name}")
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, _wrap(tracer, name, fn, counts))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)
