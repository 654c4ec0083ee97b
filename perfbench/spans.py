"""Spans and work counters recorded from outside tangencylab.

`install(tracer)` replaces public functions of the package modules, and two
methods of `planar.FiberGapProbe`, with wrappers that record a span per call
(name, start, end, parent span) and count the work each call did.  The
package's own source is not modified; the wrappers live only in the process
that installs them.

Where a module imports a function by name (`wangyoung` imports
`find_periodic` from `maps1d`), the name is patched in both namespaces so the
calls cannot escape the trace.  Families returned by
`renorm.renormalized_family` are rebuilt with counting `forward`/`inverse`
callables, so `renorm.family.point_steps` counts points times map
applications (a scalar call is one point; Jacobian evaluations are not
counted).
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

import numpy as np

from tangencylab import cantor, cli, maps1d, planar, renorm, verify, wangyoung


class Tracer:
    """Spans and counters, kept in memory until the pass ends."""

    def __init__(self):
        self._spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.probe_keys: set = set()

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self._spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self._spans[index][2] = time.perf_counter()
        self._stack.pop()

    def spans(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p) in enumerate(self._spans)
        ]

    def totals(self) -> dict:
        """name -> [calls, seconds, self seconds]; self time is the span's
        duration minus the durations of its direct child spans."""
        child_time = [0.0] * len(self._spans)
        for name, start, end, parent in self._spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for (name, start, end, _), inner in zip(self._spans, child_time):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out


def traced(tracer: Tracer, name, fn, count=None, failure=None):
    """Wrap `fn` in a span.  `name` is a string or a function of the call's
    arguments; `count(result, args, kwargs)` records the work done;
    exceptions of type `failure` are counted as `<name>.failed` and re-raised."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name if isinstance(name, str) else name(*args, **kwargs)
        index = tracer.open(label)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            if failure is not None and isinstance(exc, failure):
                tracer.counts[label + ".failed"] += 1
            raise
        finally:
            tracer.close(index)
        if count is not None:
            count(out, args, kwargs)
        return out

    return wrapper


def _patch(tracer, module, attr, name, count=None, failure=None, also=()):
    fn = traced(tracer, name, getattr(module, attr), count, failure)
    for target in (module, *also):
        setattr(target, attr, fn)


def _counting_family(family, counts):
    def counted(step):
        def apply(p, x, y):
            counts["renorm.family.point_steps"] += int(np.size(x))
            return step(p, x, y)
        return apply

    inverse = counted(family.inverse) if family.inverse is not None else None
    return planar.PlanarFamily(
        family.name, family.param_names, counted(family.forward), inverse, family.jacobian
    )


def install(tracer: Tracer) -> None:
    def add(key, value_of):
        def count(out, args, kwargs):
            tracer.counts[key] += value_of(out, args, kwargs)
        return count

    lyap_sig = inspect.signature(planar.lyapunov)

    def lyapunov_steps(out, args, kwargs):
        call = lyap_sig.bind(*args, **kwargs)
        call.apply_defaults()
        return call.arguments["discard"] + out.steps_used

    _patch(tracer, planar, "grow_manifold", "planar.grow_manifold",
           add("planar.grow_manifold.points", lambda out, a, k: len(out.points)))
    _patch(tracer, planar, "window_extremal_gap", "planar.window_extremal_gap")
    _patch(tracer, planar, "classify_tangency", "planar.classify_tangency")
    _patch(tracer, planar, "lyapunov", "planar.lyapunov",
           add("planar.lyapunov.steps", lyapunov_steps))
    _patch(tracer, planar, "iterate", "planar.iterate",
           add("planar.iterate.steps", lambda out, a, k: len(out.points) - 1))
    _patch(tracer, planar, "find_fixed_points", "planar.find_fixed_points")
    _patch(tracer, planar, "find_saddle", "planar.find_saddle",
           failure=planar.NewtonDivergenceError)

    probe_call = planar.FiberGapProbe.__call__

    # a probe call repeats work when its (family, mode, parameters) were
    # already evaluated in this pass; unique_ratio is the share that did not
    def probe_key(out, args, kwargs):
        probe, t = args
        tracer.probe_keys.add((probe.family.name, probe.mode, tuple(float(v) for v in probe.curve(t))))

    planar.FiberGapProbe.__call__ = traced(tracer, "planar.FiberGapProbe", probe_call, probe_key)
    planar.FiberGapProbe.locate_zero = traced(
        tracer, "planar.FiberGapProbe.locate_zero", planar.FiberGapProbe.locate_zero
    )

    _patch(tracer, cantor, "build_nmap_cantor", "cantor.build_nmap_cantor",
           add("cantor.build_nmap_cantor.intervals", lambda out, a, k: len(out.intervals)))
    _patch(tracer, cantor, "thickness", "cantor.thickness",
           add("cantor.thickness.endpoints", lambda out, a, k: len(out.endpoint_ratios)))
    _patch(tracer, cantor, "gap_lemma_check", "cantor.gap_lemma_check")

    _patch(tracer, maps1d, "find_periodic", "maps1d.find_periodic",
           add("maps1d.find_periodic.orbits", lambda out, a, k: len(out)), also=(wangyoung,))
    _patch(tracer, maps1d, "conjugacy_defect", "maps1d.conjugacy_defect")

    for attr in ("find_mu_star", "misiurewicz_check", "transversality_check"):
        _patch(tracer, wangyoung, attr, f"wangyoung.{attr}")

    _patch(tracer, renorm, "residual_sup", "renorm.residual_sup")
    family_of = renorm.renormalized_family
    renorm.renormalized_family = functools.wraps(family_of)(
        lambda params, n: _counting_family(family_of(params, n), tracer.counts)
    )

    _patch(tracer, verify, "run_criterion", lambda key: f"verify.{key}")
    _patch(tracer, cli, "main", lambda argv=None: f"cli.{argv[0]}")


def layer_metrics(tracer: Tracer, names, extra: dict) -> dict:
    """Value of every per-layer metric in `names`.

    `<span>.calls`, `<span>.s` and `<span>.self_s` come from the spans; the
    rest are counters or ratios.  A ratio over zero attempts is 1.0 (nothing
    was repeated or failed) and a rate over zero time is 0.0; a span that
    never ran reads 0 calls and 0.0 s.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def span(name):
        return totals.get(name, [0, 0.0, 0.0])

    def ratio(num, den):
        return num / den if den else 1.0

    def rate(steps, seconds):
        return steps / seconds if seconds else 0.0

    probe_calls = span("planar.FiberGapProbe")[0]
    saddle_calls = span("planar.find_saddle")[0]
    derived = {
        "planar.FiberGapProbe.unique_ratio": ratio(len(tracer.probe_keys), probe_calls),
        "planar.find_saddle.converged_ratio": ratio(
            saddle_calls - counts["planar.find_saddle.failed"], saddle_calls
        ),
        "planar.lyapunov.steps_per_s": rate(counts["planar.lyapunov.steps"], span("planar.lyapunov")[1]),
        "planar.iterate.steps_per_s": rate(counts["planar.iterate.steps"], span("planar.iterate")[1]),
        **extra,
    }
    out = {}
    for name in names:
        base, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif field in ("calls", "s", "self_s"):
            out[name] = span(base)[("calls", "s", "self_s").index(field)]
        else:
            out[name] = counts[name]
    return out
