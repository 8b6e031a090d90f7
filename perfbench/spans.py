"""Outside-in span tracing of the qpjumps layers.

Nothing in the library is edited.  The tracer rebinds each public function
in the module where its caller looks the name up (for example
``qpjumps.experiments.simulate_joint``), so every call records a span with
its name, start, end and the span that caused it.  Calls made through a
module attribute (``io.write_iq`` inside ``experiments`` and ``cli``) are
traced by handing the caller a proxy of the module, which leaves calls
inside ``qpjumps.io`` itself untouched.  Optimizer calls are counted
through a proxy for ``qpjumps.fitting.optimize`` and attributed to the
innermost open span.  Spans stay in memory until the caller asks for them.
"""

from __future__ import annotations

import functools
import os
import resource
import time
import types
from collections import defaultdict

MB = float(1 << 20)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(who).ru_maxrss * 1024 / MB


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span's duration minus the part of its
    interval that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for lo, hi in sorted(children[s["id"]]):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[s["name"]] += (s["end"] - s["start"]) - covered
    return dict(totals)


class _ModuleProxy(types.ModuleType):
    """A module stand-in whose listed attributes are replaced; every other
    attribute is read from the real module."""

    def __init__(self, module: types.ModuleType, overrides: dict):
        super().__init__(module.__name__, module.__doc__)
        self.__dict__.update(overrides)
        self.__dict__["_target"] = module

    def __getattr__(self, name):
        return getattr(self.__dict__["_target"], name)


def _file_bytes(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


# (caller module, attribute, span name, counts taken from the call)
_FUNCTIONS = [
    ("experiments", "simulate_joint", "jumpsim.simulate_joint",
     lambda r, a, k: {"events": len(r)}),
    ("experiments", "synthesize_iq", "jumpsim.synthesize_iq",
     lambda r, a, k: {"samples": len(r)}),
    ("experiments", "two_point_filter", "analysis.two_point_filter", None),
    ("cli", "two_point_filter", "analysis.two_point_filter", None),
    ("experiments", "windowed_report", "analysis.windowed_report",
     lambda r, a, k: {"windows": len(r)}),
    ("experiments", "periodogram", "fitting.periodogram", None),
    ("cli", "periodogram", "fitting.periodogram", None),
    ("experiments", "fit_power_law", "fitting.fit_power_law", None),
    ("cli", "fit_power_law", "fitting.fit_power_law", None),
    ("experiments", "fit_recovery", "fitting.fit_recovery", None),
    ("cli", "fit_recovery", "fitting.fit_recovery", None),
    ("experiments", "recovery_chunk_stats", "experiments.recovery_chunk_stats", None),
    ("cli", "cmd_simulate", "cli.simulate", None),
    ("cli", "cmd_stats", "cli.stats", None),
    ("cli", "cmd_filter", "cli.filter", None),
]
for _caller in ("experiments", "cli"):
    for _name in ("extract_dwells", "log_histogram", "poisson_prediction"):
        _FUNCTIONS.append((_caller, _name, "analysis.histograms", None))

# io functions, traced as seen from experiments and cli
_IO_FUNCTIONS = {
    "write_iq": ("io.write_iq", _file_bytes),
    "read_iq": ("io.read_iq", _file_bytes),
    "write_truth_csv": ("io.write_truth_csv", _file_bytes),
    "write_states_csv": ("io.write_states_csv", _file_bytes),
    "write_manifest": ("io.write_manifest", None),
}
for _name in ("write_histogram_csv", "write_report_csv", "write_series_csv",
              "write_fit_report_csv", "write_residuals_csv", "write_qp_trace_csv",
              "write_ode_csv", "atomic_write_text"):
    _IO_FUNCTIONS[_name] = ("io.write_csv", lambda r, a, k: {"files": 1})


class Tracer:
    """Records spans and per-span counts for one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, measure=None):
        """fn, recording a span per call plus the counts measure returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter(), "end": None}
            self.spans.append(span)
            self._open.append(span["id"])
            rss0 = peak_rss_mb()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            self.counts[name + ".rss_growth_mb"] += peak_rss_mb() - rss0
            if measure is not None:
                for key, value in measure(result, args, kwargs).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return traced

    def _counted(self, fn):
        """An optimizer entry point whose calls and evaluations are added to
        the innermost open span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._open:
                owner = self.spans[self._open[-1]]["name"]
                self.counts[owner + ".optimizer_calls"] += 1
                self.counts[owner + ".nfev"] += int(result.nfev)
            return result

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind the traced names inside the imported qpjumps package."""
        import qpjumps.cli
        import qpjumps.experiments
        import qpjumps.fitting
        import qpjumps.io

        modules = {"experiments": qpjumps.experiments, "cli": qpjumps.cli}
        for caller, attr, name, measure in _FUNCTIONS:
            module = modules[caller]
            self._set(module, attr, self.wrap(name, getattr(module, attr), measure))
        io_overrides = {
            attr: self.wrap(name, getattr(qpjumps.io, attr), measure)
            for attr, (name, measure) in _IO_FUNCTIONS.items()
        }
        for module in modules.values():
            self._set(module, "io", _ModuleProxy(qpjumps.io, io_overrides))
        optimize = qpjumps.fitting.optimize
        self._set(qpjumps.fitting, "optimize", _ModuleProxy(optimize, {
            "minimize": self._counted(optimize.minimize),
            "least_squares": self._counted(optimize.least_squares),
        }))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """Self time per span name as ``<name>.self_s`` plus every count."""
        metrics = {f"{name}.self_s": t for name, t in self_times(self.spans).items()}
        metrics.update(self.counts)
        events = metrics.get("jumpsim.simulate_joint.events", 0)
        if events:
            metrics["jumpsim.simulate_joint.us_per_event"] = (
                1e6 * metrics["jumpsim.simulate_joint.self_s"] / events)
        return metrics
