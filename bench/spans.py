"""Tracing for the benchmark's traced runs, and the per-layer metrics derived from it.

``Tracer.install`` wraps each public function of a layer where its caller
looks it up (for example ``oswec.energy.integrate``, which
``energy._simulate`` calls, and ``oswec.cli.run_wave_study``). Every call
becomes a span (name, start, end, parent) kept in memory and written out
once at the end. A layer's self time is its spans' duration minus the time
its child spans cover. A wrap point that no longer exists is recorded as
missing, and every metric of its layer is then reported as missing (null),
never as zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# layer -> the places its callers look it up: (module, class or None, attribute)
LAYERS = {
    "cli.main": [("oswec.cli", None, "main")],
    "config.load_run_config": [("oswec.cli", None, "load_run_config")],
    "energy.load_jpd": [("oswec.cli", None, "load_jpd")],
    "energy.compute_power_matrix": [("oswec.cli", None, "compute_power_matrix")],
    "energy.write": [
        ("oswec.cli", None, "write_power_matrix_csv"),
        ("oswec.cli", None, "power_matrix_payload"),
    ],
    "energy.mean_power": [("oswec.energy", None, "mean_power")],
    "sweep.run_wave_study": [("oswec.cli", None, "run_wave_study")],
    "sweep.report_write": [
        ("oswec.sweep", "SweepReport", "to_csv"),
        ("oswec.sweep", "SweepReport", "to_json"),
    ],
    "verify.run_verification": [("oswec.cli", None, "run_verification")],
    "dynamics.integrate": [
        ("oswec.energy", None, "integrate"),
        ("oswec.verify", None, "integrate"),
    ],
    "dynamics.response_metrics": [
        ("oswec.energy", None, "response_metrics"),
        ("oswec.verify", None, "response_metrics"),
    ],
    "dynamics.freq_domain_solve": [("oswec.verify", None, "freq_domain_solve")],
    "hydro.coefficients": [
        ("oswec.hydro", "AnalyticCoefficientSource", "pair"),
        ("oswec.hydro", "AnalyticCoefficientSource", "single"),
    ],
    "hydro.solve_dispersion": [
        ("oswec.hydro", None, "solve_dispersion"),
        ("oswec.forcing", None, "solve_dispersion"),
        ("oswec.sweep", None, "solve_dispersion"),
    ],
    "forcing.build": [
        ("oswec.energy", None, "build_wave_forcing"),
        ("oswec.energy", None, "build_single_wave_forcing"),
    ],
}

# per-layer metrics: name -> (unit, layer, quantity)
PER_LAYER = {
    "dynamics.integrate.calls": ("count", "dynamics.integrate", "calls"),
    "dynamics.integrate.self_s": ("s", "dynamics.integrate", "self_s"),
    "dynamics.integrate.periods": ("periods", "dynamics.integrate", "periods"),
    "dynamics.integrate.us_per_step": ("us/step", "dynamics.integrate", "us_per_step"),
    "dynamics.integrate.calls_per_cell": ("calls/cell", "dynamics.integrate", "calls_per_cell"),
    "dynamics.response_metrics.self_s": ("s", "dynamics.response_metrics", "self_s"),
    "dynamics.freq_domain_solve.self_s": ("s", "dynamics.freq_domain_solve", "self_s"),
    "hydro.coefficients.self_s": ("s", "hydro.coefficients", "self_s"),
    "hydro.solve_dispersion.calls": ("count", "hydro.solve_dispersion", "calls"),
    "forcing.build.self_s": ("s", "forcing.build", "self_s"),
    "energy.mean_power.self_s": ("s", "energy.mean_power", "self_s"),
    "energy.compute_power_matrix.self_s": ("s", "energy.compute_power_matrix", "self_s"),
    "energy.write.self_s": ("s", "energy.write", "self_s"),
    "energy.load_jpd.self_s": ("s", "energy.load_jpd", "self_s"),
    "sweep.run_wave_study.self_s": ("s", "sweep.run_wave_study", "self_s"),
    "sweep.report_write.self_s": ("s", "sweep.report_write", "self_s"),
    "verify.run_verification.self_s": ("s", "verify.run_verification", "self_s"),
    "config.load_run_config.self_s": ("s", "config.load_run_config", "self_s"),
    "cli.main.self_s": ("s", "cli.main", "self_s"),
}
OVERHEAD_METRIC = "trace.overhead_s"


def _where(point) -> str:
    module_name, class_name, attr = point
    return ".".join(p for p in (module_name, class_name, attr) if p)


class Tracer:
    """Spans of one traced process: [name, start, end, parent index, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [layer, time.perf_counter(), None, parent, None]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if layer == "dynamics.integrate":
                span[4] = {"cycles": getattr(result, "cycles", None)}
            return result

        return traced

    def install(self) -> None:
        for layer, points in LAYERS.items():
            for point in points:
                module_name, class_name, attr = point
                try:
                    owner = importlib.import_module(module_name)
                    if class_name:
                        owner = getattr(owner, class_name)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.missing.append(_where(point))
                    continue
                setattr(owner, attr, self._wrap(layer, fn))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "missing": self.missing}, fh)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def layer_totals(spans) -> dict:
    """calls, self_s and (for integrate) periods per layer of one traced process."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    totals = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    periods = 0
    for index, (layer, start, end, _parent, extra) in enumerate(spans):
        t = totals[layer]
        t["calls"] += 1
        t["self_s"] += (end - start) - _covered(children.get(index, ()))
        if layer == "dynamics.integrate":
            cycles = (extra or {}).get("cycles")
            periods = None if cycles is None or periods is None else periods + cycles
    totals["dynamics.integrate"]["periods"] = periods
    return totals


def per_layer_metrics(traces, cells: int, steps_per_period: int, overhead_s: float) -> dict:
    """Medians over traced processes of every per-layer metric, in the output format."""
    missing = {where for trace in traces for where in trace["missing"]}
    missing_layers = {
        layer for layer, points in LAYERS.items() if any(_where(p) in missing for p in points)
    }
    rounds = []
    for trace in traces:
        totals = layer_totals(trace["spans"])
        integ = totals["dynamics.integrate"]
        periods = integ["periods"]
        integ["calls_per_cell"] = integ["calls"] / cells
        integ["us_per_step"] = (
            integ["self_s"] / (periods * steps_per_period) * 1e6 if periods else None
        )
        rounds.append(totals)
    metrics = {}
    for name, (unit, layer, quantity) in PER_LAYER.items():
        values = [r[layer][quantity] for r in rounds]
        if layer in missing_layers or any(v is None for v in values):
            value = None
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    metrics[OVERHEAD_METRIC] = {"value": overhead_s, "unit": "s"}
    return metrics
