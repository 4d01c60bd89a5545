"""In-process tracing of the floquet_sensor layers from outside the package.

``Tracer.install`` replaces the public functions of each module with timing
wrappers, in every loaded ``floquet_sensor`` module that binds them (so the
names ``experiments`` imported at load time are wrapped too), and wraps a few
private functions with counting wrappers.  Spans (name, start, end, parent)
stay in memory; ``Tracer.restore`` puts the originals back and
``Tracer.layer_metrics`` turns the spans and counters into per-layer metrics.

A private function that no longer exists is skipped; the metrics taken from
it are then reported as absent.  Span nesting assumes one thread; the
counters are safe under a thread pool.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (span name, module, attribute) of the functions timed as spans
_FUNCTION_SPANS = (
    ("propagator.interval_unitary", "propagator", "interval_unitary"),
    ("propagator.evolve", "propagator", "evolve"),
    ("metrology.qfi_exact", "metrology", "qfi_exact"),
    ("measurement.qfi_pipeline", "measurement", "qfi_pipeline"),
    ("measurement.fit", "measurement", "_fit_qfi_from_expectations"),
    ("experiments.run_scan", "experiments", "run_scan"),
    ("experiments.fit_decaying_cosine", "experiments", "fit_decaying_cosine"),
    ("experiments.run_robustness_sweep", "experiments", "run_robustness_sweep"),
)
# (span name, module, class, method) of the methods timed as spans
_METHOD_SPANS = (
    ("hamiltonian.coefficients", "hamiltonian", "HamiltonianSpec", "coefficients"),
    ("experiments.sample_segments", "experiments", "NoiseModel", "sample_segments"),
    ("cli.write", "cli", "ResultBundle", "write"),
)

#: per-layer metrics with their units, in report order
LAYER_METRICS = (
    ("propagator.interval_unitary.calls", "count"),
    ("propagator.interval_unitary.self_s", "s"),
    ("propagator.interval_unitary.median_ms", "ms"),
    ("propagator.evolve.calls", "count"),
    ("propagator.evolve.self_s", "s"),
    ("propagator.passes", "count"),
    ("propagator.substeps", "count"),
    ("propagator.substeps_per_s", "1/s"),
    ("propagator.final_pass_share", "ratio"),
    ("hamiltonian.coefficients.calls", "count"),
    ("hamiltonian.coefficients.self_s", "s"),
    ("hamiltonian.coefficients.points", "count"),
    ("metrology.qfi_exact.calls", "count"),
    ("metrology.qfi_exact.self_s", "s"),
    ("metrology.qfi_exact.median_s", "s"),
    ("measurement.qfi_pipeline.calls", "count"),
    ("measurement.qfi_pipeline.self_s", "s"),
    ("measurement.readout_draws", "count"),
    ("measurement.fit.calls", "count"),
    ("measurement.fit.self_s", "s"),
    ("experiments.run_scan.calls", "count"),
    ("experiments.run_scan.self_s", "s"),
    ("experiments.segments", "count"),
    ("experiments.sample_segments.self_s", "s"),
    ("experiments.fit_decaying_cosine.calls", "count"),
    ("experiments.fit_decaying_cosine.self_s", "s"),
    ("experiments.robustness.oracle_calls", "count"),
    ("cli.command.self_s", "s"),
    ("cli.write.self_s", "s"),
    ("cli.files_written", "count"),
    ("cli.bytes_written", "bytes"),
)


class Tracer:
    """Span recorder for one process; install, run, restore, then read."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._open: list[int] = []
        self._last_pass = 0
        self._lock = threading.Lock()  # counters may be hit from worker threads
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _span(self, name: str, fn, on_exit=None):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = time.perf_counter()
            if on_exit is not None:
                on_exit(result)
            return result

        return wrapper

    def _interval_unitary_done(self, _result):
        # the pass that interval_unitary returns is the last one it ran
        self.counts["final_substeps"] += self._last_pass
        self._last_pass = 0

    def _count_pass(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(spec, t0, t1, n, z_offsets=None):
            substeps = n * (1 if z_offsets is None else np.asarray(z_offsets).size)
            with self._lock:
                counts["passes"] += 1
                counts["substeps"] += substeps
                self._last_pass = substeps
            return fn(spec, t0, t1, n, z_offsets)

        return wrapper

    def _count_calls(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _coefficients_done(self, result):
        self.counts["coefficient_points"] += result.size // 3

    def _written(self, paths):
        self.counts["files_written"] += len(paths)
        self.counts["bytes_written"] += sum(Path(p).stat().st_size for p in paths)

    # -- patching --------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        """Rebind every package-module attribute that holds ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("floquet_sensor"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _set(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, pkg: dict) -> None:
        """Wrap the layers; ``pkg`` maps short module names to modules."""
        for name, mod, attr in _FUNCTION_SPANS:
            fn = getattr(pkg[mod], attr, None)
            if fn is None:
                self.absent.add(name)
                continue
            on_exit = (self._interval_unitary_done
                       if name == "propagator.interval_unitary" else None)
            self._replace_everywhere(fn, self._span(name, fn, on_exit))
        for name, mod, cls, attr in _METHOD_SPANS:
            owner = getattr(pkg[mod], cls)
            on_exit = {"cli.write": self._written,
                       "hamiltonian.coefficients": self._coefficients_done}.get(name)
            self._set(owner, attr, self._span(name, vars(owner)[attr], on_exit))
        prop, meas = pkg["propagator"], pkg["measurement"]
        if hasattr(prop, "_interval_unitary"):
            self._replace_everywhere(
                prop._interval_unitary, self._count_pass(prop._interval_unitary))
        else:
            self.absent.update(("propagator.passes", "propagator.substeps",
                                "propagator.substeps_per_s",
                                "propagator.final_pass_share"))
        if hasattr(meas, "_estimate_p0_from_total"):
            fn = meas._estimate_p0_from_total
            self._replace_everywhere(fn, self._count_calls("readout_draws", fn))
        else:
            self.absent.add("measurement.readout_draws")
        for cmd in pkg["cli"].main.commands.values():
            self._set(cmd, "callback", self._span("cli.command", cmd.callback))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans as tab-separated name, start, end, parent lines."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")

    def layer_metrics(self) -> dict[str, float | None]:
        """Per-layer values over every span recorded; None where absent."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        durations = defaultdict(list)
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
            durations[name].append(end - start)

        def has_ancestor(i: int, name: str) -> bool:
            i = spans[i][3]
            while i >= 0:
                if spans[i][0] == name:
                    return True
                i = spans[i][3]
            return False

        def median(name: str) -> float:
            return statistics.median(durations[name]) if durations[name] else 0.0

        segments = sum(1 for s in spans if s[0] == "propagator.interval_unitary"
                       and s[3] >= 0 and spans[s[3]][0] == "experiments.run_scan")
        oracle_calls = sum(
            1 for i, s in enumerate(spans) if s[0] == "metrology.qfi_exact"
            and has_ancestor(i, "experiments.run_robustness_sweep"))
        c = self.counts
        prop_time = total["propagator.interval_unitary"]
        values = {
            "propagator.interval_unitary.calls": calls["propagator.interval_unitary"],
            "propagator.interval_unitary.self_s": self_s["propagator.interval_unitary"],
            "propagator.interval_unitary.median_ms":
                1e3 * median("propagator.interval_unitary"),
            "propagator.evolve.calls": calls["propagator.evolve"],
            "propagator.evolve.self_s": self_s["propagator.evolve"],
            "propagator.passes": c["passes"],
            "propagator.substeps": c["substeps"],
            "propagator.substeps_per_s": c["substeps"] / prop_time if prop_time else 0.0,
            "propagator.final_pass_share":
                c["final_substeps"] / c["substeps"] if c["substeps"] else 0.0,
            "hamiltonian.coefficients.calls": calls["hamiltonian.coefficients"],
            "hamiltonian.coefficients.self_s": self_s["hamiltonian.coefficients"],
            "hamiltonian.coefficients.points": c["coefficient_points"],
            "metrology.qfi_exact.calls": calls["metrology.qfi_exact"],
            "metrology.qfi_exact.self_s": self_s["metrology.qfi_exact"],
            "metrology.qfi_exact.median_s": median("metrology.qfi_exact"),
            "measurement.qfi_pipeline.calls": calls["measurement.qfi_pipeline"],
            "measurement.qfi_pipeline.self_s": self_s["measurement.qfi_pipeline"],
            "measurement.readout_draws": c["readout_draws"],
            "measurement.fit.calls": calls["measurement.fit"],
            "measurement.fit.self_s": self_s["measurement.fit"],
            "experiments.run_scan.calls": calls["experiments.run_scan"],
            "experiments.run_scan.self_s": self_s["experiments.run_scan"],
            "experiments.segments": segments,
            "experiments.sample_segments.self_s": self_s["experiments.sample_segments"],
            "experiments.fit_decaying_cosine.calls":
                calls["experiments.fit_decaying_cosine"],
            "experiments.fit_decaying_cosine.self_s":
                self_s["experiments.fit_decaying_cosine"],
            "experiments.robustness.oracle_calls": oracle_calls,
            "cli.command.self_s": self_s["cli.command"],
            "cli.write.self_s": self_s["cli.write"],
            "cli.files_written": c["files_written"],
            "cli.bytes_written": c["bytes_written"],
        }
        for name in self.absent:
            for key in values:
                if key == name or key.startswith(name + "."):
                    values[key] = None
        return values
