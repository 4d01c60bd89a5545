"""Benchmark of the floquet-sensor command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the workload's CLI command runs again
and again, each time in a fresh process, for S seconds, and the end-to-end
metrics are medians over those invocations, with every time scaled to a
nominal host speed (see ``speed_probe``).  With ``--trace 1`` the command
runs in this process, alternately plain and with every layer wrapped by
``tracing.Tracer``, and the per-layer metrics and the tracing overhead are
reported.  Either way the outputs are checked (see ``workloads.py``) and the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files, run records and
span dumps go to ``.bench_out/``.  Exit status 2 means the benchmark could
not run at all (for example, no ``src/floquet_sensor`` here).
"""

from __future__ import annotations

import os

# single-threaded numerics in this process and in every child it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import scipy

import workloads
from tracing import LAYER_METRICS, Tracer

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = Path(".bench_out")
CHILD_TIMEOUT_S = 150.0
GLOBAL_FLAGS = ["--threads", "1"]

# Host speed.  The shared host runs the same instructions up to 1.7 times
# slower from one minute to the next, and CPU time drifts with wall time, so
# raw times of one commit spread far past any useful bound.  A fixed reference
# job runs before the first child and after every child; each child's times
# are scaled by NOMINAL_SPEED_PROBE_S over the mean of the two probe times
# around it.  Like an invocation, the probe is a fresh interpreter: it imports
# numpy and scipy.linalg, then runs interpreter loops, small-matrix calls and
# elementwise passes over freshly allocated 131,072 x 3 arrays.  It uses
# nothing of the program, so a change to the program leaves it alone.
SPEED_PROBE_CODE = """
import numpy as np
import scipy.linalg

rng = np.random.default_rng(0)
small = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
acc = 0.0
for i in range(40000):
    acc += (i % 7) * 0.5
m = small
for _ in range(1500):
    m = (m @ small) * 0.5
for _ in range(8):
    b = rng.standard_normal((1 << 17, 3))
    z = np.exp(1j * np.sqrt(np.sum(b * b, axis=1)))
    acc += float(np.abs(np.sum(z * z.conj())))
print(acc + abs(m[0, 0]) + scipy.linalg.norm(small))
"""
#: a typical probe time on the machine of the README figures (see there)
NOMINAL_SPEED_PROBE_S = 0.55


def speed_probe() -> float:
    """Wall time of one fresh-process run of the reference job, in seconds."""
    start = time.monotonic_ns()
    proc = subprocess.run([sys.executable, "-c", SPEED_PROBE_CODE],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    end = time.monotonic_ns()
    if proc.returncode != 0 or not math.isfinite(float(proc.stdout)):
        raise RuntimeError(f"speed probe failed: {proc.stderr[-2000:]}")
    return (end - start) * 1e-9


def machine_facts() -> dict:
    """Machine, toolchain and the source measured (commit, or a digest)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(path.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


class Runner:
    """Starts CLI processes for one workload under ``.bench_out/<workload>``."""

    def __init__(self, workload: str, config: dict | None):
        self.dir = OUT / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config_flags = []
        if config is not None:
            path = self.dir / "config.json"
            path.write_text(json.dumps(config))
            self.config_flags = ["--config", str(path)]

    def spawn(self, flags: list[str], out: Path, config_flags=None) -> dict:
        """One fresh CLI process: wall, set-up and body time, peak RSS, exit code."""
        cmd = [sys.executable, str(BENCH / "clirun.py"), str(SRC.resolve())]
        cmd += GLOBAL_FLAGS + (self.config_flags if config_flags is None
                               else config_flags) + ["--out", str(out)] + flags
        log = self.dir / "child.log"
        with open(log, "w") as err:
            start = time.monotonic_ns()
            proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = log.read_text()
        marks = {}
        for line in text.splitlines():
            if line.startswith("bench-"):
                key, value = line.split()
                marks[key] = int(value)
        body_start, body_end = marks.get("bench-body-start"), marks.get("bench-body-end")
        peak_kb = marks.get("bench-peak-rss-kb")
        return {
            "code": proc.returncode,
            "wall_s": (end - start) * 1e-9,
            "setup_s": (body_start - start) * 1e-9 if body_start else None,
            "body_s": (body_end - body_start) * 1e-9 if body_start and body_end else None,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": peak_kb / 1024.0 if peak_kb else None,
            "stderr": text[-2000:],
        }

    def run_cli(self, flags: list[str], config: dict | None) -> Path:
        """Run the CLI once with a side config (for checks); return its out dir."""
        out = self.dir / "side"
        shutil.rmtree(out, ignore_errors=True)
        path = self.dir / "side-config.json"
        path.write_text(json.dumps(config))
        res = self.spawn(flags, out, config_flags=["--config", str(path)])
        if res["code"] != 0:
            raise RuntimeError(f"check invocation failed: {res['stderr']}")
        return out


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(wl, inputs, runner: Runner, seconds: float, record: dict):
    """Fresh-process invocations for ``seconds``; returns (attempted, failed,
    fails, metrics)."""
    out, first = runner.dir / "out", runner.dir / "first"
    probes = [speed_probe()]
    samples, digests, fails = [], set(), []
    attempted = failed = 0
    start = time.monotonic()
    while attempted == 0 or time.monotonic() - start < seconds:
        shutil.rmtree(out, ignore_errors=True)
        res = runner.spawn(inputs.flags, out)
        probes.append(speed_probe())
        attempted += 1
        if res["code"] != 0 or None in (res["setup_s"], res["body_s"], res["rss_mb"]):
            failed += 1
            print(f"invocation {attempted} failed:\n{res['stderr']}", file=sys.stderr)
            continue
        res["speed_probe_s"] = probes[-2:]
        res["scale"] = NOMINAL_SPEED_PROBE_S / statistics.fmean(probes[-2:])
        samples.append(res)
        digests.add(dir_digest(out))
        if not first.exists():
            out.rename(first)
    record["invocations"] = [{k: v for k, v in s.items() if k != "stderr"}
                             for s in samples]
    if not samples:
        return attempted, failed, ["every invocation failed"], {}
    if len(digests) > 1:
        fails.append(f"{len(digests)} different output sets from one seed")
    fails += wl.check(first, inputs, SRC, runner.run_cli)

    unscaled = {"wall_s": statistics.median(s["wall_s"] for s in samples),
                "setup_s": statistics.median(s["setup_s"] for s in samples),
                "speed_probe_s": statistics.median(probes)}
    record["unscaled_medians"] = unscaled
    metrics = {
        "wall_s": metric(statistics.median(s["wall_s"] * s["scale"] for s in samples), "s"),
        "setup_s": metric(statistics.median(s["setup_s"] * s["scale"] for s in samples), "s"),
        "peak_rss_mb": metric(statistics.median(s["rss_mb"] for s in samples), "MB"),
        "points_per_s": metric(statistics.median(
            inputs.points / (s["body_s"] * s["scale"])
            for s in samples), "1/s"),
    }
    print(f"{wl.name}: {len(samples)} invocations; unscaled medians "
          + ", ".join(f"{k} {v:.4g}" for k, v in unscaled.items()))
    return attempted, failed, fails, metrics


def run_traced(wl, inputs, runner: Runner, seconds: float, seed: int, record: dict):
    """Alternate plain and traced in-process invocations for ``seconds``."""
    sys.path.insert(0, str(SRC))
    import floquet_sensor.cli as cli
    from floquet_sensor import experiments, hamiltonian, measurement, metrology, propagator

    pkg = {"cli": cli, "experiments": experiments, "hamiltonian": hamiltonian,
           "measurement": measurement, "metrology": metrology,
           "propagator": propagator}

    def invoke(out: Path) -> float:
        shutil.rmtree(out, ignore_errors=True)
        args = GLOBAL_FLAGS + runner.config_flags + ["--out", str(out)] + inputs.flags
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main.main(args=args, standalone_mode=False)
        return time.perf_counter() - t0

    out = runner.dir / "out"  # one path: the summary echoes the directory
    plain, traced, layers, digests = [], [], [], set()
    tracer = None
    invoke(out)  # warm-up: first-call costs would otherwise land on ``plain``
    start = time.monotonic()
    while not traced or time.monotonic() - start < seconds:
        plain.append(invoke(out))
        digests.add(dir_digest(out))
        tracer = Tracer()
        tracer.install(pkg)
        try:
            traced.append(invoke(out))
        finally:
            tracer.restore()
        digests.add(dir_digest(out))
        layers.append(tracer.layer_metrics())

    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_dir / f"{wl.name}-seed{seed}.tsv")
    record["plain_s"], record["traced_s"], record["layers"] = plain, traced, layers

    fails = [] if len(digests) == 1 else ["tracing changed the output files"]
    fails += wl.check(out, inputs, SRC, runner.run_cli)
    metrics = {}
    for name, unit in LAYER_METRICS:
        values = [lay[name] for lay in layers]
        if values[0] is None:
            metrics[name] = {"value": None, "unit": unit, "absent": True}
        else:
            metrics[name] = metric(statistics.median(values), unit)
    metrics["tracing_overhead_s"] = metric(
        statistics.median(traced) - statistics.median(plain), "s")
    return 1 + len(plain) + len(traced), 0, fails, metrics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "floquet_sensor" / "cli.py").is_file():
        print(f"error: no floquet_sensor sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        sys.exit(2)

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(np.random.default_rng(args.seed))
    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "config": inputs.config,
              "flags": inputs.flags, "extra": inputs.extra}
    runner = Runner(wl.name, inputs.config)
    if args.trace:
        attempted, failed, fails, metrics = run_traced(
            wl, inputs, runner, args.seconds, args.seed, record)
    else:
        attempted, failed, fails, metrics = run_untraced(
            wl, inputs, runner, args.seconds, record)
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {"correct": not fails, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(result=result, check_failures=fails)
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
