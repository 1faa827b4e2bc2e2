"""dualsim benchmark: time to a result of the CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src``.
Workloads are defined in ``workloads.py``.  Each command runs as a child
process, one at a time (a closed loop with a single client), with
``OPENBLAS_NUM_THREADS=1`` set in the child's environment only, no other
``PYTHON*`` variable than ``PYTHONPATH``, and a timeout that counts as a
failed operation.  Every output is checked, and a rerun of a command must
write a byte-identical ``--out``.

``--trace 0`` interleaves the workload's set-up commands and its full
commands for S seconds (at least three times each) and reports the medians
of the end-to-end metrics:

  wall_s          spawn-to-exit wall time of the workload's commands
  setup_s         the same with ``--trials 1``; interpreter start plus
                  ``import dualsim.cli`` for commands without a trial count
  attempts_per_s  (attempts of the full run - attempts of the set-up run)
                  / (wall_s - setup_s); an attempt is one dilation plus
                  conditional measurement, read from the command's output
  peak_rss_mb     largest ``ru_maxrss`` among the workload's commands
  ok_frac         1 - failed / attempted commands, i.e. 1 - fail_frac

``--trace 1`` alternates untraced runs with traced replays (``traced.py``)
for S seconds (at least once) and reports the per-layer metrics:
``<module>.<function>.calls`` and ``.self_s`` (span time minus child spans),
the counters named in ``traced.COUNTERS`` and ``trace_overhead_s``, the
traced minus the untraced wall time.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of a run (the
environment, the workload's sizes, every sample and error) is written to
``perfbench/out/results/``, and the spans of the latest traced replay of
each command to ``perfbench/out/spans/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from traced import COUNTERS, LAYER_FUNCTIONS, read_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: Threads each child's BLAS may use; pinned in the children's environment only.
BLAS_THREADS = 1
#: A child still running after this long is killed and counts as failed.
COMMAND_TIMEOUT_S = 90.0
#: No command starts, and no child outlives, this many seconds after start-up.
DEADLINE_S = 170.0
#: Fewest repetitions per run, untraced and traced.
MIN_REPS = {0: 3, 1: 1}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "attempts_per_s": "1/s",
                    "peak_rss_mb": "MB", "ok_frac": "ratio"}

PROBE = """\
import json, platform, numpy, scipy, dualsim.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({type(exc).__name__})"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas}))
"""


def _counter_metric(key: str) -> str:
    """Metric reported for a counter: a hit count is reported as a ratio to calls."""
    return key.removesuffix(".hits") + ".hit_ratio" if key.endswith(".hits") else key


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run can report, with its unit."""
    units = {}
    for layer, attr in LAYER_FUNCTIONS:
        units[f"{layer}.{attr}.calls"] = "count"
        units[f"{layer}.{attr}.self_s"] = "s"
    for key, (_, unit, _) in COUNTERS.items():
        units[_counter_metric(key)] = unit
    units["trace_overhead_s"] = "s"
    return units


def _dropped(missing: set[str]) -> set[str]:
    """Metrics of functions that no longer exist and of counters that broke."""
    gone = {f"{name}.{kind}" for name in missing for kind in ("calls", "self_s")}
    for key, (traced_name, _, _) in COUNTERS.items():
        if key in missing or traced_name in missing:
            gone.add(_counter_metric(key))
    return gone


@dataclass
class Sample:
    """One finished child process."""

    wall: float
    rss_mb: float
    attempts: int = 0
    error: str | None = None
    layers: dict = field(default_factory=dict)


class Runner:
    """Runs commands as children and keeps the run's counts, digests and errors."""

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.deadline = time.monotonic() + DEADLINE_S
        # The caller's PYTHON* settings (unbuffered output, no bytecode cache)
        # would change the children's speed, so children get none of them.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=str(BLAS_THREADS))
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[tuple, str] = {}
        self.missing: set[str] = set()
        self.self_sum_gap = 0.0

    def spawn(self, argv: list[str], tag: str, timeout: float) -> tuple[float, float, int | None]:
        """Run argv to its end: (wall s, ru_maxrss MB, exit code, or None if killed)."""
        with open(self.workdir / f"{tag}.stdout", "wb") as out, \
                open(self.workdir / f"{tag}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill():
            with lock:
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # Wait without reaping, so the timer can never signal a reused pid.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["exited"] = True
        finally:
            timer.cancel()
            if not state["exited"]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        code = None if state["killed"] else proc.returncode
        return wall, usage.ru_maxrss / 1024.0, code

    def execute(self, cmd: workloads.Command, tag: str, spans: Path | None = None) -> Sample:
        """Run one command, check its output, and record a failure if any."""
        py = sys.executable
        if cmd.cli_args is None:
            argv = [py, "-c", "import dualsim.cli"]
        elif spans is not None:
            argv = [py, str(BENCH / "traced.py"), str(spans), self.workload, "--", *cmd.cli_args]
        else:
            argv = [py, "-m", "dualsim.cli", *cmd.cli_args]
        self.attempted += 1
        timeout = min(COMMAND_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return self._failed(Sample(0.0, 0.0), tag, "the run's deadline passed")
        if cmd.out is not None:
            cmd.out.unlink(missing_ok=True)
        wall, rss, code = self.spawn(argv, tag, timeout)
        sample = Sample(wall, rss)
        stderr = (self.workdir / f"{tag}.stderr").read_text("utf-8", "replace")
        if code is None:
            return self._failed(sample, tag, f"timed out after {timeout:.3g} s")
        if code != 0 or any(ln.startswith("error:") for ln in stderr.splitlines()):
            last = stderr.strip().splitlines()[-1:] or [""]
            return self._failed(sample, tag, f"exit code {code}: {last[0]}")
        if cmd.check is None:
            return sample
        stdout = (self.workdir / f"{tag}.stdout").read_text("utf-8", "replace")
        try:
            sample.attempts = self.verify(cmd, stdout, cmd.out.read_bytes())
        except OSError as exc:
            return self._failed(sample, tag, f"no --out: {exc}")
        except workloads.CheckFailed as exc:
            return self._failed(sample, tag, str(exc))
        if spans is not None:
            sample.layers = self.layer_metrics(spans)
        return sample

    def verify(self, cmd: workloads.Command, stdout: str, out: bytes) -> int:
        """Check one output; every run of the same arguments must write the same --out."""
        attempts = cmd.check(stdout, out)
        digest = hashlib.sha256(out).hexdigest()
        if self.digests.setdefault(tuple(cmd.cli_args), digest) != digest:
            raise workloads.CheckFailed("a rerun wrote a different --out")
        return attempts

    def _failed(self, sample: Sample, tag: str, error: str) -> Sample:
        sample.error = error
        self.failed += 1
        self.errors.append(f"{tag}: {error}")
        return sample

    def layer_metrics(self, spans: Path) -> dict[str, float]:
        """Calls, self time and counter totals per traced name, from a spans file."""
        header, cols = read_spans(spans)
        names, ids, parents, starts, ends = (header["names"], cols["name"], cols["parent"],
                                             cols["start"], cols["end"])
        child = [0.0] * header["count"]
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        calls = dict.fromkeys(names, 0)
        self_s = dict.fromkeys(names, 0.0)
        main_total = 0.0
        for i, name_id in enumerate(ids):
            name = names[name_id]
            span = ends[i] - starts[i]
            calls[name] += 1
            self_s[name] += span - child[i]
            if name == "cli.main":
                main_total += span
        self.missing.update(header["missing"])
        # Self times partition the cli.main spans when every span nests inside one.
        self.self_sum_gap = max(self.self_sum_gap, abs(sum(self_s.values()) - main_total))
        totals = dict(header["counters"])
        for name in names:
            totals[f"{name}.calls"] = calls[name]
            totals[f"{name}.self_s"] = self_s[name]
        return totals


def _sum(samples: list[Sample], attr: str) -> float:
    return sum(getattr(s, attr) for s in samples)


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"


def _done(runner: Runner, enough: bool, start: float, rep_start: float, seconds: float) -> bool:
    """Stop after a failure, or when another repetition as long as the last one
    would end past the measuring window (once there are enough) or the deadline."""
    now = time.monotonic()
    next_end = now + (now - rep_start)
    return bool(runner.errors) or (enough and next_end - start > seconds) \
        or next_end > runner.deadline


def measure(runner: Runner, work: workloads.Workload, seconds: float) -> tuple[dict, list]:
    """Untraced: interleave set-up and full runs; medians of the end-to-end metrics."""
    reps = []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        k = len(reps)
        setup = [runner.execute(c, f"setup{k}-{i}") for i, c in enumerate(work.setup)]
        full = [runner.execute(c, f"full{k}-{i}") for i, c in enumerate(work.commands)]
        reps.append((setup, full))
        if _done(runner, len(reps) >= MIN_REPS[0], start, rep_start, seconds):
            break
    walls = [_sum(full, "wall") for _, full in reps]
    setups = [_sum(setup, "wall") for setup, _ in reps]
    rss = [max(s.rss_mb for s in full) for _, full in reps]
    wall_s, setup_s = statistics.median(walls), statistics.median(setups)
    attempts = _sum(reps[0][1], "attempts") - _sum(reps[0][0], "attempts")
    metrics = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "attempts_per_s": attempts / max(wall_s - setup_s, 1e-9),
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }
    print(f"wall_s: {_quartiles(walls)}; setup_s: {_quartiles(setups)}; "
          f"attempts per full run minus set-up: {attempts}")
    raw = [{"setup": [s.__dict__ for s in setup], "full": [s.__dict__ for s in full]}
           for setup, full in reps]
    return metrics, raw


def trace(runner: Runner, work: workloads.Workload, seconds: float) -> tuple[dict, list]:
    """Alternate untraced runs and traced replays; medians of the per-layer metrics."""
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    reps = []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        k = len(reps)
        plain = [runner.execute(c, f"plain{k}-{i}") for i, c in enumerate(work.commands)]
        traced = [runner.execute(c, f"traced{k}-{i}", spans_dir / f"{work.name}-{i}.bin")
                  for i, c in enumerate(work.commands)]
        reps.append((plain, traced))
        if _done(runner, len(reps) >= MIN_REPS[1], start, rep_start, seconds):
            break
    per_rep = []
    for _, traced in reps:
        merged: dict[str, float] = {}
        for sample in traced:
            for key, value in sample.layers.items():
                merged[key] = merged.get(key, 0) + value
        for key, (traced_name, _, _) in COUNTERS.items():
            if key.endswith(".hits") and key in merged:
                calls = merged[f"{traced_name}.calls"]
                merged[_counter_metric(key)] = merged.pop(key) / calls if calls else 0.0
        per_rep.append(merged)
    gone = _dropped(runner.missing)
    # median_low keeps counts integral; they are the same in every replay
    metrics = {key: statistics.median_low(rep.get(key, 0) for rep in per_rep)
               for key in per_layer_units() if key != "trace_overhead_s" and key not in gone}
    untraced = [_sum(plain, "wall") for plain, _ in reps]
    traced_walls = [_sum(traced, "wall") for _, traced in reps]
    metrics["trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    if runner.self_sum_gap > max(abs(metrics["trace_overhead_s"]), 1e-9):
        runner.errors.append(f"span self times miss cli.main's total by {runner.self_sum_gap} s")
    print(f"untraced wall: {_quartiles(untraced)}; traced wall: {_quartiles(traced_walls)}; "
          f"self times sum to cli.main's total within {runner.self_sum_gap:.3g} s")
    if runner.missing:
        print("missing, so not reported: " + ", ".join(sorted(runner.missing)))
    raw = [{"untraced": [s.wall for s in plain], "traced": [s.wall for s in traced]}
           for plain, traced in reps]
    return metrics, raw


def environment(runner: Runner) -> dict:
    """Versions, CPU and cache sizes, and the pinned BLAS thread count."""
    env = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS, "python_executable": sys.executable}
    _, _, code = runner.spawn([sys.executable, "-c", PROBE], "probe", COMMAND_TIMEOUT_S)
    if code != 0:
        err = (runner.workdir / "probe.stderr").read_text("utf-8", "replace").strip()
        raise SystemExit(f"error: cannot import dualsim, numpy and scipy from {ROOT / 'src'}: {err}")
    env.update(json.loads((runner.workdir / "probe.stdout").read_text("utf-8")))
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            env["cpu"] = next((ln.split(":", 1)[1].strip() for ln in f
                               if ln.startswith("model name")), "unknown")
    except OSError:
        env["cpu"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / n).read_text().strip() for n in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    env["caches"] = caches
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not (ROOT / "src" / "dualsim" / "cli.py").is_file():
        print(f"error: no dualsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


def run(name: str, seed: int, seconds: float, trace_mode: int, scale: str = "full") -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workdir = OUT / "work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(name, workdir)
        env = environment(runner)
        work = workloads.build(name, seed, workdir, scale)
        print(f"workload {name} seed {seed} trace {trace_mode}: {json.dumps(work.sizes)}")
        print(f"environment: {json.dumps(env)}")
        if trace_mode:
            metrics, raw = trace(runner, work, seconds)
            units = per_layer_units()
        else:
            metrics, raw = measure(runner, work, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, value in metrics.items():
        print(f"{key} = {value!r} {units[key]}")
    for error in runner.errors:
        print(f"FAILED {error}")
    result = {"correct": not runner.errors, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace_mode,
                  scale=scale, sizes=work.sizes, environment=env, samples=raw,
                  errors=runner.errors, missing=sorted(runner.missing))
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{trace_mode}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return result


if __name__ == "__main__":
    sys.exit(main())
