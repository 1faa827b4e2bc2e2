"""Per-layer timings of seeding, the repeat-until-hit loop, gate building, the
dilation, large searches, exact recovery and the matrix text format, in process.

    python3 tools/bench_layers.py [--src CHECKOUT/src] [--repeats N] [--label NAME --out FILE]

Imports ``dualsim`` from ``--src`` (default: this checkout's ``src``) and
times each layer with ``time.perf_counter_ns``; a layer's value is the
median over ``--repeats`` rounds that each time every layer once, in an
order shuffled for each round by a seeded ``random.Random``, so that no
layer always runs after the same one.  It runs on checkouts from bc44509 on,
which have ``run_trials``.  Layers:

  seeding.trial_rng_us       one ``trial_rng(seed, t)`` call, over 2000 indices
  seeding.pcg64_states_us    one trial's PCG64 state from ``rand._pcg64_states``,
                             over 2000 indices
  cycle.reset_scalar_us      one Reset cycle drawn one at a time: search gate
                             n = 4 with one marked index (P0 = 1/16), an rng
                             object with only ``.random()``, time per cycle
                             over 2000 ``run_recycling`` trials; each trial
                             dilates its input once
  cycle.reset_chunked_us     the same over one ``run_trials`` call of 2000
                             trials, seeding included, which draws in lockstep
                             and in rows
  cycle.exact_us             one ExactUnitary cycle: phase-slit gate, input
                             |0>, time per cycle over one ``run_trials`` call
                             of 2000 trials, seeding included, on a circuit
                             built for the round
  trial.exhausted_1e6_ms     one Reset trial with P0 = 0 (search gate n = 4,
                             marked 13, input |0>) that spends 10**6 cycles
  trial.exhausted_wide_ms    256 such trials of 10**4 cycles in one
                             ``run_trials`` call, seeding included
  trial.exhausted_drift_ms   one Custom(e^{0.3i} I) trial on the P0 = 0 gate
                             (I, -I) from |0>: 2*10**5 cycles, each from a new
                             state, on a circuit built for the round, and
                             freeing that circuit afterwards; each round runs
                             it in a new process, whose teardown would
                             otherwise slow the layers after it
  trial.exhausted_drift_peak_mb  that process's peak RSS (Linux VmHWM)
  trial.drift_wide_ms        40 such trials of 10**4 cycles in one
                             ``run_trials`` call (P0 = 0 keeps every trial out
                             of lockstep), on a circuit built for the round
  circuit.gate_n8_ms         ``duality_gate_of`` + ``build_dilation`` of a
  circuit.gate_n10_ms        two-slit block of 12 h/t/cx lines per slit (the
                             ``circuit_dense`` kind of block) at n = 8 and 10
  dilation.run_n10_ms        ``run_dilation`` of the n = 10 gate on the
                             uniform state
  search.experiment_n16_ms   one ``run_search_experiment`` (marked 12345, j = 0,
  search.experiment_n20_ms   10 trials, seed 1) on a fresh problem, so its
                             circuit is built in the timed call
  recovery.exact_search_n11_ms  ``exact_recovery`` of the n = 11 search gate's circuit
                             (marked 5), which has none
  format.matrix_256_ms       ``format_matrix_text`` of one 256×256 matrix
  format.matrix_256_peak_mb  the tracemalloc peak of that call, measured once
                             after the rounds
  decompose.cli_256_ms       ``main(["decompose", ...])`` of that matrix's text
                             file, in a new process each round
  decompose.peak_mb_256      that process's peak RSS (Linux VmHWM)

The record also holds nproc, OPENBLAS_NUM_THREADS, the numpy and Python
versions, the checkout's git HEAD and whether its tracked files differ from
it.  It is printed as JSON; with ``--out`` it is also appended to the list
``layers.<label>`` of that JSON file, so runs of two checkouts can
alternate.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRIALS = 2000
SEED = 2024


class ScalarDraws:
    """An rng with only ``.random()``: the loop draws it one cycle at a time."""

    __slots__ = ("random",)

    def __init__(self, generator):
        self.random = generator.random


def medians(repeats: int, layers: dict) -> dict:
    """Median over ``repeats`` rounds of each layer's ``run()``, which returns
    (elapsed ns, units); every round runs each layer once, so slow and fast
    phases of the machine reach all layers alike, and in a shuffled order, so
    what one layer leaves behind does not always fall on the same next one."""
    samples = {name: [] for name in layers}
    order = list(layers)
    shuffle = random.Random(SEED).shuffle
    for _ in range(repeats):
        shuffle(order)
        for name in order:
            elapsed_ns, units = layers[name]()
            samples[name].append(elapsed_ns / units)
    return {name: statistics.median(values) for name, values in samples.items()}


def block_circuit(n: int) -> str:
    """A two-slit duality block, 12 h/t/cx gate lines per slit on seeded qubits."""
    rng = random.Random(n)
    lines = [f"qubits {n}", "duality 2", "weights 0.375 0.625"]
    for slit in range(2):
        lines.append(f"slit {slit}")
        for name in ("h", "t", "cx") * 4:
            qubits = rng.sample(range(n), 2 if name == "cx" else 1)
            lines.append(" ".join([name, *map(str, qubits)]))
    return "\n".join(lines + ["endduality"]) + "\n"


def timed(call) -> tuple[int, int]:
    start = time.perf_counter_ns()
    call()
    return time.perf_counter_ns() - start, 1


# The drifting trial of ``trial.exhausted_drift_ms``, run as
# ``python -c DRIFT_TRIAL SRC SEED``: prints its time (freeing what it built
# included) and the process's peak RSS, VmHWM (``ru_maxrss`` would also
# count the memory of the process that started it).
DRIFT_TRIAL = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from dualsim import Custom, DualityGate, basis_state, build_dilation, run_recycling
eye = np.eye(2, dtype=np.complex128)
rng = np.random.default_rng(int(sys.argv[2]))
circuit = build_dilation(DualityGate(np.array([0.5, 0.5]), (eye, -eye)))
start = time.perf_counter_ns()
run = run_recycling(basis_state(1, 0), circuit, Custom(np.exp(0.3j) * eye), 2 * 10**5, rng=rng)
assert run.exhausted and run.cycles_used == 2 * 10**5
del run, circuit
elapsed = time.perf_counter_ns() - start
with open("/proc/self/status", encoding="ascii") as status:
    peak_kb = int(next(line for line in status if line.startswith("VmHWM:")).split()[1])
print(json.dumps({"ns": elapsed, "peak_kb": peak_kb}))
"""

# ``decompose.cli_256_ms``, run as ``python -c DECOMPOSE_RUN SRC IN OUT``: the
# CLI's own stdout line, then the time of ``main`` and the peak RSS, VmHWM.
DECOMPOSE_RUN = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from dualsim.cli import main
start = time.perf_counter_ns()
assert main(["decompose", "--in", sys.argv[2], "--out", sys.argv[3]]) == 0
elapsed = time.perf_counter_ns() - start
with open("/proc/self/status", encoding="ascii") as status:
    peak_kb = int(next(line for line in status if line.startswith("VmHWM:")).split()[1])
print(json.dumps({"ns": elapsed, "peak_kb": peak_kb}))
"""


def measure(src: Path, workdir: Path, repeats: int) -> dict:
    import numpy as np

    from dualsim import (Custom, DualityGate, ExactUnitary, Reset, SearchProblem, basis_state,
                         build_dilation, exact_recovery, format_matrix_text, parse_circuit, rand,
                         run_dilation, run_recycling, run_search_experiment, run_trials,
                         search_gate, trial_rng, uniform_state)
    from dualsim.circuit import duality_gate_of

    def trials_cycles(input_state, circuit, strategy, max_cycles, trials=TRIALS):
        """(elapsed ns, cycles) of the seeded trials 0..trials-1, seeding included."""
        start = time.perf_counter_ns()
        cycles = int(run_trials(input_state, circuit, strategy, max_cycles, SEED,
                                range(trials))[0].sum())
        return time.perf_counter_ns() - start, cycles

    def seeding_single():
        start = time.perf_counter_ns()
        for t in range(TRIALS):
            trial_rng(SEED, t)
        return time.perf_counter_ns() - start, TRIALS

    def seeding_blocked():
        start = time.perf_counter_ns()
        for _ in rand._pcg64_states(SEED, range(TRIALS)):
            pass
        return time.perf_counter_ns() - start, TRIALS

    gate = search_gate(SearchProblem(4, frozenset({13})))
    circuit = build_dilation(gate)
    prepared = uniform_state(4)
    strategy = Reset(prepared)

    def reset_scalar_cycles():
        rngs = [ScalarDraws(np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(t,))))
                for t in range(TRIALS)]
        cycles = 0
        start = time.perf_counter_ns()
        for rng in rngs:
            cycles += run_recycling(prepared, circuit, strategy, 1024, rng=rng).cycles_used
        return time.perf_counter_ns() - start, cycles

    eye = np.eye(2, dtype=np.complex128)
    qubit_zero = basis_state(1, 0)
    phase_slit = DualityGate(np.array([0.5, 0.5]), (eye, 1j * eye))
    exact_strategy = ExactUnitary(exact_recovery(build_dilation(phase_slit)))
    never_hit = DualityGate(np.array([0.5, 0.5]), (eye, -eye))
    drift = Custom(np.exp(0.3j) * eye)

    peaks_mb = {"trial.exhausted_drift_peak_mb": [], "decompose.peak_mb_256": []}

    def child_run(peak_name, *argv):
        """(ns, 1) from the last stdout line of ``python -c argv``; its peak goes to ``peak_name``."""
        child = subprocess.run([sys.executable, "-c", *argv], capture_output=True, text=True,
                               check=True)
        result = json.loads(child.stdout.splitlines()[-1])
        peaks_mb[peak_name].append(result["peak_kb"] / 1024)
        return result["ns"], 1

    zero = basis_state(4, 0)
    exhaust_strategy = Reset(zero)

    def exhausted_trial():
        rng = np.random.default_rng(SEED)
        start = time.perf_counter_ns()
        run = run_recycling(zero, circuit, exhaust_strategy, 10**6, rng=rng)
        assert run.exhausted and run.cycles_used == 10**6
        return time.perf_counter_ns() - start, 1

    def exhausted_wide():
        elapsed, cycles = trials_cycles(zero, circuit, exhaust_strategy, 10**4, trials=256)
        assert cycles == 256 * 10**4
        return elapsed, 1

    def drift_wide():
        elapsed, cycles = trials_cycles(qubit_zero, build_dilation(never_hit), drift, 10**4,
                                        trials=40)
        assert cycles == 40 * 10**4
        return elapsed, 1

    blocks = {n: (parse_circuit(block_circuit(n)).instructions[0], n) for n in (8, 10)}
    circuit10 = build_dilation(duality_gate_of(*blocks[10]))
    uniform10 = uniform_state(10)

    def search_experiment(n):
        problem = SearchProblem(n, frozenset({12345}))
        return timed(lambda: run_search_experiment(problem, 0, 10, 1))

    search_circuit11 = build_dilation(search_gate(SearchProblem(11, frozenset({5}))))
    matrix256 = np.random.default_rng(SEED).standard_normal((256, 512)).view(np.complex128)
    matrix256_file = workdir / "matrix256.txt"
    matrix256_file.write_text(format_matrix_text(matrix256), encoding="utf-8")

    layers = {"seeding.trial_rng_us": seeding_single,
              "seeding.pcg64_states_us": seeding_blocked,
              "cycle.reset_scalar_us": reset_scalar_cycles,
              "cycle.reset_chunked_us": lambda: trials_cycles(prepared, circuit, strategy, 1024),
              "cycle.exact_us": lambda: trials_cycles(qubit_zero, build_dilation(phase_slit),
                                                      exact_strategy, 128),
              "trial.exhausted_1e6_ms": exhausted_trial,
              "trial.exhausted_wide_ms": exhausted_wide,
              "trial.exhausted_drift_ms": lambda: child_run(
                  "trial.exhausted_drift_peak_mb", DRIFT_TRIAL, str(src), str(SEED)),
              "trial.drift_wide_ms": drift_wide,
              "circuit.gate_n8_ms": lambda: timed(lambda: build_dilation(duality_gate_of(*blocks[8]))),
              "circuit.gate_n10_ms": lambda: timed(lambda: build_dilation(duality_gate_of(*blocks[10]))),
              "dilation.run_n10_ms": lambda: timed(lambda: run_dilation(uniform10, circuit10)),
              "search.experiment_n16_ms": lambda: search_experiment(16),
              "search.experiment_n20_ms": lambda: search_experiment(20),
              "recovery.exact_search_n11_ms": lambda: timed(lambda: exact_recovery(search_circuit11)),
              "format.matrix_256_ms": lambda: timed(lambda: format_matrix_text(matrix256)),
              "decompose.cli_256_ms": lambda: child_run(
                  "decompose.peak_mb_256", DECOMPOSE_RUN, str(src), str(matrix256_file),
                  str(workdir / "decomposition.txt"))}
    values = {name: value / (1e6 if name.endswith("_ms") else 1e3)
              for name, value in medians(repeats, layers).items()}
    values.update((name, statistics.median(peaks)) for name, peaks in peaks_mb.items())
    tracemalloc.start()
    format_matrix_text(matrix256)
    values["format.matrix_256_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return values


def git(src: Path, *argv: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(src), *argv], capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--label")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if (args.label is None) != (args.out is None):
        parser.error("--label and --out go together")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    with tempfile.TemporaryDirectory() as workdir:
        layers = measure(src, Path(workdir), args.repeats)
    record = {
        "layers": layers,
        "repeats": args.repeats,
        "environment": {
            "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "git_head": git(src, "rev-parse", "HEAD"),
            "uncommitted_changes": bool(git(src, "status", "--porcelain", "--untracked-files=no")),
        },
    }
    print(json.dumps(record, indent=2))
    if args.out is not None:
        doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        doc.setdefault("layers", {}).setdefault(args.label, []).append(record)
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
