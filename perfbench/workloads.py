"""Benchmark workloads: seeded inputs, the dualsim CLI commands each one
runs, and the checks applied to every command's output.

Standard library only, so the benchmark's own process never loads numpy or
a BLAS thread pool; the program itself runs in child processes.  Every input
(marked indices, circuit text, matrix files, the program's --seed) is drawn
from ``random.Random`` seeded with the workload name and the benchmark seed,
so the same seed always gives the same inputs and the program receives only
files and flags.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

#: An observed per-attempt hit rate further than this many binomial standard
#: errors from the analytic rate fails its command.  A false alarm at 5 has
#: probability below 1e-6 per check.
RATE_TOL_SE = 5.0
#: Largest reconstruction residual a decomposition may report.
MAX_RESIDUAL = 1e-9
#: Largest deviation of a reported norm from 1, and of the printed amplitudes'
#: norm from the reported one.
NORM_TOL = 1e-9

WORKLOADS = ("loop_small", "loop_exact", "circuit_dense")


class CheckFailed(Exception):
    """A command's output is wrong."""


#: A check reads (stdout, --out bytes) and returns the number of attempts
#: (dilation plus conditional measurement) the output reports, or raises
#: CheckFailed.
Check = Callable[[str, bytes], int]


@dataclass
class Command:
    """One child process.  ``cli_args`` follow ``python -m dualsim.cli``;
    ``None`` means a bare ``import dualsim.cli`` (interpreter start-up)."""

    cli_args: list[str] | None
    check: Check | None = None
    out: Path | None = None


@dataclass
class Workload:
    name: str
    commands: list[Command]
    setup: list[Command]
    sizes: dict


# --- output parsing ----------------------------------------------------------


def _fail(msg: str):
    raise CheckFailed(msg)


def _stdout_fields(stdout: str) -> dict[str, str]:
    """``key=value`` tokens of the CLI's summary lines."""
    fields = {}
    for line in stdout.splitlines():
        for tok in line.split():
            key, sep, value = tok.partition("=")
            if sep:
                fields[key] = value
    return fields


def _int_field(fields: dict[str, str], key: str) -> int:
    try:
        return int(fields[key])
    except (KeyError, ValueError):
        _fail(f"stdout has no integer {key}=")


def _float_field(fields: dict[str, str], key: str) -> float:
    try:
        return float(fields[key])
    except (KeyError, ValueError):
        _fail(f"stdout has no number {key}=")


def _csv_rows(out: bytes, header: str) -> list[list[str]]:
    try:
        lines = [ln for ln in out.decode("utf-8").splitlines() if not ln.startswith("#")]
    except UnicodeDecodeError:
        _fail("--out is not UTF-8")
    if not lines or lines[0] != header:
        _fail(f"--out lacks the header {header!r}")
    return [ln.split(",") for ln in lines[1:]]


def _ints(row: list[str], width: int) -> list[int]:
    if len(row) != width:
        _fail(f"--out row {row!r} does not have {width} fields")
    try:
        return [int(x) for x in row]
    except ValueError:
        _fail(f"--out row {row!r} is not integral")


def _check_rate(hits: int, attempts: int, p: float) -> None:
    """Per-attempt hit rate against the analytic probability ``p``."""
    if attempts < 1:
        _fail("no attempts")
    rate = hits / attempts
    se = math.sqrt(p * (1.0 - p) / attempts)
    if abs(rate - p) > RATE_TOL_SE * se + 1e-12:
        _fail(f"per-attempt hit rate {rate!r} is more than {RATE_TOL_SE} standard errors "
              f"({se!r}) from {p!r}")


# --- checks --------------------------------------------------------------------


def check_search(stdout: str, out: bytes, *, n: int, marked: frozenset[int], j: int) -> int:
    """Every trial hit a marked index; the per-attempt rate matches sin^2((2j+1)beta)."""
    fields = _stdout_fields(stdout)
    trials = _int_field(fields, "trials")
    hits = _int_field(fields, "hits")
    total = _int_field(fields, "total_repetitions")
    rows = _csv_rows(out, "trial,repetitions,hit_index")
    if len(rows) != trials:
        _fail(f"--out has {len(rows)} trials, stdout reports {trials}")
    repetitions = 0
    for t, row in enumerate(rows):
        trial, reps, hit = _ints(row, 3)
        if trial != t or reps < 1:
            _fail(f"bad trial row {row!r}")
        if hit not in marked:
            _fail(f"trial {t}: hit index {hit} is not marked")
        repetitions += reps
    if repetitions != total or hits != trials:
        _fail(f"--out sums to {repetitions} repetitions over {trials} hits, "
              f"stdout reports {total} over {hits}")
    beta = math.asin(math.sqrt(len(marked) / (1 << n)))
    _check_rate(hits, total, math.sin((2 * j + 1) * beta) ** 2)
    return total


def check_recycle(stdout: str, out: bytes) -> int:
    """No trial exhausted; the mean cycle count matches expected_cycles.

    Mean cycles are tested as their reciprocal, the per-attempt hit rate,
    against 1/expected_cycles with the binomial standard error: the same
    test as the mean, but valid for a single trial as well.
    """
    fields = _stdout_fields(stdout)
    trials = _int_field(fields, "trials")
    if _int_field(fields, "exhausted") != 0 or _int_field(fields, "hits") != trials:
        _fail("some trials exhausted their cycle budget")
    mean = _float_field(fields, "mean_cycles")
    expected = _float_field(fields, "expected_cycles")
    count = cycles = 0
    for row in _csv_rows(out, "cycles,count"):
        c, k = _ints(row, 2)
        if c < 1 or k < 1:
            _fail(f"bad histogram row {row!r}")
        count += k
        cycles += c * k
    if count != trials:
        _fail(f"histogram counts {count} trials, stdout reports {trials}")
    if abs(cycles / trials - mean) > 1e-9 * mean:
        _fail(f"histogram mean {cycles / trials!r} differs from mean_cycles {mean!r}")
    if not 1.0 <= expected < math.inf:
        _fail(f"expected_cycles {expected!r} is not finite")
    _check_rate(trials, cycles, 1.0 / expected)
    return cycles


def check_simulate(stdout: str, out: bytes, *, n: int, measured: bool) -> int:
    """Outcome and norm lines present, every amplitude parses, norms agree."""
    lines = stdout.splitlines()
    if len(lines) < 3:
        _fail("stdout lacks the outcome, qubits and norm lines")
    outcome = lines[0].split()
    if outcome[:1] != ["outcome"]:
        _fail(f"first stdout line {lines[0]!r} is not an outcome line")
    if not measured and outcome != ["outcome", "none"]:
        _fail(f"unmeasured circuit reports {lines[0]!r}")
    if measured and outcome[1:2] not in (["hit"], ["miss"]):
        _fail(f"measured circuit reports {lines[0]!r}")
    hit = outcome[1:2] == ["hit"]
    want_qubits = n if hit or not measured else n + 1
    if lines[1] != f"qubits {want_qubits}":
        _fail(f"expected 'qubits {want_qubits}', got {lines[1]!r}")
    head, _, value = lines[2].partition(" ")
    try:
        norm = float(value)
    except ValueError:
        norm = math.nan
    if head != "norm" or not abs(norm - 1.0) <= NORM_TOL:
        _fail(f"bad norm line {lines[2]!r}")
    amps = lines[3:]
    if len(amps) != 1 << want_qubits:
        _fail(f"{len(amps)} amplitude lines for {want_qubits} qubit(s)")
    total = 0.0
    for i, line in enumerate(amps):
        toks = line.split()
        try:
            if len(toks) != 3 or int(toks[0]) != i:
                raise ValueError
            re_, im = float(toks[1]), float(toks[2])
        except ValueError:
            _fail(f"amplitude line {i} does not parse: {line!r}")
        total += re_ * re_ + im * im
    if not abs(math.sqrt(total) - norm) <= NORM_TOL:
        _fail(f"amplitudes have norm {math.sqrt(total)!r}, stdout reports {norm!r}")
    rows = _csv_rows(out, "index,re,im")
    if len(rows) != len(amps) or f"# {lines[0]}".encode() not in out:
        _fail("--out does not hold the outcome and every amplitude")
    return 1 if measured else 0


def check_decompose(stdout: str, out: bytes, *, dim: int) -> int:
    """Residual <= MAX_RESIDUAL and four unitary blocks of the input's size."""
    fields = _stdout_fields(stdout)
    if _int_field(fields, "factors") != 4:
        _fail("expected four factors")
    if not _float_field(fields, "residual") <= MAX_RESIDUAL:
        _fail(f"residual {fields['residual']} exceeds {MAX_RESIDUAL}")
    lines = out.decode("utf-8", "replace").splitlines()
    residual = [ln.removeprefix("residual ") for ln in lines if ln.startswith("residual ")]
    try:
        in_bounds = len(residual) == 1 and float(residual[0]) <= MAX_RESIDUAL
    except ValueError:
        in_bounds = False
    if not in_bounds:
        _fail("--out lacks a residual line within bounds")
    for k in range(4):
        try:
            at = lines.index(f"unitary {k}")
        except ValueError:
            _fail(f"--out lacks 'unitary {k}'")
        if lines[at + 1:at + 2] != [str(dim)] or at + dim + 2 > len(lines):
            _fail(f"--out block 'unitary {k}' is not {dim}x{dim}")
    return 0


def dilation_bytes(dim_aux: int, dim_work: int) -> int:
    """Computed bytes one dense ``run_dilation`` reads and writes: every slit
    matrix and its block, plus the prepare and combine stages."""
    return 16 * (dim_aux * dim_work * dim_work + 2 * dim_aux * dim_work
                 + 2 * (dim_aux * dim_aux + 2 * dim_aux * dim_work))


# --- seeded inputs -------------------------------------------------------------


def _gate_lines(rng: random.Random, n: int, count: int, names: tuple[str, ...]) -> list[str]:
    """``count`` gates, the same number of each name, in seeded order on seeded qubits.

    Fixing the mix keeps the work nearly the same on every seed."""
    gates = [names[i % len(names)] for i in range(count)]
    rng.shuffle(gates)
    lines = []
    for name in gates:
        if name == "cx":
            control, target = rng.sample(range(n), 2)
            lines.append(f"cx {control} {target}")
        else:
            lines.append(f"{name} {rng.randrange(n)}")
    return lines


def _measured_circuit(rng: random.Random, n: int, slit_gates: int) -> str:
    """A duality block of two h/cx/t gate-sequence slits, read out by cmeasure."""
    p0 = rng.choice((0.25, 0.375, 0.5, 0.625))  # exact binary fractions: weights sum to 1
    lines = [f"qubits {n}", "init uniform", *_gate_lines(rng, n, 8, ("h", "t", "cx")),
             "duality 2", f"weights {p0!r} {1.0 - p0!r}"]
    for slit in range(2):
        lines += [f"slit {slit}", *_gate_lines(rng, n, slit_gates, ("h", "t", "cx"))]
    lines += ["endduality", "cmeasure"]
    return "\n".join(lines) + "\n"


def _plain_circuit(rng: random.Random, n: int, gates: int) -> str:
    lines = [f"qubits {n}", f"init basis {rng.randrange(1 << n)}",
             *_gate_lines(rng, n, gates, ("h", "x", "y", "z", "s", "t", "cx"))]
    return "\n".join(lines) + "\n"


def _matrix_text(rng: random.Random, dim: int) -> str:
    rows = [" ".join(f"{rng.uniform(-1, 1):.6f}{rng.uniform(-1, 1):+.6f}i" for _ in range(dim))
            for _ in range(dim)]
    return "\n".join([str(dim), *rows]) + "\n"


#: Run lengths per workload: full-size, and the tiny sizes the self-test uses.
SIZES = {
    "loop_small": {"full": {"n": 4, "trials": 4000}, "tiny": {"n": 4, "trials": 40}},
    "loop_exact": {"full": {"trials": 15000}, "tiny": {"trials": 60}},
    "circuit_dense": {
        "full": {"measured_n": 10, "slit_gates": 12, "plain_n": 16, "plain_gates": 126,
                 "matrix_dim": 256},
        "tiny": {"measured_n": 4, "slit_gates": 6, "plain_n": 6, "plain_gates": 21,
                 "matrix_dim": 8},
    },
}


def build(name: str, seed: int, workdir: Path, scale: str = "full") -> Workload:
    """Write the workload's inputs for ``seed`` into ``workdir`` and describe its commands.

    Why these workloads: ``loop_small`` and ``loop_exact`` are the
    repeat-until-hit loop, dominated by per-attempt Python overhead (the
    search gate under Reset, and the general ExactUnitary path), and
    ``circuit_dense`` is the only one reaching the circuit format, opalg,
    apply_operator and the matrix text format.
    """
    size = SIZES[name][scale]
    rng = random.Random(f"{name}:{seed}")
    if name == "loop_small":
        n, trials = size["n"], size["trials"]
        marked = frozenset({rng.randrange(1 << n)})
        out = workdir / f"{name}.csv"

        def command(t: int) -> Command:
            args = ["search", "--n", str(n), "--marked", ",".join(map(str, sorted(marked))),
                    "--j", "0", "--trials", str(t), "--seed", str(seed), "--out", str(out)]
            return Command(args, partial(check_search, n=n, marked=marked, j=0), out)

        dim = 1 << n
        return Workload(name, [command(trials)], [command(1)],
                        {"n": n, "marked": sorted(marked), "j": 0, "trials": trials,
                         "dense_slit_matrix_bytes": 16 * dim * dim, "dense_slit_matrices": 2,
                         "run_dilation_bytes_per_attempt": dilation_bytes(2, dim)})
    if name == "loop_exact":
        out = workdir / f"{name}.csv"

        def command(t: int) -> Command:
            args = ["recycle", "--gate", "phase-slit", "--init", "0", "--recovery", "exact",
                    "--trials", str(t), "--seed", str(seed), "--out", str(out)]
            return Command(args, check_recycle, out)

        return Workload(name, [command(size["trials"])], [command(1)],
                        {"trials": size["trials"], "dense_slit_matrix_bytes": 16 * 2 * 2,
                         "dense_slit_matrices": 2})
    if name == "circuit_dense":
        mn, pn, dim = size["measured_n"], size["plain_n"], size["matrix_dim"]
        measured = workdir / "measured.qc"
        measured.write_text(_measured_circuit(rng, mn, size["slit_gates"]), encoding="utf-8")
        plain = workdir / "plain.qc"
        plain.write_text(_plain_circuit(rng, pn, size["plain_gates"]), encoding="utf-8")
        matrix = workdir / "matrix.txt"
        matrix.write_text(_matrix_text(rng, dim), encoding="utf-8")
        commands = []
        for i, (circuit, n, is_measured) in enumerate(((measured, mn, True), (plain, pn, False))):
            out = workdir / f"simulate{i}.csv"
            commands.append(Command(
                ["simulate", "--circuit", str(circuit), "--seed", str(seed), "--out", str(out)],
                partial(check_simulate, n=n, measured=is_measured), out))
        out = workdir / "decompose.txt"
        commands.append(Command(["decompose", "--in", str(matrix), "--seed", str(seed),
                                 "--out", str(out)], partial(check_decompose, dim=dim), out))
        sizes = dict(size, dense_slit_matrix_bytes=16 << (2 * mn), dense_slit_matrices=2,
                     plain_state_bytes=16 << pn, matrix_bytes=16 * dim * dim)
        return Workload(name, commands, [Command(None) for _ in commands], sizes)
    raise ValueError(f"unknown workload {name!r}")
