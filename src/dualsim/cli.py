"""Command-line front end.

Subcommands: simulate, search, recycle, decompose, curve.  Every output
file starts with ``# seed=`` and ``# command=`` comment lines, file bodies
are written in one shot only after a command succeeds (to a temporary file
that is then renamed into place), and identical invocations produce
byte-identical files.  Failures print a single line
``error: <Type>: <message>`` on stderr and exit nonzero, leaving no
partial file and any earlier output untouched.

The CLI is the package's only I/O boundary: library modules never touch
files.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .circuit import parse_circuit, run_circuit
from .duality import DualityGate, Hit, build_dilation
from .opalg import DEFAULT_NORMAL_TOL, lcu_decompose, normal_decompose
from .rand import trial_rng
from .recycling import (
    Custom,
    ExactUnitary,
    InfiniteExpectationError,
    Reset,
    default_max_cycles,
    exact_recovery,
    expected_cycles,
    run_recycling,
)
from .search import SearchProblem, repetition_curve, run_search_experiment, search_gate
from .statevec import basis_state, format_matrix_text, norm, parse_matrix_text, uniform_state


def _fmt(x) -> str:
    """Output float format: >= 12 significant digits and exact round-trip."""
    return format(float(x), ".17g")


def _comment_header(seed: int, argv: list[str]) -> list[str]:
    return [f"# seed={seed}", f"# command={' '.join(argv)}"]


def _write_text(path: str, text: str) -> None:
    """Write to a temporary file beside ``path``, then rename it over ``path``.

    Readers see either the old file or the complete new one; a failed write
    removes the temporary file and leaves ``path`` as it was.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")  # exclusive create; mode as for a plain write
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _seed_value(tok: str) -> int:
    value = int(tok)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be a 64-bit unsigned integer, got {value}")
    return value


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``, rejected before any work starts."""
    def parse(tok: str) -> int:
        try:
            value = int(tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {tok!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


def _parse_marked(spec: str) -> frozenset[int]:
    toks = spec.replace(",", " ").split()
    if not toks:
        raise ValueError(f"empty marked list {spec!r}")
    return frozenset(int(t) for t in toks)


def _initial_state(spec: str, num_qubits: int):
    if spec == "uniform":
        return uniform_state(num_qubits)
    return basis_state(num_qubits, int(spec))


def cmd_curve(args, argv: list[str]) -> int:
    rows = repetition_curve(1 << args.n, args.marked_count, args.jmax)
    lines = _comment_header(args.seed, argv)
    lines.append("j,success_prob,repetitions")
    for j, p, reps in rows:
        lines.append(f"{j},{_fmt(p)},{_fmt(reps)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}: {len(rows)} rows (N={1 << args.n}, M={args.marked_count})")
    return 0


def cmd_search(args, argv: list[str]) -> int:
    problem = SearchProblem(args.n, _parse_marked(args.marked))
    stats = run_search_experiment(problem, args.j, args.trials, args.seed,
                                  max_repetitions=args.max_repetitions)
    lines = _comment_header(args.seed, argv)
    lines.append("trial,repetitions,hit_index")
    for t, res in enumerate(stats.trial_results):
        hit = -1 if res.hit_index is None else res.hit_index
        lines.append(f"{t},{res.repetitions},{hit}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"trials={stats.trials} hits={stats.hits} total_repetitions={stats.total_repetitions}")
    print(f"empirical_success_rate={_fmt(stats.empirical_success_rate)}")
    print(f"analytic_success_prob={_fmt(stats.analytic_success_prob)}")
    print(f"mean_repetitions={_fmt(stats.mean_repetitions)}")
    return 0


def _recycle_gate(args) -> DualityGate:
    if args.gate == "search":
        if args.marked is None:
            raise ValueError("--gate search needs --marked")
        return search_gate(SearchProblem(args.n, _parse_marked(args.marked)))
    if args.gate == "phase-slit":
        eye = np.eye(2, dtype=np.complex128)
        return DualityGate(np.array([0.5, 0.5]), (eye, 1j * eye))
    if not args.slit or args.weights is None:
        raise ValueError("--gate custom needs --slit matrix files and --weights")
    unitaries = tuple(parse_matrix_text(Path(f).read_text(encoding="utf-8")) for f in args.slit)
    weights = np.array([float(w) for w in args.weights.replace(",", " ").split()])
    return DualityGate(weights, unitaries)


def cmd_recycle(args, argv: list[str]) -> int:
    gate = _recycle_gate(args)
    state = _initial_state(args.init, gate.num_qubits)
    if args.recovery == "reset":
        strategy = Reset(state)
    elif args.recovery == "exact":
        v = exact_recovery(gate)
        if v is None:
            raise ValueError("no exact recovery unitary exists for this gate; use --recovery reset")
        strategy = ExactUnitary(v)
    else:
        if args.recovery_matrix is None:
            raise ValueError("--recovery custom needs --recovery-matrix")
        strategy = Custom(parse_matrix_text(Path(args.recovery_matrix).read_text(encoding="utf-8")))
    circuit = build_dilation(gate)
    max_cycles = args.max_cycles if args.max_cycles is not None else default_max_cycles(gate, state)
    hist: Counter[int] = Counter()
    hits = 0
    total_cycles = 0
    for t in range(args.trials):
        run = run_recycling(state, gate, strategy, max_cycles, rng=trial_rng(args.seed, t),
                            circuit=circuit)
        hist[run.cycles_used] += 1
        hits += not run.exhausted
        total_cycles += run.cycles_used
    mean_cycles = total_cycles / args.trials
    try:
        expectation = _fmt(expected_cycles(gate, state))
    except InfiniteExpectationError:
        expectation = "inf"
    lines = _comment_header(args.seed, argv)
    lines.append("cycles,count")
    for cycles in sorted(hist):
        lines.append(f"{cycles},{hist[cycles]}")
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"trials={args.trials} hits={hits} exhausted={args.trials - hits}")
    print(f"mean_cycles={_fmt(mean_cycles)}")
    print(f"expected_cycles={expectation}")
    return 0


def cmd_decompose(args, argv: list[str]) -> int:
    mat = parse_matrix_text(Path(args.matrix_in).read_text(encoding="utf-8"))
    dec = normal_decompose(mat, tol=args.tol) if args.normal else lcu_decompose(mat)
    lines = _comment_header(args.seed, argv)
    lines.append(f"alpha {_fmt(dec.alpha)}")
    lines.append("weights " + " ".join(_fmt(p) for p in dec.weights))
    lines.append(f"residual {_fmt(dec.residual)}")
    for i, u in enumerate(dec.unitaries):
        lines.append(f"unitary {i}")
        lines.append(format_matrix_text(u).rstrip("\n"))
    _write_text(args.out, "\n".join(lines) + "\n")
    print(f"alpha={_fmt(dec.alpha)} residual={_fmt(dec.residual)} factors={len(dec.unitaries)}")
    return 0


def cmd_simulate(args, argv: list[str]) -> int:
    spec = parse_circuit(Path(args.circuit).read_text(encoding="utf-8"))
    result = run_circuit(spec, rng=np.random.default_rng(args.seed))
    if result.outcome is None:
        outcome_line = "outcome none"
    elif isinstance(result.outcome, Hit):
        outcome_line = f"outcome hit {result.outcome.sampled_index}"
    else:
        outcome_line = "outcome miss"
    print(outcome_line)
    print(f"qubits {result.state.num_qubits}")
    print(f"norm {_fmt(norm(result.state))}")
    lines = _comment_header(args.seed, argv)
    lines.append(f"# {outcome_line}")
    lines.append("index,re,im")
    for i, a in enumerate(result.state.amplitudes.tolist()):
        re, im = _fmt(a.real), _fmt(a.imag)
        print(f"{i} {re} {im}")
        if args.out is not None:
            lines.append(f"{i},{re},{im}")
    if args.out is not None:
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualsim",
        description="Duality-mode quantum computing simulator front end.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=_seed_value, default=0,
                        help="64-bit unsigned RNG seed, echoed in all outputs (default 0)")

    sp = sub.add_parser("simulate", help="run a circuit file; print the final amplitudes or outcome")
    sp.add_argument("--circuit", required=True, help="circuit text file")
    sp.add_argument("--out", default=None, help="optional CSV of the final amplitudes")
    common(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("search", help="run repeated hybrid duality searches; write per-trial CSV")
    sp.add_argument("--n", type=_positive, required=True, help="database qubits (N = 2**n items)")
    sp.add_argument("--marked", required=True, help="comma-separated marked basis indices")
    sp.add_argument("--j", type=_non_negative, default=0,
                    help="amplitude-amplification rounds per attempt")
    sp.add_argument("--trials", type=_positive, required=True)
    sp.add_argument("--max-repetitions", type=_positive, default=None,
                    help="attempt budget per trial (default: auto from the success probability)")
    sp.add_argument("--out", required=True, help="CSV output: trial,repetitions,hit_index")
    common(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("recycle", help="run recycling loops; write a cycle-count histogram CSV")
    sp.add_argument("--gate", choices=["search", "phase-slit", "custom"], default="search")
    sp.add_argument("--n", type=_positive, default=4, help="work qubits for --gate search")
    sp.add_argument("--marked", default=None, help="marked indices for --gate search")
    sp.add_argument("--slit", action="append", default=None,
                    help="matrix file for one slit of a custom gate (repeatable)")
    sp.add_argument("--weights", default=None, help="comma-separated weights for a custom gate")
    sp.add_argument("--init", default="uniform", help="input state: 'uniform' or a basis index")
    sp.add_argument("--recovery", choices=["reset", "exact", "custom"], default="reset")
    sp.add_argument("--recovery-matrix", default=None, help="matrix file for --recovery custom")
    sp.add_argument("--trials", type=_positive, required=True)
    sp.add_argument("--max-cycles", type=_positive, default=None,
                    help="cycle budget per trial (default: auto from the hit probability)")
    sp.add_argument("--out", required=True, help="CSV output: cycles,count")
    common(sp)
    sp.set_defaults(func=cmd_recycle)

    sp = sub.add_parser("decompose", help="decompose a matrix file into weighted unitaries")
    sp.add_argument("--in", dest="matrix_in", required=True, help="matrix text file")
    sp.add_argument("--normal", action="store_true",
                    help="two-term commuting decomposition (input must be normal)")
    sp.add_argument("--tol", type=float, default=DEFAULT_NORMAL_TOL,
                    help="normality tolerance for --normal")
    sp.add_argument("--out", required=True, help="decomposition report file")
    common(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("curve", help="write the repetition-count table as CSV")
    sp.add_argument("--n", type=_positive, required=True, help="database qubits (N = 2**n items)")
    sp.add_argument("--marked-count", type=int, default=1, help="number of marked items M")
    sp.add_argument("--jmax", type=_non_negative, required=True)
    sp.add_argument("--out", required=True, help="CSV output: j,success_prob,repetitions")
    common(sp)
    sp.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args, argv)
    except Exception as exc:
        msg = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
