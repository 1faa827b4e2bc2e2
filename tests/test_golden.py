"""Golden CLI outputs: every command below must rewrite its ``--out`` file and
its stdout byte for byte.

Each command runs through ``dualsim.cli.main`` with the working directory set
to a fresh directory holding copies of ``golden/inputs/``, so the relative
paths (and with them the ``# command=`` line) match the frozen files.

A deliberate change to an RNG stream or an output format regenerates the
files with ``PYTHONPATH=src python tests/test_golden.py`` and says why in
CHANGES.md.  ``python tests/test_golden.py NAME ...`` writes only the named
cases, so adding a case leaves the frozen files of the others untouched.
"""
import contextlib
import io
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest

from dualsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

#: name -> CLI arguments; ``--out`` is always ``<name>.<ext>``.
CASES = {
    "search_j0": ["search", "--n", "4", "--marked", "13", "--j", "0", "--trials", "300",
                  "--seed", "7", "--out", "search_j0.csv"],
    "search_j2": ["search", "--n", "5", "--marked", "3,17", "--j", "2", "--trials", "300",
                  "--seed", "8", "--out", "search_j2.csv"],
    "search_budget": ["search", "--n", "4", "--marked", "5", "--j", "0", "--trials", "300",
                      "--max-repetitions", "8", "--seed", "9", "--out", "search_budget.csv"],
    "recycle_search_reset": ["recycle", "--gate", "search", "--n", "3", "--marked", "2,5",
                             "--recovery", "reset", "--trials", "300", "--seed", "7",
                             "--out", "recycle_search_reset.csv"],
    "recycle_phase_exact": ["recycle", "--gate", "phase-slit", "--init", "0",
                            "--recovery", "exact", "--trials", "300", "--seed", "3",
                            "--out", "recycle_phase_exact.csv"],
    "recycle_phase_reset": ["recycle", "--gate", "phase-slit", "--init", "1",
                            "--recovery", "reset", "--trials", "300", "--seed", "4",
                            "--out", "recycle_phase_reset.csv"],
    "recycle_custom_reset": ["recycle", "--gate", "custom", "--slit", "slit0.txt",
                             "--slit", "slit1.txt", "--slit", "slit2.txt",
                             "--weights", "0.5,0.25,0.25", "--init", "uniform",
                             "--recovery", "reset", "--trials", "300", "--seed", "5",
                             "--out", "recycle_custom_reset.csv"],
    "recycle_custom_recovery": ["recycle", "--gate", "custom", "--slit", "slit0.txt",
                                "--slit", "slit1.txt", "--weights", "0.75,0.25", "--init", "1",
                                "--recovery", "custom", "--recovery-matrix", "recovery.txt",
                                "--trials", "300", "--seed", "6",
                                "--out", "recycle_custom_recovery.csv"],
    "recycle_budget": ["recycle", "--gate", "search", "--n", "4", "--marked", "13",
                       "--recovery", "reset", "--max-cycles", "4", "--trials", "300",
                       "--seed", "6", "--out", "recycle_budget.csv"],
    "simulate_measured": ["simulate", "--circuit", "measured.qc", "--seed", "12",
                          "--out", "simulate_measured.csv"],
    "simulate_three_slit_hit": ["simulate", "--circuit", "three_slit.qc", "--seed", "1",
                                "--out", "simulate_three_slit_hit.csv"],
    "simulate_three_slit_miss": ["simulate", "--circuit", "three_slit.qc", "--seed", "4",
                                 "--out", "simulate_three_slit_miss.csv"],
    "simulate_five_slit_miss": ["simulate", "--circuit", "five_slit.qc", "--seed", "1",
                                "--out", "simulate_five_slit_miss.csv"],
    "decompose": ["decompose", "--in", "matrix.txt", "--seed", "2", "--out", "decompose.txt"],
    "decompose_normal_repeated": ["decompose", "--normal", "--in", "normal_repeated.txt",
                                  "--seed", "2", "--out", "decompose_normal_repeated.txt"],
    "curve": ["curve", "--n", "6", "--marked-count", "2", "--jmax", "12", "--seed", "3",
              "--out", "curve.csv"],
}

#: Runs that cannot succeed: every attempt has (numerically) zero hit
#: probability, so each trial exhausts a 10**6 budget.  The attempts are
#: drawn in chunks of 2**16, so a trial takes about 5 ms; one scalar draw per
#: attempt took about a second, and re-running the dilation every attempt
#: 30-60 s.
DEGENERATE_CASES = {
    "degenerate_recycle": ["recycle", "--gate", "search", "--n", "4", "--init", "0",
                           "--marked", "13", "--trials", "2", "--out", "degenerate_recycle.csv"],
    "degenerate_search": ["search", "--n", "2", "--marked", "0,1,2", "--j", "1",
                          "--trials", "2", "--out", "degenerate_search.csv"],
}
DEGENERATE_TIME_LIMIT_S = 2.0


def _out_name(argv: list[str]) -> str:
    return argv[argv.index("--out") + 1]


def _run_in(workdir: Path, argv: list[str]) -> bytes:
    """Run ``argv`` in ``workdir`` next to copies of the inputs; the ``--out`` bytes."""
    for src in INPUTS.iterdir():
        shutil.copy(src, workdir / src.name)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert main(argv) == 0
    finally:
        os.chdir(cwd)
    return (workdir / _out_name(argv)).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output_is_byte_identical(name, tmp_path, capsys):
    argv = CASES[name]
    out = _run_in(tmp_path, argv)
    assert out == (GOLDEN / _out_name(argv)).read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(DEGENERATE_CASES))
def test_degenerate_runs_exhaust_quickly(name, tmp_path, capsys):
    argv = DEGENERATE_CASES[name]
    start = time.perf_counter()
    out = _run_in(tmp_path, argv)
    elapsed = time.perf_counter() - start
    stdout = capsys.readouterr().out
    assert "hits=0 " in stdout
    assert out == (GOLDEN / _out_name(argv)).read_bytes()
    assert stdout == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert elapsed < DEGENERATE_TIME_LIMIT_S, f"{name} took {elapsed:.1f} s"


def regenerate(names: list[str]) -> None:
    """Rewrite the golden files of the named cases (all cases if none) from the
    current code."""
    cases = {**CASES, **DEGENERATE_CASES}
    unknown = sorted(set(names) - cases.keys())
    if unknown:
        raise SystemExit(f"error: unknown golden case(s): {', '.join(unknown)}")
    for name in names or cases:
        argv = cases[name]
        with tempfile.TemporaryDirectory() as tmp:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                out = _run_in(Path(tmp), argv)
            (GOLDEN / _out_name(argv)).write_bytes(out)
            (GOLDEN / f"{name}.stdout").write_text(buf.getvalue(), encoding="utf-8")
            print(f"wrote {name}", file=sys.stderr)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
