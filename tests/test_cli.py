import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dualsim import cli, format_matrix_text, is_unitary, parse_matrix_text
from dualsim.cli import _replacing, _write_text, main

NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)


def read_lines(path):
    return path.read_text().splitlines()


def body_of(path):
    return [ln for ln in read_lines(path) if not ln.startswith("#")]


def test_curve_command(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    rc = main(["curve", "--n", "10", "--marked-count", "1", "--jmax", "30",
               "--out", str(out), "--seed", "5"])
    assert rc == 0
    lines = read_lines(out)
    assert lines[0] == "# seed=5"
    assert lines[1].startswith("# command=curve --n 10")
    assert lines[2] == "j,success_prob,repetitions"
    first = lines[3].split(",")
    assert first[0] == "0"
    assert abs(float(first[2]) - 1024.0) < 1e-6
    assert len(lines) == 3 + 31
    assert "wrote" in capsys.readouterr().out


def test_search_command(tmp_path, capsys):
    out = tmp_path / "search.csv"
    rc = main(["search", "--n", "2", "--marked", "2", "--j", "1", "--trials", "200",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = body_of(out)
    assert lines[0] == "trial,repetitions,hit_index"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 200
    assert all(r[1] == "1" and r[2] == "2" for r in rows)
    printed = capsys.readouterr().out
    assert "empirical_success_rate=1" in printed


def test_recycle_phase_slit_exact(tmp_path, capsys):
    out = tmp_path / "recycle.csv"
    rc = main(["recycle", "--gate", "phase-slit", "--init", "0", "--recovery", "exact",
               "--trials", "3000", "--seed", "3", "--out", str(out)])
    assert rc == 0
    lines = body_of(out)
    assert lines[0] == "cycles,count"
    hist = {int(c): int(n) for c, n in (ln.split(",") for ln in lines[1:])}
    assert sum(hist.values()) == 3000
    mean = sum(c * n for c, n in hist.items()) / 3000
    assert abs(mean - 2.0) < 0.15
    printed = capsys.readouterr().out
    expected = float(printed.split("expected_cycles=")[1].split()[0])
    assert expected == pytest.approx(2.0, abs=1e-12)


def test_recycle_search_gate(tmp_path, capsys):
    out = tmp_path / "recycle.csv"
    rc = main(["recycle", "--gate", "search", "--n", "2", "--marked", "3",
               "--recovery", "reset", "--trials", "500", "--seed", "1", "--out", str(out)])
    assert rc == 0
    hist = {int(c): int(n) for c, n in (ln.split(",") for ln in body_of(out)[1:])}
    mean = sum(c * n for c, n in hist.items()) / 500
    assert abs(mean - 4.0) < 3 * (math.sqrt(12) / math.sqrt(500))
    assert "exhausted=0" in capsys.readouterr().out


def test_recycle_custom_gate_and_recovery(tmp_path):
    slit0 = tmp_path / "u0.txt"
    slit1 = tmp_path / "u1.txt"
    slit0.write_text(format_matrix_text(np.eye(2)))
    slit1.write_text(format_matrix_text(1j * np.eye(2)))
    rec = tmp_path / "v.txt"
    rec.write_text(format_matrix_text(np.exp(1j * np.pi / 4) * np.eye(2)))
    out = tmp_path / "r.csv"
    rc = main(["recycle", "--gate", "custom", "--slit", str(slit0), "--slit", str(slit1),
               "--weights", "0.5,0.5", "--init", "0", "--recovery", "custom",
               "--recovery-matrix", str(rec), "--trials", "200", "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    assert body_of(out)[0] == "cycles,count"


def test_decompose_command(tmp_path, capsys):
    mat_file = tmp_path / "nilpotent.txt"
    mat_file.write_text(format_matrix_text(NILPOTENT))
    out = tmp_path / "dec.txt"
    rc = main(["decompose", "--in", str(mat_file), "--out", str(out), "--seed", "0"])
    assert rc == 0
    lines = read_lines(out)
    fields = dict(ln.split(" ", 1) for ln in lines if ln and ln.split(" ", 1)[0]
                  in ("alpha", "weights", "residual"))
    assert float(fields["residual"]) <= 1e-9
    alpha = float(fields["alpha"])
    weights = [float(w) for w in fields["weights"].split()]
    # re-assemble the reported decomposition and check it reproduces the input
    blocks = "\n".join(lines).split("unitary ")[1:]
    assert len(blocks) == 4
    recon = np.zeros((2, 2), dtype=complex)
    for w, block in zip(weights, blocks):
        mat_text = "\n".join(block.splitlines()[1:])
        u = parse_matrix_text(mat_text)
        assert is_unitary(u, 1e-10)
        recon += w * u
    assert np.abs(alpha * recon - NILPOTENT).max() <= 1e-9
    assert "residual=" in capsys.readouterr().out


def test_decompose_normal_flag(tmp_path):
    mat_file = tmp_path / "z.txt"
    mat_file.write_text(format_matrix_text(np.diag([1.0, 0.5])))
    out = tmp_path / "dec.txt"
    assert main(["decompose", "--in", str(mat_file), "--normal", "--out", str(out)]) == 0
    blocks = out.read_text().split("unitary ")
    assert len(blocks) == 3  # two factors
    # non-normal input is rejected through the error path
    bad = tmp_path / "s.txt"
    bad.write_text(format_matrix_text(NILPOTENT))
    out2 = tmp_path / "dec2.txt"
    assert main(["decompose", "--in", str(bad), "--normal", "--out", str(out2)]) == 1
    assert not out2.exists()


def test_simulate_command(tmp_path, capsys):
    circuit = tmp_path / "c.qc"
    circuit.write_text("qubits 1\ninit basis 0\nduality 2\nweights 0.5 0.5\n"
                       "slit 0\nx 0\nslit 1\nendduality\ncmeasure\n")
    out = tmp_path / "amps.csv"
    rc = main(["simulate", "--circuit", str(circuit), "--seed", "9", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("outcome ")
    lines = read_lines(out)
    assert lines[0] == "# seed=9"
    assert any(ln.startswith("# outcome") for ln in lines)
    assert body_of(out)[0] == "index,re,im"


def test_simulate_without_measure(tmp_path, capsys):
    circuit = tmp_path / "c.qc"
    circuit.write_text("qubits 1\nh 0\n")
    assert main(["simulate", "--circuit", str(circuit)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "outcome none"
    assert printed[1] == "qubits 1"
    assert float(printed[2].split()[1]) == pytest.approx(1.0, abs=1e-12)


def test_error_is_one_line_and_removes_nothing(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["search", "--n", "2", "--marked", "9", "--trials", "10", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ")
    assert not out.exists()


def test_bad_circuit_reports_line(tmp_path, capsys):
    circuit = tmp_path / "bad.qc"
    circuit.write_text("qubits 1\nweights 0.6 0.6\n")
    assert main(["simulate", "--circuit", str(circuit)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["decompose", "--in", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o.txt")]) == 1
    assert capsys.readouterr().err.startswith("error: FileNotFoundError")
    assert not (tmp_path / "o.txt").exists()


def test_bad_seed_rejected(capsys):
    assert main(["curve", "--n", "4", "--jmax", "3", "--out", "x.csv",
                 "--seed", "-1"]) == 2
    capsys.readouterr()


def test_every_output_starts_with_seed_and_command_comments(tmp_path):
    mat_file = tmp_path / "m.txt"
    mat_file.write_text(format_matrix_text(NILPOTENT))
    circuit_file = tmp_path / "c.qc"
    circuit_file.write_text("qubits 1\nh 0\n")
    commands = [
        ["curve", "--n", "4", "--jmax", "5", "--seed", "11"],
        ["search", "--n", "2", "--marked", "1", "--trials", "20", "--seed", "11"],
        ["recycle", "--gate", "phase-slit", "--init", "0", "--trials", "20", "--seed", "11"],
        ["decompose", "--in", str(mat_file), "--seed", "11"],
        ["simulate", "--circuit", str(circuit_file), "--seed", "11"],
    ]
    for argv in commands:
        out = tmp_path / f"{argv[0]}.out"
        assert main(argv + ["--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == "# seed=11", argv[0]
        assert lines[1].startswith(f"# command={argv[0]} "), argv[0]


@pytest.mark.parametrize("argv", [
    ["curve", "--n", "6", "--marked-count", "2", "--jmax", "12", "--out", "{out}", "--seed", "3"],
    ["search", "--n", "3", "--marked", "5", "--j", "0", "--trials", "60", "--out", "{out}", "--seed", "21"],
    ["recycle", "--gate", "phase-slit", "--init", "0", "--recovery", "exact",
     "--trials", "50", "--out", "{out}", "--seed", "13"],
])
def test_commands_are_byte_identical_across_runs(tmp_path, argv, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    outputs = []
    for p in paths:
        rc = main([a.replace("{out}", str(p)) for a in argv])
        assert rc == 0
        text = p.read_text()
        # the command comment echoes the distinct paths; the rest must match
        outputs.append([ln for ln in text.splitlines() if not ln.startswith("# command=")])
    capsys.readouterr()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["recycle", "--gate", "search", "--marked", "3", "--trials", "0"],
    ["recycle", "--gate", "search", "--n", "0", "--marked", "0", "--trials", "5"],
    ["recycle", "--gate", "phase-slit", "--init", "0", "--trials", "5", "--max-cycles", "0"],
    ["search", "--n", "2", "--marked", "1", "--trials", "0"],
    ["search", "--n", "0", "--marked", "0", "--trials", "5"],
    ["search", "--n", "2", "--marked", "1", "--j", "-1", "--trials", "5"],
    ["search", "--n", "2", "--marked", "1", "--trials", "5", "--max-repetitions", "0"],
    ["search", "--n", "2", "--marked", "1", "--trials", "x"],
    ["curve", "--n", "0", "--jmax", "3"],
    ["curve", "--n", "4", "--jmax", "-1"],
])
def test_out_of_range_counts_are_rejected_before_any_output(tmp_path, argv, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "error: argument --" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-10"])
def test_non_finite_or_negative_tol_is_rejected_before_any_output(tmp_path, tol, capsys):
    # at an infinite tol the non-normal [[1, 1], [0, 1]] would pass as normal
    mat_file = tmp_path / "m.txt"
    mat_file.write_text(format_matrix_text(np.array([[1, 1], [0, 1]], dtype=complex)))
    assert main(["decompose", "--in", str(mat_file), "--normal", f"--tol={tol}",
                 "--out", str(tmp_path / "dec.txt")]) == 2
    assert "error: argument --tol: must be finite and >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [mat_file]


def test_failed_write_keeps_the_old_file_and_no_temporary(tmp_path):
    out = tmp_path / "kept.csv"
    out.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        _write_text(str(out), "new\ud800\n")  # a lone surrogate cannot be encoded
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


def test_failed_rename_keeps_the_old_file_and_no_temporary(tmp_path, monkeypatch):
    out = tmp_path / "kept.csv"
    out.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(cli.os, "replace", refuse)
    with pytest.raises(OSError):
        _write_text(str(out), "new\n")
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


def test_write_replaces_an_existing_file(tmp_path):
    out = tmp_path / "o.csv"
    out.write_text("old\n")
    _write_text(str(out), "new\n")
    assert out.read_text() == "new\n"
    assert list(tmp_path.iterdir()) == [out]



def test_exception_after_a_partial_write_keeps_the_old_file_and_no_temporary(tmp_path):
    out = tmp_path / "kept.csv"
    out.write_text("old\n")
    with pytest.raises(RuntimeError, match="midway"):
        with _replacing(str(out)) as fh:
            fh.write("new\n" * 100_000)
            fh.flush()
            (partial,) = set(tmp_path.iterdir()) - {out}
            assert partial.stat().st_size == 400_000
            raise RuntimeError("midway")
    assert out.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [out]


def test_decompose_failing_between_unitaries_keeps_the_old_file(tmp_path, monkeypatch, capsys):
    mat_file = tmp_path / "nilpotent.txt"
    mat_file.write_text(format_matrix_text(NILPOTENT))
    out = tmp_path / "dec.txt"
    out.write_text("old\n")
    calls = []

    def third_call_fails(mat):
        calls.append(mat)
        if len(calls) == 3:
            raise MemoryError("formatting unitary 2")
        return format_matrix_text(mat)

    monkeypatch.setattr(cli, "format_matrix_text", third_call_fails)
    assert main(["decompose", "--in", str(mat_file), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: MemoryError: formatting unitary 2\n"
    assert out.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == [out, mat_file]


def test_decompose_keeps_about_one_copy_of_its_report_in_memory(tmp_path, capsys):
    mat_file = tmp_path / "m.txt"
    mat_file.write_text(format_matrix_text(
        np.random.default_rng(256).standard_normal((256, 512)).view(np.complex128)))
    out = tmp_path / "dec.txt"
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(["decompose", "--in", str(mat_file), "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    # the report (~11 MB) is written while formatted, so the peak of Python
    # allocations, input text and decomposition included, stays below twice it
    assert peak < 2 * out.stat().st_size, (peak, out.stat().st_size)

def test_cli_import_loads_numpy_and_the_stdlib_only():
    # a fresh interpreter, so that modules this test process imported do not count
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; before = set(sys.modules); import dualsim.cli; "
            "loaded = {m.partition('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(loaded - set(sys.stdlib_module_names) - {'numpy', 'dualsim'}))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


#: Runs the command given after the output path as the only child of a fresh
#: interpreter, so RUSAGE_CHILDREN's peak RSS is that command's alone.
_MEASURED_RUN = textwrap.dedent("""
    import resource, subprocess, sys, time
    start = time.perf_counter()
    with open(sys.argv[1], "wb") as out:
        done = subprocess.run(sys.argv[2:], stdout=out, stderr=subprocess.PIPE, timeout=120)
    wall = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(done.returncode, wall, peak_mb)
    sys.stderr.buffer.write(done.stderr)
""")

#: Every 20-qubit command below must finish within this wall time and peak RSS.
LARGE_WALL_S = 5.0
LARGE_PEAK_MB = 300.0

#: 20 work qubits, a two-slit block of gate lines read out by cmeasure.  Both
#: slits map the uniform input to itself (x, cx and the h pair permute or
#: undo; t eight times is the identity), so the block hits for every seed and
#: the output holds 2**20 amplitude rows; a miss would print 2**21.
LARGE_CIRCUIT = "\n".join(
    ["qubits 20", "init uniform", "duality 2", "weights 0.375 0.625",
     "slit 0", "x 0", "cx 0 19", "h 7", "cx 3 11", "h 7",
     "slit 1", "x 19", *["t 5"] * 8, "cx 12 2",
     "endduality", "cmeasure"]) + "\n"


def run_measured(tmp_path, argv):
    """(exit code, wall s, peak RSS MB, stderr) of ``python -m dualsim.cli argv``."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _MEASURED_RUN, str(tmp_path / "stdout"),
                           sys.executable, "-m", "dualsim.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    code, wall, peak_mb = done.stdout.split()
    return int(code), float(wall), float(peak_mb), done.stderr


@pytest.mark.parametrize("argv", [
    ["search", "--n", "20", "--marked", "12345", "--j", "0", "--trials", "10", "--seed", "1"],
    ["recycle", "--gate", "search", "--n", "20", "--marked", "12345", "--recovery", "reset",
     "--trials", "10", "--seed", "1"],
    ["simulate", "--circuit", "{circuit}", "--seed", "1"],
], ids=["search", "recycle", "simulate"])
def test_twenty_qubit_commands_finish_in_seconds(tmp_path, argv):
    circuit = tmp_path / "large.qc"
    circuit.write_text(LARGE_CIRCUIT)
    out = tmp_path / "out.csv"
    argv = [a.replace("{circuit}", str(circuit)) for a in argv] + ["--out", str(out)]
    code, wall, peak_mb, stderr = run_measured(tmp_path, argv)
    assert code == 0, stderr
    assert wall < LARGE_WALL_S and peak_mb < LARGE_PEAK_MB, (wall, peak_mb)
    lines = (tmp_path / "stdout").read_text().splitlines()
    if argv[0] == "simulate":
        assert lines[0].startswith("outcome hit ") and lines[1] == "qubits 20"
        assert len(body_of(out)) == 1 + (1 << 20)
    else:
        assert lines[0].startswith("trials=10 hits=")


def test_exact_recovery_on_a_large_search_gate_fails_fast(tmp_path):
    # the two phase-diagonal slits are decided from the diagonal of M in O(N):
    # no 2**16 x 2**16 matrix (64 GiB) is asked for
    out = tmp_path / "r.csv"
    code, wall, peak_mb, stderr = run_measured(
        tmp_path, ["recycle", "--gate", "search", "--n", "16", "--marked", "3",
                   "--recovery", "exact", "--trials", "1", "--out", str(out)])
    assert code == 1 and wall < LARGE_WALL_S and peak_mb < LARGE_PEAK_MB
    assert stderr.splitlines() == [
        "error: ValueError: no exact recovery unitary exists for this gate; use --recovery reset"]
    assert not out.exists()


def test_exact_recovery_on_an_n11_search_gate_forms_no_full_gram_matrix(tmp_path):
    # "no recovery" forms no N×N Gram matrix, identity or difference; the two
    # phase-diagonal slits are decided from the diagonal of M alone
    out = tmp_path / "r.csv"
    code, wall, peak_mb, stderr = run_measured(
        tmp_path, ["recycle", "--gate", "search", "--n", "11", "--marked", "5",
                   "--recovery", "exact", "--trials", "1", "--out", str(out)])
    assert code == 1 and wall < LARGE_WALL_S and peak_mb < 330.0, (wall, peak_mb)
    assert stderr.splitlines() == [
        "error: ValueError: no exact recovery unitary exists for this gate; use --recovery reset"]
    assert not out.exists()
