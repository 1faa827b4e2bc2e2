"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
execute.  Tolerances and budgets are pinned here, not configurable.
"""
import math
import time

import numpy as np

from conftest import random_normal_matrix, unit_disc_matrix
from dualsim import (
    DualityGate,
    ExactUnitary,
    GateClass,
    Hit,
    NotNormalError,
    Reset,
    SearchProblem,
    StateVector,
    apply_duality_gate,
    aux_zero_block,
    basis_state,
    build_dilation,
    check_normal,
    classify_duality_gate,
    duality_search_step,
    exact_recovery,
    grover_iterate,
    is_unitary,
    lcu_decompose,
    norm,
    normal_decompose,
    random_state,
    random_unitary,
    run_dilation,
    run_search_experiment,
    run_trials,
    search_gate,
    uniform_state,
)
from dualsim.cli import main


def report(num, name, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_dilation_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for m in (2, 4):
        for k in range(50):
            n = k % 4 + 1
            weights = rng.random(m) + 0.05
            weights /= weights.sum()
            gate = DualityGate(weights, tuple(random_unitary(1 << n, rng) for _ in range(m)))
            psi = random_state(n, rng)
            full = run_dilation(psi, build_dilation(gate))
            block = aux_zero_block(full, full.num_qubits - n).amplitudes
            direct = apply_duality_gate(psi, gate).amplitudes
            worst = max(worst, float(np.abs(block - direct).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, "dilation equivalence over 100 random gates", ok,
           f"max deviation {worst:.3e} (tol 1e-10), {elapsed:.2f}s (limit 5s)")


def test_criterion_2_duality_search_law():
    problem = SearchProblem(4, frozenset({13}))
    state = uniform_state(4)
    rng = np.random.default_rng(202)
    trials = 100_000
    t0 = time.perf_counter()
    hits = 0
    wrong_reads = 0
    for _ in range(trials):
        out = duality_search_step(state, problem, rng)
        if isinstance(out, Hit):
            hits += 1
            if out.sampled_index != 13:
                wrong_reads += 1
    elapsed = time.perf_counter() - t0
    p = 1 / 16
    sigma = math.sqrt(p * (1 - p) / trials)
    dev = abs(hits / trials - p)
    ok = dev <= 4 * sigma and wrong_reads == 0 and elapsed < 30.0
    report(2, "search hit law at N=16", ok,
           f"rate {hits / trials:.5f} vs 1/16 (|diff| {dev:.2e} <= 4 sigma {4 * sigma:.2e}), "
           f"{wrong_reads} wrong reads, {elapsed:.1f}s (limit 30s)")


def test_criterion_3_recycling_expectation():
    # search gate, N=16, Reset recovery: geometric with mean 16
    problem = SearchProblem(4, frozenset({13}))
    gate = search_gate(problem)
    state = uniform_state(4)
    circuit = build_dilation(gate)
    trials = 20_000
    counts = run_trials(state, circuit, Reset(state), 4096, 303, range(trials))[0].astype(float)
    se = counts.std(ddof=1) / math.sqrt(trials)
    dev_search = abs(counts.mean() - 16.0)
    ok_search = dev_search <= 3 * se

    # phase-slit gate with the detected exact recovery: mean 2
    phase_gate = DualityGate(np.array([0.5, 0.5]),
                             (np.eye(2, dtype=complex), 1j * np.eye(2, dtype=complex)))
    phase_circuit = build_dilation(phase_gate)
    v = exact_recovery(phase_circuit)
    strategy = ExactUnitary(v)
    zero = basis_state(1, 0)
    trials2 = 50_000
    counts2 = run_trials(zero, phase_circuit, strategy, 512, 404, range(trials2))[0].astype(float)
    se2 = counts2.std(ddof=1) / math.sqrt(trials2)
    dev_phase = abs(counts2.mean() - 2.0)
    ok_phase = v is not None and dev_phase <= 3 * se2

    ok = ok_search and ok_phase
    report(3, "recycling means (Reset at 16, ExactUnitary at 2)", ok,
           f"search mean {counts.mean():.3f} (|diff| {dev_search:.3f} <= {3 * se:.3f}); "
           f"phase mean {counts2.mean():.4f} (|diff| {dev_phase:.4f} <= {3 * se2:.4f})")


def test_criterion_4_hybrid_closed_form():
    worst = 0.0
    for n in (2, 4, 10):
        problem = SearchProblem(n, frozenset({(1 << n) - 1}))
        beta = math.asin(math.sqrt(1 / (1 << n)))
        for j in range(41):
            state = grover_iterate(uniform_state(n), problem, j)
            got = state.amplitudes[(1 << n) - 1].real
            worst = max(worst, abs(got - math.sin((2 * j + 1) * beta)))
    ok_form = worst <= 1e-10

    stats = run_search_experiment(SearchProblem(2, frozenset({1})), 1, trials=1000, seed=505)
    ok_hybrid = stats.hits == 1000 and stats.total_repetitions == 1000
    ok = ok_form and ok_hybrid
    report(4, "amplification closed form and j=1 certainty at N=4", ok,
           f"max amplitude deviation {worst:.3e} (tol 1e-10); "
           f"first-attempt hits {stats.hits}/1000")


def test_criterion_5_repetition_curve(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["curve", "--n", "10", "--marked-count", "1", "--jmax", "40",
               "--out", str(out), "--seed", "0"])
    assert rc == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    j_vals = [int(r[0]) for r in rows]
    probs = [float(r[1]) for r in rows]
    reps = [float(r[2]) for r in rows]
    assert j_vals == list(range(41))

    ok_start = abs(reps[0] - 1024.0) <= 1e-6
    peak = next(j for j in range(len(probs) - 1) if probs[j + 1] < probs[j])
    ok_monotone = all(reps[j] > reps[j + 1] for j in range(peak))
    beta = math.asin(1 / 32)
    j_near = round((math.pi / (2 * beta) - 1) / 2)
    ok_single_query = reps[j_near] <= 1.001
    ratios = [reps[j] * (2 * j + 1) ** 2 / 1024 for j in range(4)]
    ok_small_j = all(0.98 <= r <= 1.02 for r in ratios)
    ok = ok_start and ok_monotone and ok_single_query and ok_small_j
    report(5, "repetition curve at N=2^10", ok,
           f"reps(0)={reps[0]:.9f}, decreasing through j={peak}, "
           f"reps({j_near})={reps[j_near]:.6f} <= 1.001, small-j ratios "
           + ",".join(f"{r:.4f}" for r in ratios))


def test_criterion_6_four_unitary_decomposition():
    rng = np.random.default_rng(606)
    worst_resid = 0.0
    all_unitary = True
    count = 0
    for dim in (2, 4, 8):
        for _ in range(17):
            a = unit_disc_matrix(dim, rng)
            dec = lcu_decompose(a)
            worst_resid = max(worst_resid, float(np.abs(dec.reconstruct() - a).max()))
            all_unitary &= all(is_unitary(u, 1e-10) for u in dec.unitaries)
            count += 1
    ok = count >= 50 and worst_resid <= 1e-9 and all_unitary
    report(6, f"four-unitary reconstruction over {count} matrices", ok,
           f"max residual {worst_resid:.3e} (tol 1e-9), factors unitary: {all_unitary}")


def test_criterion_7_commuting_normal_decomposition():
    rng = np.random.default_rng(707)
    worst_resid = 0.0
    worst_comm = 0.0
    for _ in range(50):
        dim = int(rng.choice([2, 3, 4, 8]))
        a = random_normal_matrix(dim, rng)
        dec = normal_decompose(a)
        u1, u2 = dec.unitaries
        worst_resid = max(worst_resid, float(np.abs(dec.reconstruct() - a).max()))
        worst_comm = max(worst_comm, float(np.abs(u1 @ u2 - u2 @ u1).max()))

    rejected = 0
    attempts = []
    attempts.append(np.array([[0, 1], [0, 0]], dtype=complex))
    for _ in range(20):
        dim = int(rng.choice([2, 3, 4]))
        q = random_unitary(dim, rng)
        lam = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        pert = np.triu(rng.standard_normal((dim, dim)), k=1) * 0.3
        attempts.append((q * lam) @ q.conj().T + q @ pert @ q.conj().T)
    for a in attempts:
        assert not check_normal(a)
        try:
            normal_decompose(a)
        except NotNormalError:
            rejected += 1
    ok = worst_resid <= 1e-9 and worst_comm <= 1e-9 and rejected == len(attempts)
    report(7, "commuting decomposition of 50 normals, rejection of 21 non-normals", ok,
           f"max residual {worst_resid:.3e}, max commutator {worst_comm:.3e} (tol 1e-9), "
           f"rejected {rejected}/{len(attempts)}")


def test_criterion_8_unitary_gates_are_the_extreme_points():
    rng = np.random.default_rng(808)
    gates = [DualityGate(np.array([0.5, 0.5]), (np.eye(4, dtype=complex),) * 2)]
    for _ in range(20):
        u = random_unitary(4, rng)
        w = rng.random(2) + 0.1
        gates.append(DualityGate(w / w.sum(), (u, u)))
    worst_drift = 0.0
    all_unitary = True
    for gate in gates:
        all_unitary &= classify_duality_gate(gate) is GateClass.UNITARY
        for _ in range(5):
            psi = random_state(2, rng)
            worst_drift = max(worst_drift, abs(norm(apply_duality_gate(psi, gate)) - 1.0))
    ok_unitary = all_unitary and worst_drift <= 1e-12

    contracted = 0
    for _ in range(100):
        gate = DualityGate(np.array([0.5, 0.5]),
                           (random_unitary(4, rng), random_unitary(4, rng)))
        _, _, vh = np.linalg.svd(gate.matrix())
        probe = vh.conj().T[:, -1]
        probe = probe / np.linalg.norm(probe)
        if norm(apply_duality_gate(StateVector(2, probe), gate)) < 1.0 - 1e-6:
            contracted += 1
    ok = ok_unitary and contracted == 100
    report(8, "equal-slit gates unitary, distinct-slit gates contract", ok,
           f"21 equal-slit gates unitary: {all_unitary}, max norm drift {worst_drift:.2e} "
           f"(tol 1e-12); contraction found for {contracted}/100 random gates")


def test_criterion_9_seeded_determinism(tmp_path):
    mat_file = tmp_path / "m.txt"
    mat_file.write_text("2\n0 1\n0 0\n")
    circuit_file = tmp_path / "c.qc"
    circuit_file.write_text("qubits 1\ninit basis 0\nduality 2\nweights 0.5 0.5\n"
                            "slit 0\nx 0\nslit 1\nendduality\ncmeasure\n")
    commands = {
        "curve": ["curve", "--n", "8", "--marked-count", "1", "--jmax", "20", "--seed", "17"],
        "search": ["search", "--n", "3", "--marked", "5", "--j", "0", "--trials", "80",
                   "--seed", "17"],
        "recycle": ["recycle", "--gate", "phase-slit", "--init", "0", "--recovery", "exact",
                    "--trials", "80", "--seed", "17"],
        "decompose": ["decompose", "--in", str(mat_file), "--seed", "17"],
        "simulate": ["simulate", "--circuit", str(circuit_file), "--seed", "17"],
    }
    mismatched = []
    for name, argv in commands.items():
        out = tmp_path / f"{name}.out"
        first = second = None
        for attempt in range(2):
            rc = main(argv + ["--out", str(out)])
            assert rc == 0, name
            data = out.read_bytes()
            if attempt == 0:
                first = data
            else:
                second = data
        if first != second:
            mismatched.append(name)
    ok = not mismatched
    report(9, "byte-identical reruns for every command", ok,
           "all identical" if ok else f"mismatch in {mismatched}")
