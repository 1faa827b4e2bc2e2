import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FixedRandom, count_dilations, global_phase_dev
from dualsim import (
    Exhausted,
    Hit,
    HybridParams,
    Miss,
    PhaseDiagonal,
    SearchProblem,
    apply_duality_gate,
    aux_zero_block,
    basis_state,
    build_dilation,
    classify_duality_gate,
    conditional_measure,
    duality_search_step,
    exact_recovery,
    grover_iterate,
    hit_probability,
    hybrid_search,
    norm,
    random_state,
    repetition_curve,
    run_dilation,
    run_search_experiment,
    search_gate,
    uniform_state,
)
from dualsim.statevec import oracle_phases


def problem(n, *marked):
    return SearchProblem(n, frozenset(marked))


def test_problem_validation():
    with pytest.raises(ValueError):
        SearchProblem(2, frozenset())
    with pytest.raises(ValueError):
        SearchProblem(1, frozenset({0, 1}))  # M must stay below N
    with pytest.raises(ValueError):
        SearchProblem(2, frozenset({4}))


def oracle_matrix(p):
    """The search oracle as an explicit matrix: +1 on marked indices, -1 elsewhere."""
    return np.diag(oracle_phases(p.size, p.marked).astype(complex))


def test_oracle_unitary_examples():
    # the oracle slit of the search gate is +1 on marked indices and -1 elsewhere
    for p, want in ((problem(1, 1), [-1, 1]), (problem(2, 2), [-1, -1, 1, -1])):
        oracle = search_gate(p).unitaries[0]
        assert np.array_equal(oracle.dense(), np.diag(want).astype(complex))
        assert np.array_equal(oracle_matrix(p), np.diag(want).astype(complex))
    d = search_gate(problem(3, 1, 6)).unitaries[0].dense()
    assert np.array_equal(d @ d, np.eye(8))


def test_search_gate_sum_is_marked_projector():
    p = problem(3, 2, 5)
    m = search_gate(p).matrix()
    want = np.zeros((8, 8))
    want[2, 2] = want[5, 5] = 1.0
    assert np.abs(m - want).max() < 1e-15


AMPLITUDE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                      st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_search_gate_slits_are_phase_diagonals_equal_to_the_dense_matvec(n, data):
    size = 1 << n
    marked = data.draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size - 1))
    p = SearchProblem(n, frozenset(marked))
    oracle, identity = search_gate(p).unitaries
    assert isinstance(oracle, PhaseDiagonal) and isinstance(identity, PhaseDiagonal)
    assert oracle.dense().tobytes() == oracle_matrix(p).tobytes()
    assert identity.dense().tobytes() == np.eye(size, dtype=complex).tobytes()
    parts = data.draw(st.lists(AMPLITUDE, min_size=2 * size, max_size=2 * size))
    v = np.array([complex(re, im) for re, im in zip(parts[:size], parts[size:])])
    # equal as numbers; only the sign of a zero entry may differ from the matvec
    assert np.array_equal(oracle @ v, oracle_matrix(p) @ v)
    assert np.array_equal(identity @ v, np.eye(size) @ v)


def test_large_search_gate_refuses_explicit_matrices_before_allocating(monkeypatch):
    p = problem(16, 12345)
    gate = search_gate(p)
    circuit = build_dilation(gate)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated an explicit matrix")

    for name in ("zeros", "empty", "eye", "diag", "zeros_like", "empty_like"):
        monkeypatch.setattr(np, name, refuse)
    for needs_matrix in (gate.matrix, circuit.effective_operator,
                         lambda: classify_duality_gate(gate)):
        with pytest.raises(ValueError, match="65536x65536 matrix needs 68719476736 bytes"):
            needs_matrix()
    # two phase-diagonal slits: "no recovery" is decided from their diagonals
    assert exact_recovery(circuit) is None


def test_duality_search_step_uniform_law():
    p = problem(2, 3)
    rng = np.random.default_rng(0)
    hits = 0
    trials = 4000
    for _ in range(trials):
        out = duality_search_step(uniform_state(2), p, rng)
        if isinstance(out, Hit):
            hits += 1
            assert out.sampled_index == 3
    sigma = math.sqrt(0.25 * 0.75 / trials)
    assert abs(hits / trials - 0.25) <= 4 * sigma


def test_duality_search_step_miss_state():
    p = problem(2, 3)
    out = duality_search_step(uniform_state(2), p, FixedRandom([0.9]))
    assert isinstance(out, Miss)
    want = np.zeros(8, dtype=complex)
    want[4:7] = 1.0 / math.sqrt(3)  # unmarked support on the aux=1 branch
    assert global_phase_dev(out.post_state.amplitudes, want) <= 1e-12


def test_duality_search_step_marked_input_always_hits():
    p = problem(3, 5)
    # exact marked input: (D+I)/2 |tau> = |tau>, so the step cannot miss
    for seed in range(20):
        out = duality_search_step(basis_state(3, 5), p, np.random.default_rng(seed))
        assert isinstance(out, Hit)
        assert out.sampled_index == 5


def test_duality_search_step_runs_one_dilation_per_call(monkeypatch):
    # nothing is kept between steps: each one dilates its state on the
    # problem's circuit and draws exactly as a fresh dilation and measurement
    p = problem(5, 6, 19)
    state = random_state(5, np.random.default_rng(2718))
    circuit = build_dilation(search_gate(p))
    ref_rng, rng = np.random.default_rng(31), np.random.default_rng(31)
    expected = [conditional_measure(run_dilation(state, circuit), 1, ref_rng) for _ in range(300)]
    calls = count_dilations(monkeypatch)
    outcomes = [duality_search_step(state, p, rng) for _ in range(300)]
    assert len(calls) == 300 and {type(out) for out in expected} == {Hit, Miss}
    assert {id(c) for c, _ in calls} == {id(p._circuit)}
    for out, want in zip(outcomes, expected):
        assert type(out) is type(want)
        assert getattr(out, "sampled_index", None) == getattr(want, "sampled_index", None)
        assert out.post_state.amplitudes.tobytes() == want.post_state.amplitudes.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_search_circuit_is_freed_with_its_problem(monkeypatch):
    # the problem object keeps its dilation circuit, and an experiment
    # dilates its prepared state once; no module-level store outlives the problem
    p = problem(6, 17, 40)
    calls = count_dilations(monkeypatch)
    stats = run_search_experiment(p, 1, trials=5, seed=3)
    assert len(calls) == 1 and stats.trials == 5
    circuit = weakref.ref(calls.pop()[0])
    assert circuit() is not None
    # the kept circuit is not a field: equality, hash and repr are unchanged
    fresh = problem(6, 40, 17)
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    del p
    gc.collect()
    assert circuit() is None


def test_grover_iterate_examples():
    p = problem(2, 1)
    start = uniform_state(2)
    same = grover_iterate(start, p, 0)
    assert np.array_equal(same.amplitudes, start.amplitudes)
    assert abs(same.amplitudes[1].real - math.sin(math.asin(0.5))) < 1e-15
    # N=4, M=1, one round lands exactly on the marked state
    one = grover_iterate(start, p, 1)
    assert np.abs(one.amplitudes - np.eye(4)[1]).max() <= 1e-12


def test_grover_closed_form_across_sizes():
    for n, num_marked in ((2, 1), (4, 1), (4, 3), (6, 1), (10, 1)):
        rng = np.random.default_rng(n * 100 + num_marked)
        marked = tuple(rng.permutation(1 << n)[:num_marked])
        p = problem(n, *marked)
        params0 = HybridParams.for_problem(p, 0)
        idx = np.array(sorted(p.marked))
        unmarked = np.array([i for i in range(p.size) if i not in p.marked])
        for j in range(0, 41, 4):
            state = grover_iterate(uniform_state(n), p, j)
            want = math.sin((2 * j + 1) * params0.beta)
            got = state.amplitudes[idx] * math.sqrt(num_marked)
            assert np.abs(got - want).max() <= 1e-10
            want_c = math.cos((2 * j + 1) * params0.beta) / math.sqrt(p.size - num_marked)
            assert np.abs(state.amplitudes[unmarked] - want_c).max() <= 1e-10


def test_hybrid_params():
    p = problem(4, 7)
    params = HybridParams.for_problem(p, 0)
    assert params.beta == pytest.approx(math.asin(0.25))
    assert params.success_prob == pytest.approx(1 / 16)
    with pytest.raises(ValueError):
        HybridParams(-1, 0.5)
    with pytest.raises(ValueError):
        HybridParams(0, 0.0)


def test_hybrid_search_deterministic_regime():
    p = problem(2, 2)
    for seed in range(50):
        res = hybrid_search(p, 1, rng=np.random.default_rng(seed))
        assert res.repetitions == 1
        assert res.hit_index == 2
        assert res.analytic_success_prob == pytest.approx(1.0)


def test_hybrid_search_exhausted():
    p = problem(4, 3)
    with pytest.raises(Exhausted):
        hybrid_search(p, 0, max_repetitions=1, rng=FixedRandom([0.99]))


def test_hit_correctness_sweep():
    # hits land on marked indices and the aux=0 block has no unmarked support
    rng = np.random.default_rng(77)
    for n in (2, 4, 8):
        size = 1 << n
        for num_marked in (1, 2, size // 2, size - 1):
            marked = tuple(rng.permutation(size)[:num_marked])
            p = problem(n, *marked)
            circuit = build_dilation(search_gate(p))
            for j in (0, 1, 3):
                state = grover_iterate(uniform_state(n), p, j)
                full = run_dilation(state, circuit)
                block = aux_zero_block(full, 1).amplitudes
                unmarked = [i for i in range(size) if i not in p.marked]
                assert np.abs(block[unmarked]).max() <= 1e-12
                out = duality_search_step(state, p, np.random.default_rng(n * j + 1))
                if isinstance(out, Hit):
                    assert out.sampled_index in p.marked


def test_success_probability_law_cross_check():
    for n, num_marked, j in ((2, 1, 0), (4, 1, 2), (4, 3, 1), (6, 2, 5)):
        p = problem(n, *range(num_marked))
        params = HybridParams.for_problem(p, j)
        state = grover_iterate(uniform_state(n), p, j)
        full = run_dilation(state, build_dilation(search_gate(p)))
        assert abs(hit_probability(full, 1) - params.success_prob) <= 1e-12


def test_arbitrary_database_claim():
    # for any input, the hit probability equals ||(D+I)/2 psi||^2
    rng = np.random.default_rng(5)
    p = problem(3, 1, 4)
    gate = search_gate(p)
    circuit = build_dilation(gate)
    for _ in range(20):
        psi = random_state(3, rng)
        full = run_dilation(psi, circuit)
        direct = norm(apply_duality_gate(psi, gate)) ** 2
        assert abs(hit_probability(full, 1) - direct) <= 1e-12


def test_run_search_experiment_deterministic_regime():
    p = problem(2, 2)
    stats = run_search_experiment(p, 1, trials=1000, seed=7)
    assert stats.hits == 1000
    assert stats.empirical_success_rate == 1.0
    assert stats.total_repetitions == 1000
    assert all(r.hit_index == 2 for r in stats.trial_results)


def test_run_search_experiment_per_attempt_rate():
    p = problem(4, 9)
    trials = 100_000
    stats = run_search_experiment(p, 0, trials=trials, seed=11, max_repetitions=1)
    want = 1 / 16
    sigma = math.sqrt(want * (1 - want) / trials)
    assert stats.total_repetitions == trials
    assert abs(stats.per_attempt_hit_rate - want) <= 4 * sigma
    for r in stats.trial_results:
        if r.hit_index is not None:
            assert r.hit_index == 9


def test_run_search_experiment_reproducible():
    p = problem(3, 6)
    a = run_search_experiment(p, 0, trials=1, seed=42)
    b = run_search_experiment(p, 0, trials=1, seed=42)
    assert a == b


def test_repetition_curve_values():
    rows = repetition_curve(1024, 1, 30)
    beta = math.asin(1 / 32)
    assert rows[0] == (0, pytest.approx(math.sin(beta) ** 2), pytest.approx(1024.0))
    for j, p, reps in rows:
        assert p == pytest.approx(math.sin((2 * j + 1) * beta) ** 2)
        assert reps == pytest.approx(1 / p)
    # small-j agreement with the N/(2j+1)^2 form
    for j, _, reps in rows[:4]:
        assert 0.98 <= reps * (2 * j + 1) ** 2 / 1024 <= 1.02
    # strictly decreasing through the first peak of the success probability
    probs = [p for _, p, _ in rows]
    peak = next(j for j in range(len(probs) - 1) if probs[j + 1] < probs[j])
    assert peak == 25
    reps = [r for _, _, r in rows]
    assert all(reps[j] > reps[j + 1] for j in range(peak))
    assert reps[25] <= 1.001


def test_repetition_curve_validation():
    with pytest.raises(ValueError):
        repetition_curve(3, 1, 5)
    with pytest.raises(ValueError):
        repetition_curve(8, 8, 5)
    with pytest.raises(ValueError):
        repetition_curve(8, 0, 5)
