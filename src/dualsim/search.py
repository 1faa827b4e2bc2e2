"""Unsorted-database search in duality mode, its amplitude-amplification
hybrid, and the repetition-count analytics.

The search step wraps the marked-index oracle and the identity into a
symmetric 2-slit gate.  Its aux=0 block is exactly the projector onto the
marked subspace, so a hit always reads out a marked index, and on the
uniform state the hit probability is M/N.  Running j amplification rounds
first raises the per-attempt hit probability to sin^2((2j+1) beta) with
beta = arcsin(sqrt(M/N)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .duality import (
    DilationCircuit,
    DualityGate,
    MeasurementOutcome,
    build_dilation,
    conditional_measure,
    run_dilation,
)
from .rand import trial_rng
from .recycling import Reset, cycle_budget, run_recycling
from .statevec import StateVector, _fresh_state, invert_about_mean, oracle_phases, uniform_state


class Exhausted(RuntimeError):
    """No hit within the repetition budget."""


@dataclass(frozen=True)
class SearchProblem:
    """N = 2**num_qubits database items with a non-empty proper subset marked."""

    num_qubits: int
    marked: frozenset[int]

    def __post_init__(self):
        n = int(self.num_qubits)
        if n < 1:
            raise ValueError("need at least one qubit")
        marked = frozenset(int(i) for i in self.marked)
        size = 1 << n
        if not 1 <= len(marked) < size:
            raise ValueError(f"need 1 <= |marked| < {size}, got {len(marked)}")
        for i in marked:
            if not 0 <= i < size:
                raise ValueError(f"marked index {i} out of range [0, {size})")
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "marked", marked)

    @property
    def size(self) -> int:
        return 1 << self.num_qubits

    @property
    def num_marked(self) -> int:
        return len(self.marked)


@dataclass(frozen=True)
class HybridParams:
    """Amplification round count j and the angle beta = arcsin(sqrt(M/N))."""

    j: int
    beta: float

    def __post_init__(self):
        if self.j < 0:
            raise ValueError(f"j must be >= 0, got {self.j}")
        if not 0.0 < self.beta <= math.pi / 2:
            raise ValueError(f"beta must lie in (0, pi/2], got {self.beta}")

    @classmethod
    def for_problem(cls, problem: SearchProblem, j: int) -> "HybridParams":
        return cls(j, math.asin(math.sqrt(problem.num_marked / problem.size)))

    @property
    def success_prob(self) -> float:
        """Per-attempt hit probability sin^2((2j+1) beta)."""
        return math.sin((2 * self.j + 1) * self.beta) ** 2


def oracle_unitary(problem: SearchProblem) -> np.ndarray:
    """Diagonal with +1 on marked indices and -1 elsewhere."""
    return np.diag(oracle_phases(problem.size, problem.marked).astype(np.complex128))


def grover_oracle(problem: SearchProblem) -> np.ndarray:
    """Standard phase oracle: -1 on marked, +1 elsewhere (negated oracle_unitary)."""
    return -oracle_unitary(problem)


def search_gate(problem: SearchProblem) -> DualityGate:
    """The symmetric 2-slit gate {oracle/2, identity/2}.

    Its assembled sum (oracle + I)/2 is the projector onto the marked
    subspace, for any input state.
    """
    eye = np.eye(problem.size, dtype=np.complex128)
    return DualityGate(np.array([0.5, 0.5]), (oracle_unitary(problem), eye))


@lru_cache(maxsize=64)
def _search_dilation(problem: SearchProblem) -> DilationCircuit:
    """The search gate's dilation, built once per problem; ``.gate`` is the gate."""
    return build_dilation(search_gate(problem))


def grover_iterate(state: StateVector, problem: SearchProblem, iterations: int) -> StateVector:
    """j rounds of (inversion about the mean) after (marked phase flip).

    Starting from the uniform state, the marked-subspace amplitude after j
    rounds is sin((2j+1) beta), split evenly over the marked indices, and
    the unmarked amplitudes carry cos((2j+1) beta) / sqrt(N - M) each.
    Other input states are accepted but have no such closed form.
    """
    if state.num_qubits != problem.num_qubits:
        raise ValueError(f"state has {state.num_qubits} qubit(s), problem needs {problem.num_qubits}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    marked = np.fromiter(sorted(problem.marked), dtype=np.intp)
    amps = state.amplitudes.copy()
    for _ in range(iterations):
        amps[marked] = -amps[marked]
        amps = invert_about_mean(amps)
    return _fresh_state(state.num_qubits, amps)


def duality_search_step(state: StateVector, problem: SearchProblem,
                        rng: np.random.Generator) -> MeasurementOutcome:
    """One duality query: dilation of the search gate plus conditional readout.

    A Hit's sampled index is always marked (the aux=0 block is the marked
    projection of the input); the Miss state is the normalized unmarked
    remainder on the aux=1 branch.
    """
    circuit = _search_dilation(problem)
    full = run_dilation(state, circuit)
    return conditional_measure(full, circuit.num_aux_qubits, rng)


@dataclass(frozen=True)
class TrialResult:
    """One repeat-until-hit trial; hit_index is None when the budget ran out."""

    repetitions: int
    hit_index: int | None
    analytic_success_prob: float


def _prepared_state(problem: SearchProblem, j: int) -> StateVector:
    """The uniform state after j amplification rounds: every attempt's input."""
    prepared = uniform_state(problem.num_qubits)
    return grover_iterate(prepared, problem, j) if j else prepared


def _search_trial(problem: SearchProblem, strategy: Reset, budget: int, success_prob: float,
                  rng) -> TrialResult:
    """One repeat-until-hit trial: the recycling loop on the search gate, with
    Reset to the prepared state (fresh preparation) after every miss."""
    circuit = _search_dilation(problem)
    run = run_recycling(strategy.input, circuit.gate, strategy, budget, rng=rng, circuit=circuit)
    hit_index = None if run.exhausted else run.outcome.sampled_index
    return TrialResult(run.cycles_used, hit_index, success_prob)


def hybrid_search(problem: SearchProblem, j: int, max_repetitions: int | None = None, *,
                  rng: np.random.Generator) -> TrialResult:
    """Repeat (fresh uniform state -> j amplification rounds -> duality query)
    until a hit.

    Each attempt re-prepares from scratch; since preparation is
    deterministic the prepared state is computed once and every attempt is
    a recycling cycle under Reset.  Raises Exhausted when the budget runs
    out.
    """
    params = HybridParams.for_problem(problem, j)
    budget = cycle_budget(params.success_prob) if max_repetitions is None else max_repetitions
    res = _search_trial(problem, Reset(_prepared_state(problem, j)), budget,
                        params.success_prob, rng)
    if res.hit_index is None:
        raise Exhausted(f"no hit within {budget} repetitions")
    return res


@dataclass(frozen=True)
class SearchStats:
    """Aggregate over independent trials, with per-trial rows for CSV output."""

    trials: int
    hits: int
    total_repetitions: int
    empirical_success_rate: float
    analytic_success_prob: float
    trial_results: tuple[TrialResult, ...]

    @property
    def mean_repetitions(self) -> float:
        return self.total_repetitions / self.trials

    @property
    def per_attempt_hit_rate(self) -> float:
        """hits / total attempts; comparable to analytic_success_prob."""
        return self.hits / self.total_repetitions


def run_search_experiment(problem: SearchProblem, j: int, trials: int, seed: int,
                          max_repetitions: int | None = None) -> SearchStats:
    """``trials`` independent hybrid searches on rng streams derived from
    (seed, trial index); aggregation is order-independent.

    All trials share one prepared state, one Reset and the problem's cached
    dilation circuit, which keeps the prepared state's readout: the
    dilation runs once per experiment.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    params = HybridParams.for_problem(problem, j)
    budget = cycle_budget(params.success_prob) if max_repetitions is None else max_repetitions
    strategy = Reset(_prepared_state(problem, j))
    results = tuple(_search_trial(problem, strategy, budget, params.success_prob,
                                  trial_rng(seed, t))
                    for t in range(trials))
    hits = sum(1 for r in results if r.hit_index is not None)
    total = sum(r.repetitions for r in results)
    return SearchStats(trials, hits, total, hits / trials, params.success_prob, results)


def repetition_curve(num_items: int, num_marked: int, j_max: int) -> list[tuple[int, float, float]]:
    """Rows (j, success_prob, repetitions) for j = 0..j_max.

    success_prob = sin^2((2j+1) beta) and repetitions = 1/success_prob, the
    expected number of attempts under fresh re-preparation per attempt.
    """
    if num_items < 2 or num_items & (num_items - 1):
        raise ValueError(f"num_items must be a power of 2 >= 2, got {num_items}")
    if not 1 <= num_marked < num_items:
        raise ValueError(f"need 1 <= num_marked < {num_items}, got {num_marked}")
    if j_max < 0:
        raise ValueError(f"j_max must be >= 0, got {j_max}")
    beta = math.asin(math.sqrt(num_marked / num_items))
    rows = []
    for j in range(j_max + 1):
        p = math.sin((2 * j + 1) * beta) ** 2
        rows.append((j, p, math.inf if p == 0.0 else 1.0 / p))
    return rows
