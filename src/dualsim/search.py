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
from functools import cached_property

import numpy as np

from .duality import (
    DilationCircuit,
    DualityGate,
    MeasurementOutcome,
    PhaseDiagonal,
    build_dilation,
)
from .recycling import Reset, cycle_budget, run_recycling, run_trials
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

    @cached_property
    def _circuit(self) -> DilationCircuit:
        """The search gate's dilation, built on first use and freed with the problem."""
        return build_dilation(search_gate(self))


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


def search_gate(problem: SearchProblem) -> DualityGate:
    """The symmetric 2-slit gate {oracle/2, identity/2}, both slits phase
    diagonals (O(N) memory and work).

    Its assembled sum (oracle + I)/2 is the projector onto the marked
    subspace, for any input state.
    """
    oracle = PhaseDiagonal(oracle_phases(problem.size, problem.marked))
    return DualityGate(np.array([0.5, 0.5]), (oracle, PhaseDiagonal(np.ones(problem.size))))


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
    remainder on the aux=1 branch.  Each call runs the dilation once, on
    the problem's circuit.
    """
    return problem._circuit.readout(state).measure(rng)


@dataclass(frozen=True)
class TrialResult:
    """One repeat-until-hit trial; hit_index is None when the budget ran out."""

    repetitions: int
    hit_index: int | None
    analytic_success_prob: float


def _search_setup(problem: SearchProblem, j: int,
                 max_repetitions: int | None) -> tuple[float, int, Reset]:
    """(per-attempt hit probability, budget, Reset to the prepared state) of a
    hybrid search: the prepared state is the uniform state after j
    amplification rounds."""
    params = HybridParams.for_problem(problem, j)
    budget = cycle_budget(params.success_prob) if max_repetitions is None else max_repetitions
    prepared = uniform_state(problem.num_qubits)
    return params.success_prob, budget, Reset(grover_iterate(prepared, problem, j) if j else prepared)


def hybrid_search(problem: SearchProblem, j: int, max_repetitions: int | None = None, *,
                  rng: np.random.Generator) -> TrialResult:
    """Repeat (fresh uniform state -> j amplification rounds -> duality query)
    until a hit.

    Each attempt re-prepares from scratch; since preparation is
    deterministic the prepared state is computed once and every attempt is
    a recycling cycle under Reset, on the problem's circuit.  Raises
    Exhausted when the budget runs out.
    """
    p_hit, budget, strategy = _search_setup(problem, j, max_repetitions)
    run = run_recycling(strategy.input, problem._circuit, strategy, budget, rng=rng)
    if run.exhausted:
        raise Exhausted(f"no hit within {run.cycles_used} repetitions")
    return TrialResult(run.cycles_used, run.outcome.sampled_index, p_hit)


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

    All trials run in one ``run_trials`` call on the problem's circuit,
    with one Reset to the prepared state: the dilation runs once per
    experiment.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    p_hit, budget, strategy = _search_setup(problem, j, max_repetitions)
    cycles, hit_index = run_trials(strategy.input, problem._circuit, strategy, budget, seed,
                                   range(trials))
    results = tuple(TrialResult(reps, None if hit < 0 else hit, p_hit)
                    for reps, hit in zip(cycles.tolist(), hit_index.tolist()))
    hits = int((hit_index >= 0).sum())
    return SearchStats(trials, hits, int(cycles.sum()), hits / trials, p_hit, results)


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
        p = HybridParams(j, beta).success_prob
        rows.append((j, p, math.inf if p == 0.0 else 1.0 / p))
    return rows
