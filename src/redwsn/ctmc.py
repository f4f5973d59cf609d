"""Birth-death CTMC availability model of an N-board redundant component.

State i is the number of working boards.  Boards fail independently, at
i*l in state i, and a single repairer brings one back at m, so the
steady-state probability of complete failure is
pi_0 = 1 / (1 + sum_k m^k / (k! l^k)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .engine import POSITIVE, Interval, check_typed_fields

DEFAULT_FAILURE_RATE = 1e-4  # per hour
DEFAULT_REPAIR_RATE = 20.83e-3  # per hour (one repair roughly every 48 h)


@dataclass(frozen=True)
class BirthDeathModel:
    """Boards fail independently, i*l in state i, and one repairer works at
    m whatever the backlog."""

    n_boards: Annotated[int, Interval(1)]
    failure_rate: Annotated[float, POSITIVE] = DEFAULT_FAILURE_RATE
    repair_rate: Annotated[float, POSITIVE] = DEFAULT_REPAIR_RATE

    def __post_init__(self):
        check_typed_fields(self)


def build_generator(model: BirthDeathModel) -> np.ndarray:
    """Tridiagonal generator Q over states {0..N}; every row sums to zero."""
    n, l, m = model.n_boards, model.failure_rate, model.repair_rate
    q = np.zeros((n + 1, n + 1))
    for i in range(n + 1):
        lam = i * l  # i boards up, each failing at l
        mu = m if i < n else 0.0  # all boards up, nothing to repair
        if i > 0:
            q[i, i - 1] = lam
        if i < n:
            q[i, i + 1] = mu
        q[i, i] = -(lam + mu)
    return q


def steady_state_closed_form(model: BirthDeathModel) -> np.ndarray:
    """Birth-death solution: pi_k = pi_0 * m^k / (k! l^k).

    Product terms are accumulated in log space so large N or extreme rate
    ratios cannot overflow.
    """
    l, m = model.failure_rate, model.repair_rate
    log_terms = [0.0]  # k = 0
    acc = 0.0
    for k in range(1, model.n_boards + 1):
        acc += math.log(m) - math.log(k * l)
        log_terms.append(acc)
    shift = max(log_terms)
    weights = np.exp(np.asarray(log_terms) - shift)
    return weights / weights.sum()


def steady_state_linear_solve(q: np.ndarray) -> np.ndarray:
    """Solve pi @ Q = 0 with sum(pi) = 1 by replacing one equation with the
    normalization row."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ValueError("generator must be square")
    if not np.allclose(q.sum(axis=1), 0.0, atol=1e-9 * max(1.0, np.abs(q).max())):
        raise ValueError("generator rows must sum to zero")
    n = q.shape[0]
    a = q.T.copy()
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError("generator is singular/reducible") from exc
    if np.any(pi < -1e-9):
        raise ValueError("generator is reducible: negative stationary mass")
    return pi


def failure_probability_table(
    failure_rate: float = DEFAULT_FAILURE_RATE,
    repair_rate: float = DEFAULT_REPAIR_RATE,
    n_max: int = 4,
) -> list[tuple[int, float]]:
    """(N, pi_0) rows for N = 1..n_max; pi_0 is the steady-state probability
    that every board is down."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    return [
        (n, float(steady_state_closed_form(BirthDeathModel(n, failure_rate, repair_rate))[0]))
        for n in range(1, n_max + 1)
    ]


def mttf_non_repairable(n_boards: int, failure_rate: float = DEFAULT_FAILURE_RATE) -> float:
    """Mean time to total failure of the pure-death chain (no repairs):
    sum over k of 1/(k*l).  Inputs are checked as the model checks them."""
    BirthDeathModel(n_boards, failure_rate)
    return sum(1.0 / (k * failure_rate) for k in range(1, n_boards + 1))
