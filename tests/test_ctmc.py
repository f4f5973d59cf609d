import math

import numpy as np
import pytest
from scipy.linalg import null_space

from redwsn.ctmc import (
    BirthDeathModel,
    build_generator,
    failure_probability_table,
    mttf_non_repairable,
    steady_state_closed_form,
    steady_state_linear_solve,
)


def closed_form_oracle(n, lam, mu):
    """Independent check: pi_0 = 1 / (1 + sum_k mu^k / (k! lam^k))."""
    return 1.0 / (1.0 + sum(mu**k / (math.factorial(k) * lam**k) for k in range(1, n + 1)))


def test_model_validation():
    with pytest.raises(ValueError):
        BirthDeathModel(0)
    with pytest.raises(ValueError):
        BirthDeathModel(2, failure_rate=0.0)
    with pytest.raises(ValueError):
        BirthDeathModel(2, repair_rate=-1.0)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_model_refuses_non_finite_rates(rate):
    with pytest.raises(ValueError, match="finite"):
        BirthDeathModel(2, failure_rate=rate)
    with pytest.raises(ValueError, match="finite"):
        BirthDeathModel(2, repair_rate=rate)


@pytest.mark.parametrize("n_boards", [2.5, True, "2"])
def test_model_refuses_a_board_count_that_is_not_an_int(n_boards):
    # 2.5 failed later, in range(); True built a one-board model.
    with pytest.raises(ValueError, match="n_boards"):
        BirthDeathModel(n_boards)


def test_generator_structure():
    lam, mu = 2.0, 5.0
    q = build_generator(BirthDeathModel(3, failure_rate=lam, repair_rate=mu))
    assert q.shape == (4, 4)
    assert np.allclose(q.sum(axis=1), 0.0)
    # Strictly tridiagonal.
    assert q[0, 2] == q[0, 3] == q[3, 0] == q[3, 1] == 0.0
    for i in range(1, 4):
        assert q[i, i - 1] == i * lam  # boards fail independently
    for i in range(3):
        assert q[i, i + 1] == mu  # one repairer, whatever the backlog


def test_closed_form_matches_independent_formula():
    for n, pi0 in failure_probability_table(1e-4, 20.83e-3, n_max=5):
        assert pi0 == pytest.approx(closed_form_oracle(n, 1e-4, 20.83e-3), rel=1e-12)


def test_linear_solve_matches_scipy_null_space():
    m = BirthDeathModel(4, 3e-3, 7e-2)
    q = build_generator(m)
    pi = steady_state_linear_solve(q)
    ns = null_space(q.T)
    assert ns.shape[1] == 1
    reference = ns[:, 0] / ns[:, 0].sum()
    assert np.allclose(pi, reference, rtol=1e-10, atol=1e-14)


def test_stationarity_pi_q_is_zero():
    m = BirthDeathModel(5, 2e-3, 4e-2)
    q = build_generator(m)
    for pi in (steady_state_closed_form(m), steady_state_linear_solve(q)):
        assert np.allclose(pi @ q, 0.0, atol=1e-12)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pi >= 0)


def test_failure_table_reproduces_published_values():
    # Published values are truncated at 4 digits, hence the 5e-4 tolerance.
    table = failure_probability_table(1e-4, 20.83e-3, n_max=4)
    published = [4.777e-3, 4.565e-5, 6.543e-7, 1.250e-8]
    assert [n for n, _ in table] == [1, 2, 3, 4]
    for (_, pi0), expected in zip(table, published):
        assert pi0 == pytest.approx(expected, rel=5e-4)


def test_failure_probability_decreases_with_redundancy():
    table = failure_probability_table(n_max=6)
    values = [pi0 for _, pi0 in table]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_closed_form_survives_extreme_ratios():
    # mu/lam = 1e6 at N = 10 underflows a naive product; log-space holds up.
    m = BirthDeathModel(10, 1e-6, 1.0)
    pi = steady_state_closed_form(m)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert pi[-1] == pytest.approx(1.0, abs=1e-5)
    assert pi[0] > 0


def test_linear_solve_input_validation():
    with pytest.raises(ValueError):
        steady_state_linear_solve(np.ones((2, 3)))
    with pytest.raises(ValueError):
        steady_state_linear_solve(np.ones((2, 2)))  # rows don't sum to zero
    reducible = np.zeros((3, 3))  # all-absorbing: no unique stationary law
    with pytest.raises(ValueError):
        steady_state_linear_solve(reducible)


def test_mttf_non_repairable():
    lam = 1e-4
    assert mttf_non_repairable(1, lam) == pytest.approx(1 / lam)
    assert mttf_non_repairable(3, lam) == pytest.approx((1 + 1 / 2 + 1 / 3) / lam)
    with pytest.raises(ValueError):
        mttf_non_repairable(0)
    # The model refuses these rates, and so does the MTTF.
    for rate, rule in ((math.nan, "a finite float"), (math.inf, "a finite float"), (0.0, "> 0"), (-1.0, "> 0")):
        with pytest.raises(ValueError, match=f"^BirthDeathModel.failure_rate must be {rule}, got {rate!r}$"):
            mttf_non_repairable(2, rate)
