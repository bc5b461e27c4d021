import json

import numpy as np
import pytest
from scipy.signal import lfilter
from scipy.stats import chi2

from latinsq.core import SquareState, cyclic_square
from latinsq.oracle import enumerate_latin_squares
from latinsq.stats import (
    ALPHA,
    InsufficientSamples,
    UnknownSquare,
    acceptance_band,
    autocorrelation_time,
    cell_symbol_frequency_test,
    chi_square_uniformity,
)


def _universe3():
    return enumerate_latin_squares(3)


def test_equal_counts_statistic_zero_fails_two_sided_band():
    universe = _universe3()
    samples = [sq for sq in universe for _ in range(10)]
    report = chi_square_uniformity(samples, universe)
    assert report.statistic == 0.0
    assert report.dof == 11
    # 0 sits below the central band's lower edge: suspiciously perfect.
    lo, _ = acceptance_band(11)
    assert lo > 0
    assert not report.passed


def test_degenerate_concentration_fails():
    universe = _universe3()
    samples = [universe[0]] * 120
    report = chi_square_uniformity(samples, universe)
    assert report.statistic == pytest.approx(120 * 11)
    assert not report.passed


def test_unknown_square_rejected():
    universe = _universe3()
    rogue = SquareState(((0, 1, 2), (1, 2, 0), (2, 0, 1)))
    fake = SquareState(((9, 9, 9),) * 3)
    with pytest.raises(UnknownSquare):
        chi_square_uniformity([fake] + [rogue] * 200, universe)


def test_empty_universe_rejected():
    # No category: the expected count per category would be 0 / 0.
    with pytest.raises(UnknownSquare, match="the universe is empty"):
        chi_square_uniformity([], [])


@pytest.mark.parametrize("order", [3, 5])
def test_cell_test_rejects_samples_of_another_order(order):
    # Smaller squares would be counted as order-4 samples, larger ones read past the counters.
    with pytest.raises(UnknownSquare, match=f"sample of order {order} in an order-4 test"):
        cell_symbol_frequency_test([cyclic_square(order)] * 100, 4)


def test_insufficient_samples_rejected():
    universe = _universe3()
    with pytest.raises(InsufficientSamples):
        chi_square_uniformity(universe * 2, universe)
    with pytest.raises(InsufficientSamples):
        cell_symbol_frequency_test(universe, 3)


def test_statistic_invariant_under_universe_relabeling():
    universe = _universe3()
    samples = [universe[k % 12] for k in range(240)] + [universe[0]] * 37
    forward = chi_square_uniformity(samples, universe)
    backward = chi_square_uniformity(samples, list(reversed(universe)))
    assert forward.statistic == pytest.approx(backward.statistic)
    assert forward.passed == backward.passed


def test_full_universe_cell_counts_exactly_uniform():
    universe = _universe3()
    samples = [sq for sq in universe for _ in range(10)]
    report = cell_symbol_frequency_test(samples, 3)
    assert report.statistic == 0.0
    assert report.dof == 2


def test_constant_sampler_fails_cell_test():
    universe = _universe3()
    report = cell_symbol_frequency_test([universe[0]] * 500, 3)
    assert not report.passed
    assert report.statistic == pytest.approx(500 * 2)


def test_report_json_shape():
    universe = _universe3()
    report = chi_square_uniformity([universe[0]] * 120, universe)
    obj = json.loads(report.to_json())
    assert set(obj) == {"categories", "samples", "statistic", "dof", "pass"}
    assert obj["categories"] == 12
    assert obj["samples"] == 120
    assert obj["dof"] == 11
    assert obj["pass"] is False


def test_reports_deterministic():
    universe = _universe3()
    samples = [universe[k % 12] for k in range(360)]
    a = chi_square_uniformity(samples, universe)
    b = chi_square_uniformity(samples, universe)
    assert a == b


def test_one_category_passes():
    assert acceptance_band(0) == (0.0, 0.0)
    universe = enumerate_latin_squares(1)
    assert chi_square_uniformity(universe * 10, universe).passed
    assert cell_symbol_frequency_test(universe * 10, 1).passed


def test_acceptance_band_monotone_in_dof():
    lo11, hi11 = acceptance_band(11)
    lo575, hi575 = acceptance_band(575)
    assert 0 < lo11 < hi11
    assert lo11 < lo575 < hi575


def test_acceptance_band_equals_scipy_chi2_quantiles():
    # The closed form must match chi2.ppf to the last bit, so no verdict moves.
    def scipy_band(dof, alpha):
        return float(chi2.ppf(alpha / 2, dof)), float(chi2.ppf(1 - alpha / 2, dof))

    for dof in range(1, 2001):
        assert acceptance_band(dof) == scipy_band(dof, ALPHA), dof
    for n in range(5, 65):  # the per-cell test's Bonferroni-corrected levels
        assert acceptance_band(n - 1, ALPHA / (n * n)) == scipy_band(n - 1, ALPHA / (n * n)), n


@pytest.mark.parametrize("phi", [0.5, 0.9])
def test_autocorrelation_time_of_ar1(phi):
    # An AR(1) series x_t = phi x_{t-1} + e_t has rho(t) = phi^t, so
    # tau_int = 1 + 2 phi / (1 - phi) = (1 + phi) / (1 - phi).
    noise = np.random.default_rng(20260810).standard_normal(1_000_000)
    series = lfilter([1.0], [1.0, -phi], noise)
    tau, ess = autocorrelation_time(series)
    assert tau == pytest.approx((1 + phi) / (1 - phi), rel=0.1)
    assert ess == len(series) / tau


def test_autocorrelation_time_rejects_short_and_constant_series():
    with pytest.raises(InsufficientSamples):
        autocorrelation_time([1.0])
    with pytest.raises(InsufficientSamples):
        autocorrelation_time([2.0] * 10)
