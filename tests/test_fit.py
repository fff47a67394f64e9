"""Log-log least squares checked against independent OLS oracles."""

import math
import random

import numpy as np
import pytest

from zipfent.corpus import TokenizerConfig
from zipfent.errors import InsufficientPointsError
from zipfent.fit import fit_loglog
from zipfent.report import build_report
from zipfent.spectrum import FreqSpectrum


def ols_oracle(xs, ys):
    """Closed-form two-parameter least squares, written out by hand."""
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    sxy = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, ybar - slope * xbar


def law_spectrum(a, b, ks):
    return FreqSpectrum.from_points({k: math.exp(b) * k ** (-a) for k in ks})


def test_exact_law_at_sparse_frequencies():
    fit = fit_loglog(law_spectrum(1.5, 3.0, [1, 2, 4, 8]))
    assert fit.a == pytest.approx(1.5, abs=1e-9)
    assert fit.b == pytest.approx(3.0, abs=1e-9)
    assert fit.rmse <= 1e-9


def test_two_point_flat_line():
    # (0, 0) and (ln 2, 0) force slope 0, intercept 0
    fit = fit_loglog(FreqSpectrum.from_points({1: 1, 2: 1}))
    assert fit.a == 0.0
    assert fit.b == 0.0
    assert fit.points_used == 2


def test_grid_recovery_matches_closed_form_oracle():
    for a in (1.0, 1.5, 2.0, 2.5):
        for b in (2.0, 4.0, 6.0):
            spec = law_spectrum(a, b, range(1, 21))
            fit = fit_loglog(spec)
            assert fit.a == pytest.approx(a, abs=1e-9)
            assert fit.b == pytest.approx(b, abs=1e-9)
            assert fit.rmse <= 1e-9
            xs = [math.log(k) for k in spec.points]
            ys = [math.log(f) for f in spec.points.values()]
            slope, intercept = ols_oracle(xs, ys)
            assert fit.a == pytest.approx(-slope, abs=1e-12)
            assert fit.b == pytest.approx(intercept, abs=1e-12)


def test_noisy_data_matches_numpy_lstsq():
    rng = random.Random(3)
    pts = {k: math.exp(4.0) * k ** (-1.2) * (1 + 0.2 * rng.random()) for k in range(1, 30)}
    fit = fit_loglog(FreqSpectrum.from_points(pts))
    xs = np.log(sorted(pts))
    ys = np.log([pts[k] for k in sorted(pts)])
    coef, *_ = np.linalg.lstsq(np.vstack([xs, np.ones_like(xs)]).T, ys, rcond=None)
    assert fit.a == pytest.approx(-coef[0], abs=1e-10)
    assert fit.b == pytest.approx(coef[1], abs=1e-10)


def test_fit_invariant_to_point_order():
    pts = {4: 2.0, 1: 9.0, 2: 5.0, 8: 1.0}
    f1 = fit_loglog(FreqSpectrum.from_points(pts))
    f2 = fit_loglog(FreqSpectrum.from_points(dict(reversed(list(pts.items())))))
    assert (f1.a, f1.b, f1.rmse) == (f2.a, f2.b, f2.rmse)


def test_residual_orthogonality():
    rng = random.Random(5)
    pts = {k: math.exp(3.0) * k ** (-1.0) * (1 + 0.5 * rng.random()) for k in range(1, 15)}
    spec = FreqSpectrum.from_points(pts)
    fit = fit_loglog(spec)
    xs = [math.log(k) for k in spec.points]
    ys = [math.log(f) for f in spec.points.values()]
    resid = [y - (-fit.a * x + fit.b) for x, y in zip(xs, ys)]
    assert abs(math.fsum(resid)) <= 1e-9
    assert abs(math.fsum(r * x for r, x in zip(resid, xs))) <= 1e-9


def test_k_range_truncation():
    spec = law_spectrum(2.0, 5.0, range(1, 11))
    fit = fit_loglog(spec, k_min=2, k_max=8)
    assert (fit.k_min, fit.k_max, fit.points_used) == (2, 8, 7)
    assert fit.a == pytest.approx(2.0, abs=1e-9)


def test_range_validation():
    spec = law_spectrum(1.0, 3.0, range(1, 11))
    with pytest.raises(ValueError):
        fit_loglog(spec, k_min=0)
    with pytest.raises(ValueError):
        fit_loglog(spec, k_min=5, k_max=3)


def test_insufficient_points():
    with pytest.raises(InsufficientPointsError) as exc:
        fit_loglog(FreqSpectrum.from_points({3: 7}))
    assert exc.value.available == 1
    spec = law_spectrum(1.0, 3.0, range(1, 11))
    with pytest.raises(InsufficientPointsError):
        fit_loglog(spec, k_min=4, k_max=4)


def test_k_min_beyond_the_largest_k_leaves_no_points():
    # with k_max defaulted to the largest stored k, the window is empty,
    # not malformed
    with pytest.raises(InsufficientPointsError) as exc:
        fit_loglog(law_spectrum(1.0, 3.0, range(1, 11)), k_min=20)
    assert exc.value.available == 0


def test_k_that_share_one_float_log_are_one_point():
    # ln(2**53) and ln(2**53 + 1) round to one float, so the fit has one x
    spec = FreqSpectrum.from_points({2**53: 1, 2**53 + 1: 1, 1: 1})
    assert math.log(2**53) == math.log(2**53 + 1)
    with pytest.raises(InsufficientPointsError) as exc:
        fit_loglog(spec, k_min=2)
    assert exc.value.available == 1
    assert fit_loglog(spec).points_used == 3
    report = build_report(spec, TokenizerConfig(), ["big.txt"], fit_kmin=2)
    assert report["fit"] == {"error": "log-log fit needs at least 2 distinct frequencies in range, have 1"}
    assert report["bound"] is None and report["chain"] is None
