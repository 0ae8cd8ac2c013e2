"""Tests for the Pareto Type I primitives and the dual transform."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from gmcfar import (ParameterDomainError, ParetoParams, QuantileOverflowError,
                    RandomStream, dual_to_pareto, pareto_cdf, pareto_quantile,
                    pareto_to_dual, sample_pareto)

GRID = [ParetoParams(shape, scale)
        for shape in (0.5, 2.0, 5.0, 10.0)
        for scale in (0.01, 1.0, 100.0)]


def test_params_validation():
    for shape, scale in [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0),
                         (math.inf, 1.0), (1.0, math.nan)]:
        with pytest.raises(ParameterDomainError):
            ParetoParams(shape, scale)


def test_cdf_support_endpoint():
    assert pareto_cdf(ParetoParams(2.0, 1.0), 1.0) == 0.0
    assert pareto_cdf(ParetoParams(2.0, 1.0), 0.5) == 0.0


def test_cdf_known_values():
    assert pareto_cdf(ParetoParams(1.0, 1.0), 2.0) == pytest.approx(0.5, rel=1e-15)
    want = 1.0 - 2.0 ** -4.7
    assert pareto_cdf(ParetoParams(4.7, 0.01), 0.02) == pytest.approx(want, rel=1e-14)


def test_cdf_non_decreasing():
    params = ParetoParams(3.0, 2.0)
    ts = np.linspace(0.0, 50.0, 501)
    values = pareto_cdf(params, ts)
    assert (np.diff(values) >= 0).all()


def test_quantile_known_values():
    assert pareto_quantile(ParetoParams(1.0, 1.0), 0.0) == 1.0
    assert pareto_quantile(ParetoParams(1.0, 1.0), 0.5) == pytest.approx(2.0, rel=1e-15)
    assert pareto_quantile(ParetoParams(2.0, 3.0), 0.75) == pytest.approx(6.0, rel=1e-15)


@pytest.mark.parametrize("params", GRID)
def test_cdf_quantile_round_trip(params):
    us = np.linspace(0.0, 0.999999, 101)
    back = pareto_cdf(params, pareto_quantile(params, us))
    assert np.max(np.abs(back - us)) <= 1e-12


def test_quantile_domain_errors():
    params = ParetoParams(2.0, 1.0)
    for u in (-0.1, 1.0, 1.5):
        with pytest.raises(ParameterDomainError):
            pareto_quantile(params, u)


def test_quantile_overflow_reported():
    # u so close to 1 that the value exceeds the double range.
    with pytest.raises(QuantileOverflowError):
        pareto_quantile(ParetoParams(0.001, 1.0), 1.0 - 1e-9)


def test_dual_round_trips():
    params = ParetoParams(3.0, 0.5)
    zs = np.geomspace(params.scale, params.scale * 1e6, 64)
    back = dual_to_pareto(params, pareto_to_dual(params, zs))
    assert np.max(np.abs(back / zs - 1.0)) <= 1e-12
    x = np.linspace(0.0, 40.0, 64)
    back_x = pareto_to_dual(params, dual_to_pareto(params, x))
    assert np.max(np.abs(back_x - x)) <= 1e-12 * 40.0


def test_dual_edges_and_errors():
    params = ParetoParams(1.0, 1.0)
    assert dual_to_pareto(params, 0.0) == 1.0
    assert dual_to_pareto(params, math.log(2.0)) == pytest.approx(2.0, rel=1e-15)
    assert pareto_to_dual(params, 1.0) == 0.0
    with pytest.raises(ParameterDomainError):
        dual_to_pareto(params, -0.1)
    with pytest.raises(ParameterDomainError):
        pareto_to_dual(params, 0.99)


def test_sample_exponential_unit_moments():
    # The unit exponentials that sample_pareto maps through dual_to_pareto.
    stream = RandomStream(seed=4, stream_id=0)
    e = stream.exponentials(1_000_000)
    assert abs(e.mean() - 1.0) < 4e-3
    assert stream.exponentials(0).shape == (0,)
    again = RandomStream(seed=4, stream_id=0).exponentials(5)
    assert np.array_equal(again, stream.exponentials(5))


def test_sample_pareto_support_and_determinism():
    params = ParetoParams(5.0, 100.0)
    stream = RandomStream(seed=12, stream_id=1)
    z = sample_pareto(params, stream, 10_000)
    assert (z >= params.scale).all()
    assert np.array_equal(z, sample_pareto(params, stream, 10_000))
    assert sample_pareto(params, stream, 0).shape == (0,)


def test_sample_pareto_tail_probability():
    params = ParetoParams(5.0, 1.0)
    z = sample_pareto(params, RandomStream(seed=2, stream_id=0), 1_000_000)
    p_hat = np.count_nonzero(z > 2.0) / z.size
    want = 2.0 ** -5
    sigma = math.sqrt(want * (1 - want) / z.size)
    assert abs(p_hat - want) < 4 * sigma


@pytest.mark.parametrize("params", GRID)
def test_sample_pareto_ks(params):
    z = sample_pareto(params, RandomStream(seed=77, stream_id=5), 100_000)
    result = kstest(z, lambda t: pareto_cdf(params, t))
    assert result.pvalue > 0.001, (params, result.pvalue)


def test_dual_of_samples_is_unit_exponential():
    params = ParetoParams(3.0, 0.5)
    z = sample_pareto(params, RandomStream(seed=21, stream_id=0), 100_000)
    e = pareto_to_dual(params, z)
    result = kstest(e, "expon")
    assert result.pvalue > 0.001


def test_sample_pareto_is_the_dual_map_of_its_stream():
    params = ParetoParams(3.0, 2.0)
    stream = RandomStream(seed=8, stream_id=2)
    want = dual_to_pareto(params, stream.exponentials(10_000))
    assert np.array_equal(sample_pareto(params, stream, 10_000), want)


def test_dual_to_pareto_leaves_its_argument():
    x = np.linspace(0.0, 5.0, 11)
    before = x.copy()
    dual_to_pareto(ParetoParams(2.0, 3.0), x)
    assert np.array_equal(x, before)


@pytest.mark.filterwarnings("error")
def test_dual_to_pareto_overflow_reported():
    with pytest.raises(QuantileOverflowError):
        dual_to_pareto(ParetoParams(0.01, 1.0), 10.0)
    with pytest.raises(QuantileOverflowError):
        dual_to_pareto(ParetoParams(0.01, 1.0), np.array([1.0, 10.0]))


@pytest.mark.filterwarnings("error")
def test_sample_pareto_beyond_double_range_refused_before_drawing(
        monkeypatch):
    drawn = []
    monkeypatch.setattr(RandomStream, "uniforms",
                        lambda *args, **kwargs: drawn.append(args))
    with pytest.raises(ParameterDomainError, match="alpha=0.01 and beta=1.0"):
        sample_pareto(ParetoParams(0.01, 1.0), RandomStream(0), 100_000)
    assert drawn == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shape, refused", [(0.0517578, True),
                                            (0.0517579, False)])
def test_sample_pareto_bound(shape, refused):
    # At scale 1 the bound is 53/1024 = 0.0517578125.
    params, stream = ParetoParams(shape, 1.0), RandomStream(0)
    if refused:
        with pytest.raises(ParameterDomainError, match="double range"):
            sample_pareto(params, stream, 1000)
    else:
        assert np.isfinite(sample_pareto(params, stream, 1000)).all()
