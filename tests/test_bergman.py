import math
from itertools import accumulate
from operator import mul

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from artifact import (
    RadialPotential,
    ScalarField,
    bergman_density,
    build_metric,
    dim_h0,
    gram,
    log_partition_ratio,
    radial_rule,
)
from artifact.bergman import (
    DENSE_GRID,
    _log_angular_sum,
    _logsumexp,
    degree_multiplicities,
    donaldson_variation_check,
    kernel_moments,
    log_degree_weights,
    log_stratum_sum,
    radial_log_J,
    radial_log_node,
    step_kernels,
    stratum_s_part,
)
from artifact.errors import ResolutionTooLow
from artifact.geometry import fubini_study
from artifact.quadrature import TWO_PI, required_order

from conftest import MonomialBasis, gram_full, monomial_angular_factor, random_metric


def test_section_space_dimensions():
    assert dim_h0(1, 5) == 6
    assert dim_h0(2, 3) == 10
    assert dim_h0(3, 2) == 10
    assert MonomialBasis(2, 3).count == len(MonomialBasis(2, 3).multi_indices())
    assert degree_multiplicities(2, 3).sum() == 10
    for n, k in ((0, 3), (1, -1)):
        with pytest.raises(ValueError, match="need n >= 1 and k >= 0"):
            dim_h0(n, k)


def test_partition_ratio_refuses_metrics_of_different_dimension(fs_metric):
    with pytest.raises(ValueError, match="different manifolds"):
        log_partition_ratio(fs_metric(1), fs_metric(2), 5)


def test_degree_multiplicities_are_built_once_and_read_only():
    # exact binomials: k = 1000 covers every degree m <= 1000
    for n, k in ((1, 7), (2, 20), (3, 120), (1, 1000), (2, 1000), (3, 1000)):
        mult = degree_multiplicities(n, k)
        assert degree_multiplicities(n, k) is mult
        assert not mult.flags.writeable
        assert np.array_equal(mult, [math.comb(m + n - 1, n - 1) for m in range(k + 1)])


def test_fs_monomial_norms_cp1(fs_metric):
    # beta-integral closed forms at k = 2: {2pi/3, pi/3, 2pi/3}
    gd = gram(fs_metric(1), 2)
    want = np.array([TWO_PI / 3.0, math.pi / 3.0, TWO_PI / 3.0])
    # <z^m, z^m> = 2 pi J_m on CP^1
    assert np.abs(TWO_PI * np.exp(gd.log_Jm) - want).max() < 1e-13


def test_angular_sum_matches_enumeration():
    for n in (1, 2, 3):
        for k in (0, 1, 7, 20):
            want = math.fsum(
                math.log(monomial_angular_factor(a)) for a in MonomialBasis(n, k).multi_indices()
            )
            got = _log_angular_sum(n, k)
            assert abs(got - want) <= 1e-13 * abs(want), (n, k, got, want)


def test_angular_sum_matches_a_50_digit_reference():
    # by strata, as in the bergman docstring, with every log a! at 50 digits
    with mpmath.workdps(50):
        for n in (1, 2, 3):
            for k in (40, 120, 240):
                want = mpmath.fsum(
                    math.comb(m + n - 1, n - 1) * (n * mpmath.log(2 * mpmath.pi)
                                                   - mpmath.loggamma(m + n))
                    + n * math.comb(k - m + n - 1, n - 1) * mpmath.loggamma(m + 1)
                    for m in range(k + 1))
                got = _log_angular_sum(n, k)
                assert abs(got - want) <= 1e-14 * abs(want), (n, k, got, want)


def test_factorial_table_grows_bit_identically(monkeypatch):
    # one table of log i!, extended only past its end, gives the bits of a
    # table built afresh for each (n, k), in whatever order they arrive
    from artifact import bergman

    monkeypatch.setattr(bergman, "_LOG_FACTORIALS", [0.0])
    pairs = [(n, k) for n in (1, 2, 3) for k in (0, 1, 5, 12, 40, 120, 240, 400)]
    for i in np.random.default_rng(46).permutation(len(pairs)):
        n, k = pairs[i]
        fresh = np.array([math.log(f) for f in accumulate(range(1, k + n), mul, initial=1)])
        assert np.array_equal(bergman._log_factorials(k + n - 1), fresh), (n, k)
        mult = degree_multiplicities(n, k)
        terms = (mult * (n * math.log(TWO_PI)) + n * mult[::-1] * fresh[:k + 1]
                 - mult * fresh[n - 1:])
        assert _log_angular_sum.__wrapped__(n, k) == sum(terms.tolist()), (n, k)
    assert len(bergman._LOG_FACTORIALS) == 403


def test_degree_weights_are_exact():
    # log D_m is np.log of the exact integer (n-1+m)!/m!
    for n in (1, 2, 3):
        want = np.log([math.factorial(n - 1 + m) // math.factorial(m) for m in range(241)])
        got = log_degree_weights(n, 240)
        assert got.shape == want.shape and (got == want).all(), n


def test_gram_requires_resolution():
    with pytest.raises(ResolutionTooLow):
        gram(fubini_study(1, radial_rule(32)), 40)


def test_partition_ratio_gates_both_rules(rng):
    # the reference metric is integrated on its own rule, so its rule is gated too
    k = 100
    m = random_metric(rng, 1, radial_rule(300))
    with pytest.raises(ResolutionTooLow):
        log_partition_ratio(m, fubini_study(1, radial_rule(40)), k)
    with pytest.raises(ResolutionTooLow):
        log_partition_ratio(fubini_study(1, radial_rule(40)), m, k)


def test_partition_ratio_reads_the_cached_gram_data(rng, rule200, monkeypatch):
    from artifact import bergman

    k = 40
    m, base = random_metric(rng, 2, rule200), fubini_study(2, rule200)
    j_phi, j_ref = gram(m, k).log_Jm, gram(base, k).log_Jm
    calls = []
    radial_log_J = bergman.radial_log_J
    monkeypatch.setattr(bergman, "radial_log_J",
                        lambda metric, k, s_part: calls.append(k) or radial_log_J(metric, k, s_part))
    got = log_partition_ratio(m, base, k)
    assert calls == []
    assert got == float(degree_multiplicities(2, k) @ (j_phi - j_ref))


def test_partition_ratio_builds_one_s_part_per_k(rng, rule200, monkeypatch):
    # metrics on one rule share the stratum s-part of each k; the Gram data are
    # those of two grams built on their own, bit for bit
    from artifact import bergman

    ks = (6, 17, 40)
    m, base = random_metric(rng, 2, rule200), fubini_study(2, rule200)
    calls = []
    stratum_s_part = bergman.stratum_s_part
    monkeypatch.setattr(bergman, "stratum_s_part",
                        lambda k, s: calls.append(k) or stratum_s_part(k, s))
    ratios = [log_partition_ratio(m, base, k) for k in ks]
    assert calls == list(ks)
    m_alone, base_alone = build_metric(m.potential, rule200), fubini_study(2, rule200)
    for k, ratio in zip(ks, ratios):
        j_phi, j_ref = gram(m_alone, k).log_Jm, gram(base_alone, k).log_Jm
        assert gram(m, k).log_Jm.tobytes() == j_phi.tobytes()
        assert gram(base, k).log_Jm.tobytes() == j_ref.tobytes()
        assert ratio == float(degree_multiplicities(2, k) @ (j_phi - j_ref))
    # the s-part is built on entry, whatever the grams have cached
    calls.clear()
    assert [log_partition_ratio(m, base, k) for k in ks] == ratios
    assert calls == list(ks)
    calls.clear()
    assert log_partition_ratio(build_metric(m.potential, rule200), base, ks[0]) == ratios[0]
    assert calls == [ks[0]]
    # on two rules each gram builds its own
    calls.clear()
    log_partition_ratio(build_metric(m.potential, radial_rule(240)), fubini_study(2, rule200), 6)
    assert calls == [6, 6]


def test_full_hermitian_mode_agrees_with_radial_reduction(rng, rule200):
    m = random_metric(rng, 1, rule200)
    k = 14
    diag = gram(m, k)
    full = gram_full(m, k)
    assert full.matrix.shape == (k + 1, k + 1)
    # radial symmetry: off-diagonal entries vanish
    off = full.matrix - np.diag(np.diag(full.matrix))
    assert np.abs(off).max() < 1e-10 * np.abs(np.diag(full.matrix)).max()
    assert abs(full.log_det - diag.log_det) < 1e-9 * (1.0 + abs(diag.log_det))


def test_density_normalization_and_positivity(rng, rule200):
    for n in (1, 2):
        m = random_metric(rng, n, rule200)
        dens = bergman_density(m, 18)
        assert dens.min_value > 0.0
        assert abs(dens.integral_defect) < 1e-9


def test_density_is_constant_exactly_on_fs(fs_metric):
    for n, k in ((1, 35), (2, 20), (3, 12)):
        dens = bergman_density(fs_metric(n), k)
        want = math.prod(k + i for i in range(1, n + 1)) / TWO_PI**n
        assert abs(dens.min_value - want) < 1e-9 * want
        assert abs(dens.max_value - want) < 1e-9 * want


def test_partition_ratio_of_constant_shift(fs_metric, rule200):
    k, c = 17, -0.4
    m = build_metric(RadialPotential(2, (c,)), rule200)
    got = log_partition_ratio(m, fs_metric(2), k)
    want = -k * dim_h0(2, k) * c
    assert abs(got - want) < 1e-11 * abs(want)


def test_partition_derivative_matches_density_formula(rng, rule200):
    m = random_metric(rng, 1, rule200)
    psi = ScalarField.from_callable(m, lambda s: np.sin(2.0 * s) - 0.3 * s)
    fd, formula, defect = donaldson_variation_check(m, 25, psi)
    assert defect < 1e-6 * (1.0 + abs(formula))


@settings(max_examples=10, deadline=None)
@given(st.lists(st.floats(-0.1, 0.1), min_size=1, max_size=3))
def test_density_integral_counts_sections(coeffs):
    rule = radial_rule(96)
    m = build_metric(RadialPotential(1, (0.0, *coeffs)), rule)
    dens = bergman_density(m, 12)
    assert abs(dens.integral_defect) < 1e-10
    assert dens.min_value > 0.0


@pytest.mark.parametrize("shape", [(21, 161), (41, 232), (121, 345), (201, 432)])
def test_logsumexp_matches_scipy(rng, shape):
    a = rng.normal(0.0, 30.0, size=shape)
    for axis in (0, 1):
        assert np.abs(_logsumexp(a, axis) - logsumexp(a, axis=axis)).max() < 1e-13
    # the stratum terms: at s = 0 and s = 1 every term but one is -inf
    k, n = shape[0] - 1, 2
    s = np.linspace(0.0, 1.0, shape[1])
    terms = stratum_s_part(k, s) + (log_degree_weights(n, k) + rng.normal(size=k + 1))[:, None]
    assert np.isneginf(terms[1:, 0]).all() and np.isneginf(terms[:-1, -1]).all()
    ours = _logsumexp(terms, 0)
    assert np.isfinite(ours).all()
    assert np.abs(ours - logsumexp(terms, axis=0)).max() < 1e-13


def test_floored_logsumexp_is_the_unfloored_sum_bit_for_bit():
    # shifted terms below -SPREAD_BOUND are floored before exp: every sum holds
    # exp(0) = 1, so no bit of it moves, on the largest Gram and density sums run
    def unfloored(a, axis):
        top = a.max(axis=axis, keepdims=True)
        return np.log(np.exp(a - top).sum(axis=axis)) + np.squeeze(top, axis)

    rule = radial_rule(512)
    gram_terms = stratum_s_part(240, rule.nodes) + radial_log_node(fubini_study(1, rule), 240)
    fs3 = fubini_study(3, radial_rule(required_order(120)))
    density_terms = stratum_s_part(120, DENSE_GRID) + (
        log_degree_weights(3, 120) - gram(fs3, 120).log_Jm)[:, None]
    for terms, axis in ((gram_terms, 1), (density_terms, 0)):
        assert (terms - terms.max(axis=axis, keepdims=True) < -745.0).any()  # exp gives 0
        assert np.array_equal(_logsumexp(terms, axis), unfloored(terms, axis))


def test_log_sums_leave_their_inputs_unchanged(rng, rule200):
    # each shifts in place only the array it has just built
    n, k = 2, 30
    m = random_metric(rng, n, rule200)
    a, w = rng.normal(0.0, 30.0, size=(k + 1, 57)), rng.normal(size=k + 1)
    s, s_part = np.linspace(0.0, 1.0, 57), stratum_s_part(k, m.nd["s"])
    inputs = [a, w, s, s_part, rule200.nodes, rule200.weights, *m.nd.values()]
    before = [x.tobytes() for x in inputs]
    for axis in (0, 1):
        _logsumexp(a, axis)
    log_J = radial_log_J(m, k, s_part)
    log_stratum_sum(n, k, w, s)
    assert [x.tobytes() for x in inputs] == before
    assert log_J.tobytes() == _logsumexp(s_part + radial_log_node(m, k), 1).tobytes()


def test_stratum_moments_are_those_of_the_term_shares(rng):
    n, k = 2, 12
    w = rng.normal(size=k + 1)
    kernels = step_kernels(n, k, radial_rule(56))  # required_order(12)
    s = kernels.s  # the nodes, then the dense grid with both ends
    assert s.size == 56 + 513 and s[56] == 0.0 and s[-1] == 1.0
    S, top, mean, var = kernel_moments(kernels, w)
    log_P = np.log(S) + kernels.shift + top
    assert np.abs(log_P - log_stratum_sum(n, k, w, s)).max() < 1e-12
    m = np.arange(k + 1)
    D = np.array([math.factorial(n - 1 + i) / math.factorial(i) for i in m])
    terms = D[:, None] * s[None, :] ** m[:, None] * (1.0 - s[None, :]) ** (k - m)[:, None]
    p = terms * np.exp(w)[:, None]
    p /= p.sum(axis=0)
    assert np.abs(mean - m @ p).max() < 1e-12
    assert np.abs(var - ((m[:, None] - m @ p) ** 2 * p).sum(axis=0)).max() < 1e-12
