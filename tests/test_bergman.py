import math
import warnings
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
    degree_multiplicities,
    donaldson_variation_check,
    fs_log_J,
    kernel_moments,
    log_degree_weights,
    log_stratum_sum,
    radial_log_J,
    radial_log_node,
    step_kernels,
    stratum_kernel,
    stratum_s_part,
)
from artifact.errors import NonPositiveMetric, ResolutionTooLow, SpreadTooLarge
from artifact.geometry import RadialKahlerMetric, fubini_study
from artifact.harness import ExperimentConfig
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


def test_stratum_s_part_matches_a_40_digit_reference():
    # m log s + (k-m) log(1-s) adds two terms <= 0, so the table keeps the
    # roundoff of its logs; m log(s/(1-s)) + k log(1-s) would cancel near s = 1
    # the 40-digit logs as integer multiples of 2^-150: each entry is then exact
    # integer arithmetic and one correctly rounded division
    scale = 2 ** 150
    for k, s in ((240, radial_rule(512).nodes), (120, DENSE_GRID[1:-1])):
        with mpmath.workdps(40):
            logs = [(int(mpmath.nint(mpmath.log(x) * scale)),
                     int(mpmath.nint(mpmath.log1p(-mpmath.mpf(x)) * scale))) for x in s.tolist()]
        want = np.array([[(m * a + (k - m) * b) / scale for a, b in logs] for m in range(k + 1)])
        got = stratum_s_part(k, s)
        assert (np.abs(got - want) <= 1e-15 * np.abs(want)).all(), k


def test_stratum_s_part_ends_inside_the_grid():
    # s = 0 and s = 1 mid-grid, as in step_kernels' nodes then DENSE_GRID, and
    # DENSE_GRID reversed: each end column is 0 on its one row, -inf elsewhere
    for k in (1, 20):
        grids = (np.concatenate([radial_rule(required_order(k)).nodes, DENSE_GRID]),
                 DENSE_GRID[::-1])
        for s in grids:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = stratum_s_part(k, s)
            for end, row in ((0.0, 0), (1.0, k)):
                (column,) = np.flatnonzero(s == end)
                want = np.full(k + 1, -np.inf)
                want[row] = 0.0
                assert np.array_equal(table[:, column], want), (k, end)
            assert np.isfinite(table[:, (s > 0.0) & (s < 1.0)]).all(), k


def test_gram_requires_resolution():
    with pytest.raises(ResolutionTooLow):
        gram(fubini_study(1, radial_rule(32)), 40)


def test_partition_ratio_gates_the_metric_rule(rng):
    # phi's J_m are integrated on the metric's own rule, so that rule is gated;
    # Fubini-Study's are in closed form and read no rule
    k = 100
    assert math.isfinite(log_partition_ratio(random_metric(rng, 1, radial_rule(300)), k=k))
    for m in (random_metric(rng, 1, radial_rule(40)), fubini_study(1, radial_rule(40))):
        with pytest.raises(ResolutionTooLow):
            log_partition_ratio(m, k=k)


def test_fubini_study_J_in_closed_form_match_its_quadrature():
    # the Beta integrals (m+n-1)!(k-m)!/(k+n)! against FS's Gram data on the
    # CLI default windows, each on its run's rule
    from artifact.cli import DEFAULT_WINDOWS
    from artifact.harness import ExperimentConfig

    for n in (1, 2, 3):
        k_min, k_max, k_stride = DEFAULT_WINDOWS[n]
        config = ExperimentConfig(kind="partition", n=n, k_min=k_min, k_max=k_max,
                                  k_stride=k_stride)
        fs = fubini_study(n, radial_rule(config.order))
        for k in config.k_values:
            gap = np.abs(fs_log_J(n, k) - gram(fs, k).log_Jm).max()
            assert gap <= 5e-13, (n, k, gap)
    # k = 2 on CP^1: J_m = m!(2-m)!/3! = 1/3, 1/6, 1/3
    assert np.abs(fs_log_J(1, 2) - np.log([1.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0])).max() <= 1e-15


def test_partition_ratio_reads_the_cached_gram_data(rng, rule200, monkeypatch):
    from artifact import bergman

    k = 40
    m = random_metric(rng, 2, rule200)
    j_phi = gram(m, k).log_Jm
    calls = []
    radial_log_J = bergman.radial_log_J
    monkeypatch.setattr(bergman, "radial_log_J",
                        lambda metric, k: calls.append(k) or radial_log_J(metric, k))
    got = log_partition_ratio(m, k=k)
    assert calls == []
    assert got == float(degree_multiplicities(2, k) @ (j_phi - fs_log_J(2, k)))


def test_partition_ratio_builds_one_kernel_per_k(rng, rule200, monkeypatch):
    # phi's Gram data build one stratum kernel per k and cache their norms;
    # Fubini-Study's side is in closed form and builds none
    from artifact import bergman

    ks = (6, 17, 40)
    m = random_metric(rng, 2, rule200)
    calls = []
    stratum_kernel = bergman.stratum_kernel
    monkeypatch.setattr(bergman, "stratum_kernel",
                        lambda k, s: calls.append(k) or stratum_kernel(k, s))
    ratios = [log_partition_ratio(m, k=k) for k in ks]
    assert calls == list(ks)
    m_alone = build_metric(m.potential, rule200)
    for k, ratio in zip(ks, ratios):
        j_phi = gram(m_alone, k).log_Jm
        assert gram(m, k).log_Jm.tobytes() == j_phi.tobytes()
        assert ratio == float(degree_multiplicities(2, k) @ (j_phi - fs_log_J(2, k)))
    # the cached Gram data are read again; a new metric builds its own kernel
    calls.clear()
    assert [log_partition_ratio(m, k=k) for k in ks] == ratios
    assert calls == []
    assert log_partition_ratio(build_metric(m.potential, rule200), k=ks[0]) == ratios[0]
    assert calls == [ks[0]]


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


def test_partition_ratio_of_constant_shift(rule200):
    k, c = 17, -0.4
    m = build_metric(RadialPotential(2, (c,)), rule200)
    got = log_partition_ratio(m, k=k)
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
    # the stratum sum against scipy's logsumexp of its terms, s = 0 and s = 1
    # included: there every term but one is -inf, and the kernel's end column
    # is exactly 1 on that term's row and floored on every other
    k, n = shape[0] - 1, 2
    s = np.linspace(0.0, 1.0, shape[1])
    w = rng.normal(0.0, 3.0, size=k + 1)
    terms = stratum_s_part(k, s) + (log_degree_weights(n, k) + w)[:, None]
    assert np.isneginf(terms[1:, 0]).all() and np.isneginf(terms[:-1, -1]).all()
    ours = log_stratum_sum(n, k, w, s)
    assert np.isfinite(ours).all()
    assert np.abs(ours - logsumexp(terms, axis=0)).max() < 1e-13
    E = stratum_kernel(k, s)[0]
    for column, row in ((0, 0), (-1, k)):
        want = np.full(k + 1, np.exp(-700.0))
        want[row] = 1.0
        assert np.array_equal(E[:, column], want), column


def _log_J_at_40_digits(metric, k):
    """log J_m, m = 0..k, summed at 40 digits over the metric's nodes from the
    doubles s and radial_log_node, as mpf (each term (1-s)^k e^node (s/(1-s))^m)."""
    nodes, log_node = metric.nd["s"].tolist(), radial_log_node(metric, k).tolist()
    with mpmath.workdps(40):
        rows = [mpmath.mpf(0)] * (k + 1)
        for x, v in zip(nodes, log_node):
            x = mpmath.mpf(x)
            term, ratio = (1 - x) ** k * mpmath.exp(v), x / (1 - x)
            for m in range(k + 1):
                rows[m] += term
                term *= ratio
        return [mpmath.log(r) for r in rows]


def test_log_J_matches_a_40_digit_reference(rng):
    # the kernel product against the stratum sum at 40 digits, on the largest
    # Gram sums run: n = 1 at k = 240 on 512 nodes, n = 3 at k = 120
    for n, k, order in ((1, 240, 512), (3, 120, required_order(120))):
        m = random_metric(rng, n, radial_rule(order))
        got = radial_log_J(m, k).tolist()
        want = _log_J_at_40_digits(m, k)
        with mpmath.workdps(40):
            gap = max(abs(mpmath.mpf(g) - w) for g, w in zip(got, want))
        assert gap <= 2e-14, (n, k, float(gap))


def test_density_integral_keeps_roundoff_on_the_sweep_draws():
    # the potentials the sweep benchmark draws at seeds 1-3 (four normal
    # coefficients of scale 0.1 on the 200-node rule, the constant 0, redrawn
    # while not positive), on its Bergman windows: the density integrates to
    # dim H^0 within 2e-15 relative
    windows = {1: (50, 200, 50), 2: (40, 120, 40), 3: (40, 120, 40)}
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for n, (k_min, k_max, k_stride) in windows.items():
            while True:
                coeffs = rng.normal(0.0, 0.1, size=4)
                coeffs[0] = 0.0
                try:
                    build_metric(RadialPotential(n, tuple(coeffs)), radial_rule(200))
                    break
                except NonPositiveMetric:
                    continue
            config = ExperimentConfig(kind="bergman", n=n, k_min=k_min, k_max=k_max,
                                      k_stride=k_stride)
            m = build_metric(RadialPotential(n, tuple(coeffs)), radial_rule(config.order))
            for k in config.k_values:
                defect = abs(bergman_density(m, k).integral_defect) / dim_h0(n, k)
                assert defect <= 2e-15, (seed, n, k, defect)


def test_kernel_floor_moves_no_bit_of_the_sums(monkeypatch):
    # kernel entries below e^-700 are floored before exp; with log-values at
    # most 600 apart every sum holds a term above e^-601, so no bit of it
    # moves, on the largest Gram and density sums run
    from artifact import bergman

    rule = radial_rule(512)
    fs1, fs3 = fubini_study(1, rule), fubini_study(3, radial_rule(required_order(120)))
    w3 = -gram(fs3, 120).log_Jm
    floored = radial_log_J(fs1, 240), log_stratum_sum(3, 120, w3, DENSE_GRID)
    for k, s in ((240, rule.nodes), (120, DENSE_GRID)):
        assert stratum_kernel(k, s)[0].min() >= math.exp(-700.0), k
    monkeypatch.setattr(bergman, "KERNEL_FLOOR", -np.inf)
    with np.errstate(under="ignore"):
        assert (stratum_kernel(240, rule.nodes)[0] < math.exp(-700.0)).any()  # the floor bites
        unfloored = radial_log_J(fs1, 240), log_stratum_sum(3, 120, w3, DENSE_GRID)
    for got, want in zip(floored, unfloored):
        assert np.array_equal(got, want)


def _nodal_metric(rule, k, log_node):
    """A CP^1 metric given by nodal data alone whose per-node log-factor of J_m
    at degree k is ``log_node`` (to roundoff): Fubini-Study's with phi moved."""
    nd = dict(fubini_study(1, rule).nd)
    nd["phi"] = (np.log(rule.weights * nd["F1"]) - log_node) / k
    return RadialKahlerMetric(1, None, rule, nd)


def test_stratum_sums_refuse_log_values_beyond_the_kernel_range(rule200):
    # one middle degree or node at -spread: the smallest product against the
    # kernel would leave the doubles' range.  Densities and the FS map sum
    # log D_m + w_m + c_m, Gram norms the per-node log-factors; as in
    # kernel_moments, a spread past SPREAD_BOUND raises SpreadTooLarge
    n, k = 1, 10
    s = np.linspace(0.0, 1.0, 57)
    E, peaks = stratum_kernel(k, s)
    flat = -(log_degree_weights(n, k) + peaks)
    for spread, refused in ((590.0, False), (610.0, True)):
        w = flat + np.where(np.arange(k + 1) == k // 2, -spread, 0.0)
        log_node = np.where(np.arange(rule200.order) == rule200.order // 2, -spread, 0.0)
        metric = _nodal_metric(rule200, k, log_node)
        if refused:
            for call in (lambda: log_stratum_sum(n, k, w, s), lambda: gram(metric, k)):
                with pytest.raises(SpreadTooLarge) as err:
                    call()
                assert err.value.spread == pytest.approx(spread) and err.value.bound == 600.0
        else:  # inside the bound the sums keep their digits
            terms = stratum_s_part(k, s) + (log_degree_weights(n, k) + w)[:, None]
            want = logsumexp(terms, axis=0)
            assert np.abs(log_stratum_sum(n, k, w, s) - want).max() < 1e-13 * np.abs(want).max()
            terms = stratum_s_part(k, rule200.nodes) + radial_log_node(metric, k)
            want = logsumexp(terms, axis=1)
            assert np.abs(gram(metric, k).log_Jm - want).max() < 1e-13 * np.abs(want).max()


def test_log_sums_leave_their_inputs_unchanged(rng, rule200):
    # each writes only the arrays it builds, and the norms add the kernel
    # sum's log, then top, then the row peaks
    n, k = 2, 30
    m = random_metric(rng, n, rule200)
    w, s = rng.normal(size=k + 1), np.linspace(0.0, 1.0, 57)
    inputs = [w, s, rule200.nodes, rule200.weights, *m.nd.values()]
    before = [x.tobytes() for x in inputs]
    log_J = radial_log_J(m, k)
    log_stratum_sum(n, k, w, s)
    stratum_kernel(k, s)
    assert [x.tobytes() for x in inputs] == before
    log_node = radial_log_node(m, k)
    E, peaks = stratum_kernel(k, m.nd["s"])
    top = log_node.max()
    assert log_J.tobytes() == (np.log(E @ np.exp(log_node - top)) + top + peaks).tobytes()


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
