import decimal
import math
import warnings
from decimal import Decimal

import mpmath
import numpy as np
import pytest

from artifact import (
    RadialPotential,
    balance_defect,
    build_metric,
    dim_h0,
    fs_map_profile,
    hilb_map,
    liouville_approx_SLk,
    radial_rule,
    t_iteration,
)
from artifact.balanced import _hilb_scale, t_step
from artifact.bergman import (DENSE_GRID, density_values, gram, kernel_log_J, kernel_moments,
                              log_stratum_sum, radial_log_node, step_kernels)
from artifact.errors import NonPositiveMetric, NotConverged, SpreadTooLarge
from artifact.geometry import check_positive, class_volume, fubini_study
from artifact.quadrature import TWO_PI, required_order

from conftest import (count_profile_calls, logsumexp_density, logsumexp_t_step, nodal_fs_metric,
                      random_metric, shifted_potential)

S_DENSE = np.linspace(0.0, 1.0, 401)


def test_hilbert_map_fs_level_one(fs_metric):
    assert np.abs(np.exp(hilb_map(fs_metric(1), 1)) - 1.0).max() < 1e-13


def test_hilbert_map_of_fs_in_closed_form(fs_metric):
    # J_m = B(m+n, k-m+1) on FS, so eta_m = (d_k/V) (2 pi)^n J_m = (m+n-1)!(k-m)!/k!,
    # whose FS stratum sum is (1-s)^-k sum_m C(k, m) s^m (1-s)^(k-m) = (1-s)^-k: FS is 0
    for n in (1, 2, 3):
        for k in (1, 6, 20):
            want = np.log([math.factorial(m + n - 1) * math.factorial(k - m) / math.factorial(k)
                           for m in range(k + 1)])
            got = hilb_map(fs_metric(n), k)
            assert got.shape == (k + 1,)
            assert np.abs(np.expm1(got - want)).max() < 1e-12, (n, k)
            assert np.abs(fs_map_profile(n, want).profile(S_DENSE)).max() < 1e-12, (n, k)


def test_hilbert_map_shift_scaling(fs_metric, rule200):
    k, c = 7, 0.3
    shifted = build_metric(RadialPotential(1, (c,)), rule200)
    a = hilb_map(shifted, k)
    b = hilb_map(fs_metric(1), k)
    assert np.abs(a - (b - k * c)).max() < 1e-12


def test_fs_map_profile_checks_its_input():
    # one finite log eta per degree 0..k, and k >= 1: level 0 would divide by 0
    bad = (np.array([0.0, np.inf, 0.0]), np.array([0.0, np.nan, 0.0]), np.zeros((2, 3)),
           np.zeros(1), np.zeros(0))
    for log_eta in bad:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="one finite log eta per degree"):
                fs_map_profile(1, log_eta)


def test_fs_map_fixes_fubini_study(fs_metric):
    for n, k in ((1, 12), (2, 9), (3, 6)):
        prof = fs_map_profile(n, hilb_map(fs_metric(n), k))
        assert np.abs(prof.profile(np.linspace(0.0, 1.0, 512))).max() < 1e-12


def test_density_and_fs_map_share_one_stratum_sum(rng, rule200):
    # V rho_k / d_k = exp(k (FS(Hilb phi) - phi)): both are the same stratum sum
    for n in (1, 2, 3):
        m = random_metric(rng, n, rule200)
        vol = TWO_PI**n / math.factorial(n)
        phi = m.potential.profile(S_DENSE)
        for k in (5, 20, 40):
            rho = density_values(m, k, gram(m, k).log_Jm, S_DENSE)
            fs = fs_map_profile(n, hilb_map(m, k)).profile(S_DENSE)
            lhs = vol * rho / dim_h0(n, k)
            assert np.abs(lhs - np.exp(k * (fs - phi))).max() < 1e-12, (n, k)


def _fs_moments_reference(n, k, log_weights, s):
    """(phi, F, F', G) of FS(H) at one s from the degree shares p_m, in 40-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        s = Decimal(float(s))
        terms = [Decimal(math.factorial(n - 1 + m) // math.factorial(m))
                 * Decimal(float(log_weights[m])).exp() * s**m * (1 - s) ** (k - m)
                 for m in range(k + 1)]
        P = sum(terms)
        mean = sum(m * t for m, t in enumerate(terms)) / P
        var = sum((m - mean) ** 2 * t for m, t in enumerate(terms)) / P
        return [float(v) for v in (P.ln() / k, mean / k, var / (k * s * (1 - s)), mean / (k * s))]


def test_moments_give_the_fs_metric_and_its_defect(rng, rule200):
    # phi = log P/k, F = E_p[m]/k, F' = Var_p[m]/(k s(1-s)), G = E_p[m]/(ks) from the
    # kernel moments: exact to roundoff against decimals, and to the fit's resolution
    # against the fitted FS(H)
    keys = ("phi", "F", "F1", "G")
    s = rule200.nodes
    for n in (1, 2, 3):
        m = random_metric(rng, n, rule200)
        for k in (5, 20, 40):
            log_eta = hilb_map(m, k)
            kernels = step_kernels(n, k, rule200)
            S, top, mean, var = state = kernel_moments(kernels, -log_eta)
            nodes = slice(rule200.order)
            log_P = np.log(S[nodes]) + kernels.shift[nodes] + top
            mean, var = mean[nodes], var[nodes]
            moments = dict(zip(keys, (log_P / k, mean / k, var / (k * s * (1.0 - s)),
                                      mean / (k * s))))
            defect = t_step(state, kernels, _hilb_scale(n, k))[2]
            sample = np.arange(0, rule200.order, 9)
            exact = np.array([_fs_moments_reference(n, k, -log_eta, x) for x in s[sample]]).T
            fitted = build_metric(fs_map_profile(n, log_eta), rule200)
            for key, ref in zip(keys, exact):
                scale = np.abs(ref).max()
                assert np.abs(moments[key][sample] - ref).max() < 1e-13 * scale, (n, k, key)
                gap = np.abs(moments[key] - fitted.nd[key]).max()
                assert gap < 5e-12 * np.abs(fitted.nd[key]).max(), (n, k, key)
            assert abs(defect - balance_defect(fitted, k)) < 1e-13, (n, k)


def test_iteration_fits_fs_once_when_it_stops(monkeypatch):
    start = RadialPotential(1, (0.0, 0.01, -0.005))
    calls = count_profile_calls(monkeypatch, "from_callable", "deriv")
    _, trace = t_iteration(start, 10)
    assert trace.iterations > 100
    # the start's derivative stack, then one fit of the final FS(H)
    assert sorted(calls) == ["deriv"] * 4 + ["from_callable"]
    calls.clear()
    with pytest.raises(NotConverged):
        t_iteration(start, 10, max_iter=20)
    assert calls == ["deriv"] * 4


def test_contraction_rate_of_the_plain_map():
    start = RadialPotential(1, (0.0, 0.01, -0.005))  # acceptance 11a's start
    _, trace = t_iteration(start, 10)
    assert abs(trace.contraction_rate - 0.923) <= 0.002
    with pytest.raises(NotConverged) as err:
        t_iteration(start, 20)
    assert abs(err.value.trace.contraction_rate - 0.976) <= 0.002
    fs_start = t_iteration(RadialPotential(1, (0.0,)), 10)[1]
    assert fs_start.iterations == 0 and math.isnan(fs_start.contraction_rate)


def test_balance_defect_makes_one_stratum_sum(rng, rule200, monkeypatch):
    from artifact import bergman

    m = random_metric(rng, 2, rule200)
    k = 10
    sums = []
    stratum_sum = bergman.log_stratum_sum
    monkeypatch.setattr(bergman, "log_stratum_sum",
                        lambda *args: sums.append(args) or stratum_sum(*args))
    balance_defect(m, k)
    assert len(sums) == 1  # the 513 dense points only; the nodal integral is lazy
    dens = bergman.bergman_density(m, k)
    eager = m.integrate(density_values(m, k, gram(m, k).log_Jm, rule200.nodes)) - dim_h0(2, k)
    assert dens.integral_defect == float(eager)


def test_fs_map_gauge_scaling(fs_metric):
    k, lam = 12, 3.0
    log_eta = hilb_map(fs_metric(1), k)
    scaled = log_eta + math.log(lam)
    shift = fs_map_profile(1, scaled).profile(S_DENSE) - fs_map_profile(1, log_eta).profile(S_DENSE)
    assert np.abs(shift - shift[0]).max() < 1e-12  # constant shift: same metric
    assert abs(abs(shift[0]) - math.log(lam) / k) < 1e-12


def test_round_trip_decays_quadratically(rng, rule200):
    m = random_metric(rng, 1, rule200, scale=0.08)
    phi_true = m.potential.profile(S_DENSE)
    ks = np.array([10, 16, 24, 36, 54, 80])
    dist = []
    for k in ks:
        prof = fs_map_profile(1, hilb_map(m, int(k)))
        diff = prof.profile(S_DENSE) - phi_true
        diff -= diff.mean()
        dist.append(np.abs(diff).max())
    slope = np.polyfit(np.log(ks), np.log(dist), 1)[0]
    assert -2.4 < slope < -1.6


def test_iteration_recognizes_fs_immediately(fs_metric, rule200):
    pot, trace = t_iteration(RadialPotential(1, (0.0,)), 20, rule200)
    assert trace.converged and trace.iterations == 0
    assert trace.defects[0] < 1e-12


def test_iteration_converges_from_small_perturbation():
    k = 10
    rule = radial_rule(required_order(k))
    pot, trace = t_iteration(RadialPotential(1, (0.0, 0.01, -0.005)), k, rule)
    assert trace.converged
    assert trace.iterations <= 200
    assert trace.defects[-1] <= 1e-10
    m = build_metric(pot, rule)
    assert balance_defect(m, k) <= 1e-9


@pytest.mark.parametrize("coeffs", [(0.0, 0.3), (0.0, 0.2, -0.1)])
def test_iteration_returns_the_fs_metric_it_balanced(coeffs):
    # the balanced potential is FS(H) of the final step, not a polynomial in s;
    # its defect is the trace's last one, up to the fit of FS(H)
    k = 10
    rule = radial_rule(required_order(k))
    pot, trace = t_iteration(RadialPotential(1, coeffs), k, rule)
    assert trace.converged and trace.defects[-1] <= 1e-10
    defect = balance_defect(build_metric(pot, rule), k)
    assert defect <= 1e-9
    assert abs(defect - trace.defects[-1]) <= 1e-3 * trace.defects[-1]


def test_iteration_cap_raises_with_trace():
    rule = radial_rule(required_order(12))
    with pytest.raises(NotConverged) as err:
        t_iteration(RadialPotential(1, (0.0, 0.05, -0.02)), 12, rule, max_iter=20)
    trace = err.value.trace
    assert not trace.converged
    assert len(trace.defects) == 21


def test_iteration_takes_hilb_scale_once_and_builds_no_metric_per_step(monkeypatch):
    # Hilb's scale depends on (n, k) alone, and a step maps log eta arrays: a run
    # takes Hilb of the start once, and fits FS(H) only when it converges
    from artifact import balanced

    calls = _count_calls_in_step(monkeypatch, (
        (balanced, "_hilb_scale"), (balanced, "hilb_map"), (balanced, "fs_map_profile")))
    start = RadialPotential(1, (0.0, 0.01, -0.005))
    with pytest.raises(NotConverged):
        t_iteration(start, 10, max_iter=5)
    # the scale once for the steps, then once in hilb_map for the start
    assert [name for name, _ in calls] == ["_hilb_scale", "hilb_map", "_hilb_scale"]
    calls.clear()
    _, trace = t_iteration(start, 10)
    assert trace.converged and trace.iterations > 100
    assert [name for name, _ in calls] == [
        "_hilb_scale", "hilb_map", "_hilb_scale", "fs_map_profile"]


def _count_calls_in_step(monkeypatch, targets):
    """Log (name, inside a t_step) for each call of the (owner, name) targets."""
    from artifact import balanced

    calls, in_step = [], [False]
    for owner, name in targets:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.append((_name, in_step[0]))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    step = balanced.t_step

    def t_step(*args):
        in_step[0] = True
        try:
            return step(*args)
        finally:
            in_step[0] = False

    monkeypatch.setattr(balanced, "t_step", t_step)
    return calls


def test_steps_multiply_kernels_built_once_per_iteration(monkeypatch):
    # the kernels are built on entry and the first iterate's moments formed; a
    # step is one product with the kernel's node block and one with the moment
    # stack, which gives the next iterate's moments and the density's
    # numerator: it calls no logsumexp, builds no s-part and takes no Gram data
    # by the per-metric route
    from artifact import balanced, bergman

    calls = _count_calls_in_step(monkeypatch, (
        (balanced, "step_kernels"), (balanced, "kernel_log_J"), (balanced, "kernel_moments"),
        (bergman, "_logsumexp"), (bergman, "stratum_s_part"), (bergman, "radial_log_J")))
    with pytest.raises(NotConverged) as err:
        t_iteration(RadialPotential(2, (0.0, 0.01, -0.005)), 10, max_iter=3)
    assert len(err.value.trace.defects) == 4
    assert [name for name, stepping in calls if stepping] == [
        "kernel_log_J", "kernel_moments"] * 3
    # the start's Gram data and dense density only, then the iteration's kernels
    # and the first iterate's moments; the orbit fit reads Hilb(FS) in closed form
    assert [name for name, _ in calls if name != "_logsumexp"] == [
        "stratum_s_part", "radial_log_J", "stratum_s_part", "step_kernels", "stratum_s_part",
        "kernel_moments"] + ["kernel_log_J", "kernel_moments"] * 3


def test_steps_check_no_rule_and_build_no_metric(monkeypatch):
    # the rule is checked against k for the start's Gram data and once for the
    # kernels; a step reads FS(H) from the moments and builds no metric
    from artifact import bergman, geometry

    calls = _count_calls_in_step(monkeypatch, (
        (bergman, "check_resolution"), (geometry.RadialKahlerMetric, "__init__")))
    with pytest.raises(NotConverged) as err:
        t_iteration(RadialPotential(2, (0.0, 0.01, -0.005)), 10, max_iter=3)
    assert len(err.value.trace.defects) == 4
    assert calls == [("__init__", False), ("check_resolution", False),
                     ("check_resolution", False)]


def test_metrics_and_iterations_call_neither_chebval_nor_chebder(monkeypatch):
    # profiles run their own Clenshaw and derivative recurrences, bit for bit numpy's
    from numpy.polynomial import chebyshev

    calls = []
    for name in ("chebval", "chebder"):
        fn = getattr(chebyshev, name)
        monkeypatch.setattr(chebyshev, name,
                            lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
    start, k = RadialPotential(2, (0.0, 0.01, -0.005)), 10
    build_metric(start, radial_rule(required_order(k)))
    assert t_iteration(start, k)[1].converged
    assert calls == []
    chebyshev.chebder(chebyshev.chebval(0.5, [[1.0, 2.0]]))
    assert calls == ["chebval", "chebder"]


def test_iteration_builds_its_fixed_grid_data_once(monkeypatch):
    from artifact import balanced, bergman

    kernels, s_parts = [], []
    build_kernels, build_s_part = balanced.step_kernels, bergman.stratum_s_part
    monkeypatch.setattr(balanced, "step_kernels",
                        lambda *args: kernels.append(args) or build_kernels(*args))
    monkeypatch.setattr(bergman, "stratum_s_part",
                        lambda *args: s_parts.append(args[0]) or build_s_part(*args))
    with pytest.raises(NotConverged):
        t_iteration(RadialPotential(2, (0.0, 0.01, -0.005)), 10, max_iter=5)
    assert [args[:2] for args in kernels] == [(2, 10)]
    assert kernels[0][2] is radial_rule(required_order(10))
    # the start metric's Gram data and dense density, then the iteration's
    # kernels; no step builds one
    assert s_parts == [10, 10, 10]


def test_fixed_grid_data_match_the_per_step_construction():
    # the T-step multiplies kernels built once per iteration; over 40 steps,
    # each from its own eta, it gives the defect and the centred log eta of the
    # logsumexp step that rebuilds the stratum terms from the points on every
    # call, and log eta = Hilb of the nodal FS(H) by the per-metric Gram route
    cases = [(n, k, 1e-13) for n in (1, 2, 3) for k in (10, 20, 60)] + [(1, 200, 5e-13)]
    for n, k, tol in cases:
        rule = radial_rule(required_order(k))
        kernels, scale = step_kernels(n, k, rule), _hilb_scale(n, k)
        log_eta = hilb_map(build_metric(RadialPotential(n, (0.0, 0.05, -0.03)), rule), k)
        moments = kernel_moments(kernels, -log_eta)
        for step in range(40):
            got, moments, defect = t_step(moments, kernels, scale)
            want, want_defect = logsumexp_t_step(n, log_eta, rule)
            assert abs(defect - want_defect) < tol, (n, k, step)
            centred = got - got.mean()
            assert np.abs(centred - (want - want.mean())).max() < tol, (n, k, step)
            if step % 10 == 0:
                hilb = hilb_map(nodal_fs_metric(n, log_eta, rule)[0], k)
                assert np.abs(got - hilb).max() < tol, (n, k, step)
            log_eta = got


def test_density_is_the_ratio_of_consecutive_stratum_sums():
    # (V/d_k) rho_FS(H) = P_H'/P_H with H' = Hilb(FS(H)): the ratio of the moments
    # that two consecutive steps form is the logsumexp step's density, pointwise
    for n in (1, 2, 3):
        for k in (10, 20, 60):
            rule = radial_rule(required_order(k))
            kernels, scale = step_kernels(n, k, rule), _hilb_scale(n, k)
            log_eta = hilb_map(build_metric(RadialPotential(n, (0.0, 0.05, -0.03)), rule), k)
            moments = kernel_moments(kernels, -log_eta)
            for step in range(10):
                got, next_moments, _ = t_step(moments, kernels, scale)
                ratio = (next_moments[0][rule.order:] / moments[0][rule.order:]
                         * math.exp(next_moments[1] - moments[1]))
                want = logsumexp_density(n, log_eta, rule)[1] * (class_volume(n) / dim_h0(n, k))
                assert ratio.shape == DENSE_GRID.shape
                assert np.abs(ratio - want).max() < 1e-13, (n, k, step)
                log_eta, moments = got, next_moments


def test_step_names_the_first_non_positive_point_of_f1_or_g(rule200):
    # a step checks the signs of Var_p[m] and E_p[m]; where one fails it raises
    # at the same s, value and sector as the check of F' and G themselves
    n, k = 2, 10
    kernels, scale = step_kernels(n, k, rule200), _hilb_scale(n, k)
    log_eta = hilb_map(build_metric(RadialPotential(n, (0.0, 0.05, -0.03)), rule200), k)
    S, top, mean, var = kernel_moments(kernels, -log_eta)
    s, inner = kernels.s, kernels.inner
    for bad_var, bad_mean in (((40, 700), ()), ((), (650,)), ((5,), (6,))):
        v, e = var.copy(), mean.copy()
        v[list(bad_var)] *= -1.0
        e[list(bad_mean)] *= -1.0
        with pytest.raises(NonPositiveMetric) as want:
            check_positive(s[inner], v[inner] / (k * s[inner] * (1.0 - s[inner])),
                           e[inner] / (k * s[inner]))
        with pytest.raises(NonPositiveMetric) as got:
            t_step((S, top, e, v), kernels, scale)
        assert str(got.value) == str(want.value)
        assert got.value.sector == ("radial" if bad_var else "spherical")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_trace_reads_the_distance_to_the_fs_orbit(n):
    # log eta of a pullback of FS by z -> lambda z is log eta_FS + a - t m; the
    # balanced limit lies on that orbit, with t read from the returned potential
    # as 11c reads it, and the start lies far off it
    k = 10
    rule = radial_rule(required_order(k))
    start = RadialPotential(n, (0.0, 0.01, -0.005))
    pot, trace = t_iteration(start, k, rule)
    t = math.log1p(build_metric(pot, rule).phi_stack[1](np.array([0.0]))[0])
    assert trace.converged and trace.orbit_residual <= 1e-8
    assert abs(trace.orbit_slope + t) <= 1e-6 * abs(t)
    with pytest.raises(NotConverged) as err:
        t_iteration(start, k, rule, max_iter=0)
    assert err.value.trace.orbit_residual > 5e-3
    fs_start = t_iteration(RadialPotential(n, (0.0,)), k, rule)[1]
    assert math.isnan(fs_start.orbit_residual) and math.isnan(fs_start.orbit_slope)


def test_orbit_fit_reads_fs_where_its_norms_leave_the_doubles():
    # at k = 1100 the norms J_m of FS spread about k log 2 and leave the doubles,
    # while a start of spread about 0.42 k still iterates: its trace places it
    # against Hilb(FS) as the per-metric logsumexp route reads it
    k = 1100
    rule = radial_rule(required_order(k))
    start = build_metric(RadialPotential(1, (0.0, -0.99, 0.99)), rule)
    with pytest.raises(NotConverged) as err:
        t_iteration(start.potential, k, rule, max_iter=0)
    gap = hilb_map(start, k) - hilb_map(fubini_study(1, rule), k)
    m = np.arange(k + 1) - k / 2
    slope = m @ gap / (m @ m)
    residual = np.abs(gap - gap.mean() - slope * m).max()
    assert residual > 100.0
    assert abs(err.value.trace.orbit_residual - residual) < 1e-12 * residual
    assert abs(err.value.trace.orbit_slope - slope) < 1e-12


def test_step_refuses_weights_beyond_the_kernel_range(rule200):
    # a synthetic eta whose weights spread past the bound: the smallest
    # product against the kernels would leave the doubles' range.  A step forms
    # its iterate's moments by kernel_moments, which refuses them
    n, k = 1, 10
    kernels = step_kernels(n, k, rule200)
    for spread, refused in ((590.0, False), (610.0, True)):
        # one middle degree at -spread: the shares stay near ks, so no variance cancels
        log_eta = np.where(np.arange(k + 1) == k // 2, spread, 0.0)
        if refused:
            with pytest.raises(SpreadTooLarge) as err:
                kernel_moments(kernels, -log_eta)
            assert err.value.spread == pytest.approx(spread) and err.value.bound == 600.0
        else:  # inside the bound the sum keeps its digits
            S, top = kernel_moments(kernels, -log_eta)[:2]
            log_P = np.log(S) + kernels.shift + top
            want = log_stratum_sum(n, k, -log_eta, kernels.s)
            assert np.abs(log_P - want).max() < 1e-13 * np.abs(want).max()


def test_step_refuses_shares_whose_variance_cancels(rule200):
    # FS pulled back by z -> lambda z has log eta linear in m; far from FS the
    # shares sit so far from ks that E[(m-ks)^2] - E[m-ks]^2 loses its digits
    # (5e-10 relative at a spread of 100), and at 590 F' reads 0 on a positive metric.
    # A step forms its iterate's moments by kernel_moments, which refuses them
    n, k = 1, 10
    kernels, scale = step_kernels(n, k, rule200), _hilb_scale(n, k)
    for spread in (100.0, 590.0):
        with pytest.raises(SpreadTooLarge) as err:
            kernel_moments(kernels, -np.linspace(0.0, spread, k + 1))
        assert err.value.spread > 1e4 and err.value.bound == 1e4, spread
    # a spread of 20 keeps Var_p[m] to 1.2e-13 and passes
    moments = kernel_moments(kernels, -np.linspace(0.0, 20.0, k + 1))
    assert np.isfinite(t_step(moments, kernels, scale)[0]).all()


def test_t_step_iterates_to_the_iteration_defects():
    # t_iteration is t_step iterated from Hilb of the start: the same defects, bit for bit
    for n in (1, 2, 3):
        for k in (10, 20):
            start = RadialPotential(n, (0.0, 0.01, -0.005))
            rule = radial_rule(required_order(k))
            kernels = step_kernels(n, k, rule)
            metric = build_metric(start, rule)
            defects = [balance_defect(metric, k)]
            moments = kernel_moments(kernels, -hilb_map(metric, k))
            for _ in range(12):
                _, moments, defect = t_step(moments, kernels, _hilb_scale(n, k))
                defects.append(defect)
            with pytest.raises(NotConverged) as err:
                t_iteration(start, k, rule, max_iter=12)
            assert err.value.trace.defects == tuple(defects), (n, k)


def test_t_step_is_hilb_of_the_nodal_fs_metric(rng):
    # Hilb of the nodal FS(H), both with log J_m from the node block of the
    # iteration's kernel and by the per-metric logsumexp route, within 1e-13
    for n in (1, 2, 3):
        for k in (10, 20):
            rule = radial_rule(required_order(k))
            kernels = step_kernels(n, k, rule)
            scale = _hilb_scale(n, k)
            log_eta = hilb_map(random_metric(rng, n, rule), k)
            nodal, _ = nodal_fs_metric(n, log_eta, rule)
            got = t_step(kernel_moments(kernels, -log_eta), kernels, scale)[0]
            factor = np.exp(radial_log_node(nodal, k) + kernels.shift[:rule.order])
            on_kernels = kernel_log_J(kernels, factor) + scale
            want = hilb_map(nodal, k)
            assert got.shape == on_kernels.shape == want.shape == (k + 1,)
            assert np.abs(got - on_kernels).max() < 1e-13, (n, k)
            assert np.abs(got - want).max() < 1e-13, (n, k)


def _hilb_of_fs_reference(n, k, log_eta, rule):
    """log eta of Hilb(FS(H)) on the nodes of ``rule`` in 40-digit mpmath:
    log J_m + log(d_k n!), J_m the sum over the nodes of
    w s^m (1-s)^(k-m) (E_p[m]/k)^(n-1) Var_p[m]/(k s(1-s))/P."""
    with mpmath.workdps(40):
        basis, factors = [], []
        for s, w in zip(rule.nodes.tolist(), rule.weights.tolist()):
            s = mpmath.mpf(s)
            powers = [s**m * (1 - s) ** (k - m) for m in range(k + 1)]
            terms = [math.factorial(n - 1 + m) // math.factorial(m)
                     * mpmath.exp(-mpmath.mpf(float(log_eta[m]))) * p for m, p in enumerate(powers)]
            P = mpmath.fsum(terms)
            mean = mpmath.fsum(m * term for m, term in enumerate(terms)) / P
            var = mpmath.fsum((m - mean) ** 2 * term for m, term in enumerate(terms)) / P
            factors.append(w * (mean / k) ** (n - 1) * var / (k * s * (1 - s)) / P)
            basis.append(powers)
        scale = mpmath.log(dim_h0(n, k) * math.factorial(n))
        return np.array([float(mpmath.log(mpmath.fsum(f * p[m] for f, p in zip(factors, basis)))
                               + scale) for m in range(k + 1)])


def test_t_step_is_hilb_of_fs_to_roundoff(rng):
    # the step's one product of the kernel's node block with the linear-space
    # factor, against Hilb(FS(H)) summed in 40 digits on the same nodes
    for n in (1, 2, 3):
        for k in (10, 20):
            rule = radial_rule(required_order(k))
            kernels = step_kernels(n, k, rule)
            log_eta = hilb_map(random_metric(rng, n, rule), k)
            got = t_step(kernel_moments(kernels, -log_eta), kernels, _hilb_scale(n, k))[0]
            want = _hilb_of_fs_reference(n, k, log_eta, rule)
            assert np.abs(got - want).max() < 1e-14, (n, k)


def test_iteration_rejects_start_above_degree_bound():
    # the degree-13 start is refused where it is built, before any iteration
    with pytest.raises(ValueError, match="exceeds bound"):
        t_iteration(RadialPotential(1, (0.0,) * 13 + (1e-3,)), 10, max_iter=1)


def test_level_action_vanishes_at_reference(rule200):
    assert abs(liouville_approx_SLk(RadialPotential(1, (0.0,)), 30, rule200)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_action_route_consistency(rule200, n):
    pot = RadialPotential(n, (0.0, 0.1, -0.04))
    for k in (20, 60):
        a = liouville_approx_SLk(pot, k, rule200, route="identity")
        b = liouville_approx_SLk(pot, k, rule200, route="raw")
        assert abs(a - b) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_action_is_blind_to_the_potential_constant(rule200, n):
    # the S_0 normalization enters as -k d_k S_0: log Z_k, FS_k(Hilb_k) and
    # S_0 move with the constant so that the action does not
    pot = RadialPotential(n, (0.0, 0.1, -0.04))
    for k in (20, 60):
        for route in ("identity", "raw"):
            a = liouville_approx_SLk(pot, k, rule200, route=route)
            b = liouville_approx_SLk(shifted_potential(pot, 0.37), k, rule200, route=route)
            assert abs(a - b) <= 1e-9, (k, route)


def _count_metric_builds(monkeypatch):
    from artifact import balanced

    return _count_calls_in_step(
        monkeypatch, ((balanced, "build_metric"), (balanced, "fubini_study")))


def test_level_action_builds_three_metrics(rule200, monkeypatch):
    # phi and Fubini-Study once each, then FS_k(Hilb_k(phi)); the
    # normalization builds no second metric of phi
    calls = _count_metric_builds(monkeypatch)
    for route in ("identity", "raw"):
        calls.clear()
        liouville_approx_SLk(RadialPotential(2, (0.0, 0.1, -0.04)), 20, rule200, route=route)
        assert [name for name, _ in calls] == ["build_metric", "fubini_study", "build_metric"]


def test_level_action_builds_one_s_part_per_gram_pair(monkeypatch):
    # both routes read phi's and Fubini-Study's Gram data off one s-part; the
    # other is the stratum sum that FS_k(Hilb_k(phi)) is fitted from
    from artifact import balanced, bergman

    calls = _count_calls_in_step(
        monkeypatch, ((bergman, "stratum_s_part"), (balanced, "stratum_s_part")))
    for route in ("identity", "raw"):
        calls.clear()
        liouville_approx_SLk(RadialPotential(1, (0.0, 0.1, -0.04)), 20, route=route)
        assert len(calls) == 2, route


def test_level_action_rejects_an_unknown_route_before_building(rule200, monkeypatch):
    calls = _count_metric_builds(monkeypatch)
    with pytest.raises(ValueError, match="unknown route"):
        liouville_approx_SLk(RadialPotential(1, (0.0, 0.1)), 20, rule200, route="bogus")
    assert calls == []


def test_level_action_rejects_level_zero_before_building(monkeypatch):
    calls = _count_metric_builds(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="level k must be at least 1"):
            liouville_approx_SLk(RadialPotential(1, (0.0, 0.01)), 0)
    assert calls == []


def test_balance_defect_gauge_invariance(fs_metric):
    k = 15
    rule = radial_rule(required_order(k))
    m = build_metric(RadialPotential(1, (0.0, 0.03)), rule)
    log_eta = hilb_map(m, k)
    a = build_metric(fs_map_profile(1, log_eta), rule)
    b = build_metric(fs_map_profile(1, log_eta + math.log(5.0)), rule)
    assert abs(balance_defect(a, k) - balance_defect(b, k)) < 1e-10
