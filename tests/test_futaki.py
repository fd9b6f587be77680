import numpy as np
import pytest

from artifact import (
    RadialPotential,
    build_metric,
    covariant_endomorphism,
    hamiltonian_potential,
    invariant_lhs,
    invariant_rhs,
    lu_lemma_defect,
    metric_independence,
    tilde_S_bc,
    tilde_S_path,
)
from artifact.futaki import flow_pairing_spread

from conftest import count_profile_calls, random_metric


def test_metric_independence_needs_a_metric():
    with pytest.raises(ValueError, match="need at least one metric"):
        metric_independence(1, [])


def test_rotation_hamiltonian_on_fs_cp1(fs_metric):
    m = fs_metric(1)
    data = hamiltonian_potential(m)
    # closed form: the imaginary part is 1/2 - s
    assert np.abs(data.theta.values - (0.5 - m.rule.nodes)).max() < 1e-13
    assert data.normalization_defect < 1e-12


def test_hamiltonian_residuals_on_random_metrics(rng, rule200):
    for n in (1, 2, 3):
        m = random_metric(rng, n, rule200)
        data = hamiltonian_potential(m)
        assert data.normalization_defect < 1e-10


def test_endomorphism_fs_closed_form(fs_metric):
    s = np.linspace(0.0, 1.0, 11)
    rad, sph = covariant_endomorphism(fs_metric(1), s)
    assert np.abs(rad - (1.0 - 2.0 * s)).max() < 1e-12
    assert np.abs(sph - (1.0 - s)).max() < 1e-12


def test_endomorphism_finite_at_strata(rng, rule200):
    m = random_metric(rng, 2, rule200)
    rad, sph = covariant_endomorphism(m, np.array([0.0, 1.0]))
    assert np.all(np.isfinite(rad)) and np.all(np.isfinite(sph))


def test_trace_identity_residual(rng, rule200):
    assert lu_lemma_defect(build_metric(RadialPotential(1, (0.0,)), rule200)) < 1e-10
    for n in (1, 2):
        assert lu_lemma_defect(random_metric(rng, n, rule200)) < 1e-8


def test_trace_identity_reads_the_nodes_and_fits_nothing(rng, rule200, monkeypatch):
    metrics = [random_metric(rng, n, rule200) for n in (1, 2, 3)]
    calls = count_profile_calls(monkeypatch, "from_callable", "deriv", "__call__")
    for m in metrics:
        assert lu_lemma_defect(m) < 1e-14  # Tr(nabla X) - Delta F is constant to roundoff
    assert calls == []


def test_localization_identity_and_vanishing(rng, rule200):
    for n in (1, 2):
        for m in (build_metric(RadialPotential(n, (0.0,)), rule200),
                  random_metric(rng, n, rule200)):
            for j in (0, 1, 2):
                data = hamiltonian_potential(m)
                lhs, rhs = invariant_lhs(m, data, j), invariant_rhs(m, data, j)
                assert abs(lhs - rhs) < 1e-9
                assert abs(lhs) < 1e-9 and abs(rhs) < 1e-9


def test_metric_independence_spread(rng, rule200):
    for n, j in ((1, 1), (2, 2)):
        metrics = [random_metric(rng, n, rule200) for _ in range(5)]
        assert metric_independence(j, metrics) < 1e-9
    single = [random_metric(rng, 1, rule200)]
    assert metric_independence(1, single) == 0.0


def test_pairing_is_constant_along_rotation_flow(rng, rule200):
    m = random_metric(rng, 1, rule200, scale=0.08)
    for j in (0, 1, 2):
        assert flow_pairing_spread(m, j) < 1e-6


@pytest.mark.parametrize("j", [3, -1])
@pytest.mark.parametrize("name", ["tilde_S_path", "tilde_S_bc", "invariant_lhs", "invariant_rhs"])
def test_orders_past_the_supported_ones_are_refused(fs_metric, name, j):
    m = fs_metric(1)
    call = {"tilde_S_path": lambda: tilde_S_path(m, m, j),
            "tilde_S_bc": lambda: tilde_S_bc(m, m, j),
            "invariant_lhs": lambda: invariant_lhs(m, hamiltonian_potential(m), j),
            "invariant_rhs": lambda: invariant_rhs(m, hamiltonian_potential(m), j)}[name]
    with pytest.raises(ValueError, match=f"j must be 0, 1, or 2, got {j}"):
        call()
