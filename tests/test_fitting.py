import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from artifact import RadialPotential, build_metric, dim_h0, fit_expansion, radial_rule
from artifact.bergman import log_partition_ratio
from artifact.errors import IllConditioned
from artifact.quadrature import TWO_PI


def test_synthetic_model_is_recovered_exactly():
    fit = fit_expansion([(k, 3.0 * k + 5.0 + 7.0 / k) for k in range(10, 30)], 1, 2)
    assert np.abs(np.array(fit.coefficients) - (3.0, 5.0, 7.0)).max() < 1e-10
    assert np.abs(fit.residuals).max() < 1e-10


def test_known_terms_are_subtracted_exactly():
    # constant-potential sweep: after removing the exact leading term the
    # remaining fitted coefficients must vanish
    c = 0.45
    rule = radial_rule(250)
    m = build_metric(RadialPotential(1, (c,)), rule)
    base = build_metric(RadialPotential(1, (0.0,)), rule)
    ks = range(20, 100, 8)
    samples = [(k, TWO_PI * log_partition_ratio(m, base, k)) for k in ks]
    fit = fit_expansion(samples, 1, 2, known_terms=lambda k: -k * dim_h0(1, int(k)) * TWO_PI * c)
    assert max(abs(v) for v in fit.coefficients) < 1e-9


def test_sample_count_floor():
    with pytest.raises(ValueError):
        fit_expansion([(k, float(k)) for k in range(4)], 1, 2)


def test_duplicate_abscissae_rejected():
    samples = [(10, 1.0), (10, 1.1), (12, 1.2), (14, 1.3), (16, 1.4), (18, 1.5)]
    with pytest.raises(ValueError):
        fit_expansion(samples, 1, 2)


def test_narrow_window_reports_conditioning():
    samples = [(1000 + i, float(i)) for i in range(9)]
    with pytest.raises(IllConditioned):
        fit_expansion(samples, 2, 6)


def test_condition_is_reported():
    fit = fit_expansion([(k, float(k)) for k in range(10, 40, 3)], 1, 1)
    assert fit.condition >= 1.0


def test_fit_does_not_import_numpy_ma():
    # the first np.unique of a process imports numpy.ma, 10 to 34 ms
    code = ("import sys, artifact\n"
            "artifact.fit_expansion([(k, 3.0 * k + 1.0 / k) for k in range(10, 20)], 1, 2)\n"
            "assert 'numpy.ma' not in sys.modules\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
