import hashlib
import json
import os
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from artifact import ExperimentConfig, geometry, run_experiment, run_fit, verify_suite
from artifact.cli import main as cli_main
from artifact.errors import ConfigError
from artifact.harness import TOLERANCE_PROFILES
from artifact.quadrature import TWO_PI

from conftest import corrupted_coefficient


def test_config_validation_messages():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(kind="spectra")
    assert "kind" in str(err.value)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="bergman", n=5, k_min=1, k_max=10)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="bergman", k_min=10, k_max=2)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"kind": "partition", "k_min": 1, "k_max": 50,
                                    "quadrature_order": 40})
    assert "quadrature_order" in str(err.value)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "bergman", "k_min": 1, "k_max": 5,
                                    "mystery_knob": 3})
    # a potential is given by n and potential_coeffs alone
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"kind": "bergman", "k_min": 1, "k_max": 5, "potential":
                                    {"n": 1, "basis": "s-poly", "coeffs": ["0.0", "0.1"]}})
    assert err.value.field_path == "potential"
    for field, value in (("k_stride", 0), ("tol_profile", "bogus")):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="bergman", k_min=1, k_max=5, **{field: value})
        assert err.value.field_path == field


def test_bergman_run_reproduces_fs_reference(tmp_path):
    config = ExperimentConfig(kind="bergman", n=1, k_min=2, k_max=50, k_stride=6,
                              out_dir=str(tmp_path / "a"))
    manifest = run_experiment(config)
    assert manifest.status == "ok"
    rows = (tmp_path / "a" / "bergman.csv").read_text().strip().splitlines()
    assert rows[0].split(",")[0] == "k"
    for line in rows[1:]:
        k, lo, hi, defect = line.split(",")
        assert abs(float(lo) - (int(k) + 1)) < 1e-9
        assert abs(float(hi) - (int(k) + 1)) < 1e-9
        assert abs(float(defect)) < 1e-9


def test_runs_are_deterministic_and_manifested(tmp_path):
    kwargs = dict(kind="partition", n=1, potential_coeffs=(0.0, 0.1),
                  k_min=5, k_max=45, k_stride=5)
    m1 = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "r1"), **kwargs))
    m2 = run_experiment(ExperimentConfig(out_dir=str(tmp_path / "r2"), **kwargs))
    b1 = (tmp_path / "r1" / "partition.csv").read_bytes()
    b2 = (tmp_path / "r2" / "partition.csv").read_bytes()
    assert b1 == b2
    # manifest checksums match the files on disk
    manifest = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    for name, digest in manifest["files"].items():
        data = (tmp_path / "r1" / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    # every non-manifest artifact in the directory is listed
    extras = {f for f in os.listdir(tmp_path / "r1") if f != "manifest.json"}
    assert extras == set(manifest["files"])


def test_manifests_do_not_depend_on_the_output_path(tmp_path):
    # one config written to two directories whose paths differ in length
    kwargs = dict(kind="partition", n=1, potential_coeffs=(0.0, 0.1), k_min=5, k_max=15)
    texts = []
    for name in ("a", "a-much-longer-directory-name"):
        run_experiment(ExperimentConfig(out_dir=str(tmp_path / name), **kwargs))
        text = (tmp_path / name / "manifest.json").read_text()
        texts.append(re.sub(r'"(started|finished)": "[^"]*"', r'"\1": ""', text))
    assert texts[0] == texts[1]


def test_csv_values_keep_full_precision(tmp_path):
    config = ExperimentConfig(kind="partition", n=1, potential_coeffs=(0.0, 1.0 / 3.0),
                              k_min=10, k_max=20, k_stride=10,
                              out_dir=str(tmp_path / "p"))
    run_experiment(config)
    from artifact import build_metric, RadialPotential, radial_rule
    from artifact.bergman import log_partition_ratio

    rule = radial_rule(config.order)
    m = build_metric(config.potential(), rule)
    base = build_metric(RadialPotential(1, (0.0,)), rule)
    lines = (tmp_path / "p" / "partition.csv").read_text().strip().splitlines()
    k, ratio, _ = lines[1].split(",")
    want = log_partition_ratio(m, base, int(k))
    assert float(ratio) == pytest.approx(want, abs=0.0, rel=1e-15)


def test_verify_suite_passes_both_profiles():
    for profile in TOLERANCE_PROFILES:
        report = verify_suite(profile)
        assert report.passed, [c.name for c in report.checks if not c.passed]


def test_verify_suite_detects_corrupted_constant(monkeypatch):
    from artifact import functionals

    monkeypatch.setattr(functionals, "coefficient_split", corrupted_coefficient(0.05))
    report = verify_suite("default")
    failed = {c.name for c in report.checks if not c.passed}
    assert "route-equality" in failed
    assert "futaki-lhs-rhs" in failed


def test_verify_suite_covers_every_dimension(monkeypatch):
    original = geometry.build_metric
    seen = set()

    def recording(potential, rule):
        seen.add(potential.n)
        return original(potential, rule)

    for name, module in list(sys.modules.items()):
        if name.startswith("artifact") and getattr(module, "build_metric", None) is original:
            monkeypatch.setattr(module, "build_metric", recording)
    verify_suite("default")
    assert seen == {1, 2, 3}


def test_fit_run_matches_functionals(tmp_path):
    config = ExperimentConfig(kind="partition", n=1, potential_coeffs=(0.0, 0.1),
                              k_min=40, k_max=240, k_stride=8)
    result, s_vals = run_fit(config)
    assert abs(result.coefficients[0] - s_vals[1]) < 1e-4 * abs(s_vals[1])
    assert abs(result.coefficients[1] - s_vals[2]) < 1e-3 * abs(s_vals[2])


FIT_RUN = dict(kind="partition", n=1, potential_coeffs=(0.0, 0.1, -0.05),
               k_min=20, k_max=60, k_stride=8)


def count_calls(monkeypatch, name):
    """Log the arguments of every call of the bergman function ``name``,
    wherever an artifact module binds it."""
    from artifact import bergman

    calls, original = [], getattr(bergman, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("artifact") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def fit_bits(fit):
    result, s_vals = fit
    return (result.coefficients, result.k_values.tobytes(), result.residuals.tobytes(),
            result.condition, s_vals)


def test_fit_reads_the_partition_run(tmp_path, monkeypatch):
    (tmp_path / "empty").mkdir()
    swept = fit_bits(run_fit(ExperimentConfig(out_dir=str(tmp_path / "empty"), **FIT_RUN)))
    config = ExperimentConfig(out_dir=str(tmp_path / "run"), **FIT_RUN)
    run_experiment(config)
    grams, ratios = count_calls(monkeypatch, "gram"), count_calls(monkeypatch, "log_partition_ratio")
    assert fit_bits(run_fit(config)) == swept
    assert grams == [] and ratios == []


def _edit_manifest(edit):
    def spoil(run):
        manifest = json.loads((run / "manifest.json").read_text())
        edit(manifest)
        (run / "manifest.json").write_text(json.dumps(manifest))

    return spoil


def _edit_partition_csv(run):
    path = run / "partition.csv"
    header, first, *rest = path.read_text().splitlines()
    k, ratio, scaled = first.split(",")
    edited = f"{k},{ratio},{float(scaled) * (1.0 + 1e-9)!r}"
    path.write_text("\n".join([header, edited, *rest]) + "\n")


@pytest.mark.parametrize("spoil", [
    _edit_manifest(lambda manifest: manifest["config"].update(k_stride=4)),
    _edit_manifest(lambda manifest: manifest.update(version="0.0.0")),
    _edit_manifest(lambda manifest: manifest.update(status="verification-failed")),
    _edit_partition_csv,
    lambda run: (run / "manifest.json").unlink(),
], ids=["config", "version", "status", "edited-csv", "no-manifest"])
def test_fit_sweeps_again_unless_the_run_matches(tmp_path, monkeypatch, spoil):
    (tmp_path / "empty").mkdir()
    swept = fit_bits(run_fit(ExperimentConfig(out_dir=str(tmp_path / "empty"), **FIT_RUN)))
    config = ExperimentConfig(out_dir=str(tmp_path / "run"), **FIT_RUN)
    run_experiment(config)
    spoil(tmp_path / "run")
    ratios = count_calls(monkeypatch, "log_partition_ratio")
    assert fit_bits(run_fit(config)) == swept
    assert [k for _, _, k in ratios] == config.k_values[::-1]


def test_windows_run_largest_k_first_and_write_ascending_rows(tmp_path, monkeypatch):
    # rows are ascending in k and bit-equal to per-k calls made in ascending
    # order on fresh metrics
    from artifact import bergman_density, build_metric, log_partition_ratio, radial_rule
    from artifact.geometry import fubini_study
    from artifact.harness import write_csv

    for kind, n, k_min, k_max, k_stride in (("partition", 1, 20, 60, 8), ("bergman", 2, 4, 24, 5)):
        config = ExperimentConfig(kind=kind, n=n, potential_coeffs=(0.0, 0.1, -0.05),
                                  k_min=k_min, k_max=k_max, k_stride=k_stride,
                                  out_dir=str(tmp_path / kind))
        calls = count_calls(monkeypatch, "log_partition_ratio" if kind == "partition"
                            else "bergman_density")
        run_experiment(config)
        monkeypatch.undo()
        assert [args[-1] for args in calls] == config.k_values[::-1]
        rule = radial_rule(config.order)
        metric, base = build_metric(config.potential(), rule), fubini_study(n, rule)
        rows = []
        for k in config.k_values:
            if kind == "partition":
                ratio = log_partition_ratio(metric, base, k)
                rows.append((k, ratio, TWO_PI**n * ratio))
            else:
                dens = bergman_density(metric, k)
                rows.append((k, TWO_PI**n * dens.min_value, TWO_PI**n * dens.max_value,
                             dens.integral_defect))
        text = (tmp_path / kind / f"{kind}.csv").read_text()
        write_csv(str(tmp_path / f"{kind}-ascending.csv"), text.splitlines()[0].split(","), rows)
        assert (tmp_path / f"{kind}-ascending.csv").read_text() == text


def test_cli_fit_reuses_the_partition_run(tmp_path, capsys, monkeypatch):
    window = ["--n", "1", "--k-min", "20", "--k-max", "60", "--k-stride", "8"]
    (tmp_path / "empty").mkdir()
    assert cli_main(["fit", *window, "--out", str(tmp_path / "empty")]) == 0
    swept = capsys.readouterr().out
    out = str(tmp_path / "run")
    assert cli_main(["partition", *window, "--out", out]) == 0
    capsys.readouterr()
    ratios = count_calls(monkeypatch, "log_partition_ratio")
    assert cli_main(["fit", *window, "--out", out]) == 0
    assert capsys.readouterr().out == swept
    assert ratios == []


def test_cli_round_trip(tmp_path):
    out = tmp_path / "cli"
    code = cli_main(["bergman", "--n", "1", "--k-min", "2", "--k-max", "30",
                     "--k-stride", "4", "--out", str(out)])
    assert code == 0
    assert (out / "bergman.csv").exists() and (out / "manifest.json").exists()


def test_cli_run_that_cannot_write_exits_two(tmp_path, capfd):
    # the output directory would sit under a regular file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert cli_main(["partition", "--k-min", "1", "--k-max", "2",
                     "--out", str(blocker / "x")]) == 2
    assert capfd.readouterr().err.startswith("i/o error: ")


def test_cli_verify_manifest_has_no_k_window(tmp_path):
    # verify reads no k window, so the CLI fills none
    out = tmp_path / "verify"
    assert cli_main(["verify", "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert (config["kind"], config["k_max"]) == ("verify", 0)


def test_cli_reads_potential_files(tmp_path):
    pot = tmp_path / "pot.json"
    pot.write_text('{"n": 1, "basis": "s-poly", "coeffs": ["0.0", "0.1"]}')
    out = tmp_path / "fun"
    code = cli_main(["functionals", "--potential", str(pot), "--out", str(out)])
    assert code == 0
    lines = (out / "functionals.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + j = 0, 1, 2


@pytest.mark.filterwarnings("error")
def test_cli_run_of_an_overflowing_potential_leaves_one_line_and_no_directory(tmp_path, capfd):
    # the metric is built and checked before the run directory is made
    pot = tmp_path / "pot.json"
    pot.write_text('{"n": 1, "basis": "s-poly", "coeffs": ["0", "1e308", "1e308"]}')
    out = tmp_path / "o"
    assert cli_main(["functionals", "--potential", str(pot), "--out", str(out)]) == 2
    assert not out.exists()
    assert capfd.readouterr().err.splitlines() == [
        "numerical error: metric not positive: radial eigenvalue inf at s=0.000036"]


SMOKE_POTENTIAL = '{"n": 1, "basis": "s-poly", "coeffs": ["0.0", "0.01", "-0.005"]}'


def _read_rows(path):
    header, *lines = path.read_text().strip().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_cli_futaki_run_meets_its_tolerance(tmp_path):
    pot = tmp_path / "pot.json"
    pot.write_text(SMOKE_POTENTIAL)
    out = tmp_path / "futaki"
    assert cli_main(["futaki", "--potential", str(pot), "--out", str(out)]) == 0
    rows = _read_rows(out / "futaki.csv")
    assert [row["j"] for row in rows] == ["0", "1", "2"]
    for row in rows:
        assert float(row["defect"]) <= TOLERANCE_PROFILES["default"]["futaki"]


def test_cli_balanced_run_converges(tmp_path):
    pot = tmp_path / "pot.json"
    pot.write_text(SMOKE_POTENTIAL)
    out = tmp_path / "balanced"
    code = cli_main(["balanced", "--potential", str(pot), "--k-min", "4", "--k-max", "8",
                     "--k-stride", "2", "--out", str(out)])
    assert code == 0
    rows = _read_rows(out / "balanced.csv")
    assert [row["k"] for row in rows] == ["4", "6", "8"]
    for row in rows:
        assert row["converged"] == "True"
        assert float(row["final_defect"]) <= 1e-10
        assert 0.0 < float(row["contraction_rate"]) < 1.0
        assert float(row["orbit_residual"]) <= 1e-8  # the limit lies on the orbit of FS
    # at one point of it for every k: the slopes read -0.0050050 to 2e-7 relative
    slopes = [float(row["orbit_slope"]) for row in rows]
    assert max(slopes) < 0.0 and max(slopes) - min(slopes) <= 1e-5 * abs(slopes[0])


def test_cli_balanced_run_converges_off_the_polynomials(tmp_path):
    # the balanced potential of (0, 0.3) is no polynomial in s, and the run still succeeds
    pot = tmp_path / "pot.json"
    pot.write_text('{"n": 1, "basis": "s-poly", "coeffs": ["0.0", "0.3"]}')
    out = tmp_path / "balanced"
    assert cli_main(["balanced", "--potential", str(pot), "--k-min", "10", "--k-max", "10",
                     "--out", str(out)]) == 0
    (row,) = _read_rows(out / "balanced.csv")
    assert row["converged"] == "True" and float(row["final_defect"]) <= 1e-10


def test_cli_fit_reads_config_file(tmp_path, monkeypatch):
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({"n": 2, "k_min": 20, "k_max": 40, "k_stride": 4}))
    seen = []

    def fake_run_fit(config):
        seen.append(config)
        result = SimpleNamespace(coefficients=[0.0], condition=1.0, residuals=[0.0])
        return result, {0: 0.0}

    monkeypatch.setattr("artifact.cli.run_fit", fake_run_fit)
    assert cli_main(["fit", "--config", str(cfg)]) == 0
    (config,) = seen
    assert config.n == 2
    assert config.k_values == [20, 24, 28, 32, 36, 40]


def test_cli_fit_rejects_too_few_k_values(capsys):
    code = cli_main(["fit", "--n", "2", "--k-min", "20", "--k-max", "40", "--k-stride", "4"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_rejects_bad_configuration(tmp_path, capsys):
    code = cli_main(["bergman", "--n", "7", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, text", [
    ("functionals", "--potential", '{"n": 1, "basis": "cheb", "coeffs": ["0.0"]}'),
    ("functionals", "--potential", '{"basis": "s-poly", "coeffs": ["0.0", "0.1"]}'),
    ("fit", "--config", '{"n": 2, "k_min": 20, "k_'),
    # potentials that cannot be built: past the degree bound, or not finite
    ("partition", "--potential",
     json.dumps({"n": 1, "basis": "s-poly", "coeffs": ["0.0"] * 13 + ["1e-3"]})),
    ("functionals", "--potential", '{"n": 1, "basis": "s-poly", "coeffs": ["0.0", "nan"]}'),
    ("futaki", "--potential", '{"n": 1, "basis": "s-poly", "coeffs": ["0.0", "inf"]}'),
    ("functionals", "--config", '{"n": 1, "potential_coeffs": ["0.0", "nan"]}'),
    ("futaki", "--config", '{"n": 1, "potential_coeffs": ["0.0", "-inf"]}'),
], ids=["unknown-basis", "missing-n", "truncated-config", "degree-13-file", "nan-file",
        "inf-file", "nan-config", "inf-config"])
def test_cli_reports_malformed_input_files(tmp_path, capsys, command, flag, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    code = cli_main([command, flag, str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
