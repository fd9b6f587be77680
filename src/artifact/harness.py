"""Experiment orchestration, persistence, and the verification suite.

Every run writes a directory containing numeric CSV files plus a JSON
manifest listing each emitted file with its sha256 checksum.  Numeric
output is deterministic for a fixed configuration: timestamps live only
in the manifest, all decimals are printed with 17 significant digits,
and files are written atomically (temp file, then rename).
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .balanced import t_iteration
from .bergman import bergman_density, dim_h0, gram, log_partition_ratio
from .errors import ConfigError, NotConverged, ResolutionTooLow
from .fitting import fit_expansion
from .forms import hessian_form, ricci_form
from .functionals import (
    S_j,
    cocycle_defect,
    first_variation,
    tilde_S_bc,
    tilde_S_path,
    trace_identity_defects,
)
from .futaki import hamiltonian_potential, invariant_lhs, invariant_rhs, lu_lemma_defect
from .geometry import (
    DIMENSIONS,
    ORDERS,
    RadialPotential,
    ScalarField,
    build_metric,
    coefficient_average,
    fubini_study,
)
from .quadrature import TWO_PI, radial_rule, required_order

KINDS = ("bergman", "partition", "functionals", "futaki", "balanced", "verify")

TOLERANCE_PROFILES = {
    "default": {
        "density": 1e-9,
        "partition_shift": 1e-10,
        "riemann_roch": 1e-8,
        "route_equality": 1e-6,
        "cocycle": 1e-7,
        "futaki": 1e-7,
        "first_variation": 1e-6,
        "lu_lemma": 1e-8,
        "trace_identity": 1e-10,
    },
    "strict": {
        "density": 1e-10,
        "partition_shift": 1e-12,
        "riemann_roch": 1e-9,
        "route_equality": 1e-9,
        "cocycle": 1e-9,
        "futaki": 1e-9,
        "first_variation": 1e-7,
        "lu_lemma": 1e-9,
        "trace_identity": 1e-12,
    },
}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: int = 1
    potential_coeffs: tuple = (0.0,)
    k_min: int = 0
    k_max: int = 0
    k_stride: int = 1
    tol_profile: str = "default"
    out_dir: str = "runs"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError("kind", f"must be one of {KINDS}, got {self.kind!r}")
        if self.n not in DIMENSIONS:
            raise ConfigError("n", f"must be 1..3, got {self.n}")
        if self.tol_profile not in TOLERANCE_PROFILES:
            raise ConfigError(
                "tol_profile",
                f"must be one of {tuple(TOLERANCE_PROFILES)}, got {self.tol_profile!r}",
            )
        if self.k_stride < 1:
            raise ConfigError("k_stride", f"must be >= 1, got {self.k_stride}")
        if self.kind in ("bergman", "partition", "balanced"):
            if self.k_min < 1 or self.k_max < self.k_min:
                raise ConfigError("k_min/k_max", "need 1 <= k_min <= k_max")
        object.__setattr__(
            self, "potential_coeffs", tuple(float(c) for c in self.potential_coeffs)
        )

    @property
    def k_values(self):
        return list(range(self.k_min, self.k_max + 1, self.k_stride))

    @property
    def order(self) -> int:
        return max(required_order(self.k_max), 200)

    def potential(self) -> RadialPotential:
        return RadialPotential(self.n, self.potential_coeffs)

    def to_dict(self) -> dict:
        """Every field but ``out_dir``: a manifest does not depend on where it is written."""
        d = dataclasses.asdict(self)
        del d["out_dir"]
        d["potential_coeffs"] = [repr(c) for c in self.potential_coeffs]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ConfigError(",".join(sorted(extra)), "unknown config fields")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            raise ConfigError("<config>", str(exc)) from exc


# ---------------------------------------------------------------------------
# persistence


@dataclass
class RunManifest:
    config: dict
    version: str
    started: str
    finished: str = ""
    files: dict = field(default_factory=dict)  # name -> sha256
    status: str = "ok"

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path: str, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# experiment bodies


# A k-window runs largest k first and writes its rows in ascending k.  The
# per-k (k+1) x nodes arrays then shrink from k to k and reuse the heap;
# ascending, each outgrew the last and was mapped and faulted in afresh
# (9.0k minor faults per seed-1 sweep pass against 1.4k largest first).
def _bergman_rows(config, metric):
    scale = TWO_PI**metric.n
    dens = {k: bergman_density(metric, k) for k in reversed(config.k_values)}
    rows = [(k, scale * dens[k].min_value, scale * dens[k].max_value, dens[k].integral_defect)
            for k in config.k_values]
    return ["k", "scaled_rho_min", "scaled_rho_max", "integral_defect"], rows


def _partition_rows(config, metric, base):
    ratios = {k: log_partition_ratio(metric, base, k) for k in reversed(config.k_values)}
    rows = [(k, ratios[k], TWO_PI**metric.n * ratios[k]) for k in config.k_values]
    return ["k", "log_ratio", "scaled_log_ratio"], rows


def _functionals_rows(config, metric, base):
    rows = []
    for j in ORDERS:
        path = tilde_S_path(metric, base, j).value
        bc = tilde_S_bc(metric, base, j).value
        sj = S_j(metric, base, j).value
        rows.append((j, path, bc, abs(path - bc), sj))
    return ["j", "tilde_path", "tilde_bott_chern", "route_defect", "S_j"], rows


def _futaki_rows(config, metric):
    data = hamiltonian_potential(metric)
    rows = []
    for j in ORDERS:
        lhs = invariant_lhs(metric, data, j)
        rhs = invariant_rhs(metric, data, j)
        rows.append((j, lhs, rhs, abs(lhs - rhs)))
    return ["j", "lhs", "rhs", "defect"], rows


def _balanced_rows(config, rule):
    rows = []
    pot = config.potential()
    for k in config.k_values:
        try:
            _, trace = t_iteration(pot, k, rule)
        except NotConverged as exc:
            trace = exc.trace
        rows.append((k, trace.iterations, trace.converged, trace.defects[-1],
                     trace.contraction_rate, trace.orbit_residual, trace.orbit_slope))
    return ["k", "iterations", "converged", "final_defect", "contraction_rate",
            "orbit_residual", "orbit_slope"], rows


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Execute the configured experiment; returns the written manifest."""
    started = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    os.makedirs(config.out_dir, exist_ok=True)
    manifest = RunManifest(config.to_dict(), __version__, started)
    emitted = []

    if config.kind == "verify":
        report = verify_suite(config.tol_profile)
        path = os.path.join(config.out_dir, "verify.csv")
        write_csv(path, ["check", "measured", "tolerance", "passed"],
                  [(c.name, c.measured, c.tolerance, c.passed) for c in report.checks])
        emitted.append(path)
        manifest.status = "ok" if report.passed else "verification-failed"
    else:
        rule = radial_rule(config.order)
        metric = build_metric(config.potential(), rule)
        base = fubini_study(config.n, rule)
        if config.kind == "bergman":
            header, rows = _bergman_rows(config, metric)
        elif config.kind == "partition":
            header, rows = _partition_rows(config, metric, base)
        elif config.kind == "functionals":
            header, rows = _functionals_rows(config, metric, base)
        elif config.kind == "futaki":
            header, rows = _futaki_rows(config, metric)
        else:
            header, rows = _balanced_rows(config, rule)
        path = os.path.join(config.out_dir, f"{config.kind}.csv")
        write_csv(path, header, rows)
        emitted.append(path)

    for p in emitted:
        manifest.files[os.path.basename(p)] = _sha256(p)
    manifest.finished = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    _atomic_write(os.path.join(config.out_dir, "manifest.json"), manifest.to_json())
    return manifest


def _partition_samples(config: ExperimentConfig):
    """(k, scaled log ratio) of the run of ``config`` in its out_dir if its manifest
    records this config and version, status ok and partition.csv's sha256; else None."""
    with suppress(OSError, KeyError, TypeError, ValueError):  # no run, or a malformed one
        with open(os.path.join(config.out_dir, "manifest.json")) as fh:
            m = json.load(fh)
        with open(os.path.join(config.out_dir, "partition.csv"), "rb") as fh:
            data = fh.read()
        if (m["config"], m["version"], m["status"], m["files"]["partition.csv"]) == (
                config.to_dict(), __version__, "ok", hashlib.sha256(data).hexdigest()):
            rows = [line.split(",") for line in data.decode().splitlines()[1:]]
            return [(int(k), float(scaled)) for k, _, scaled in rows]  # 17 digits round-trip
    return None


def run_fit(config: ExperimentConfig):
    """Partition sweep, read from a matching run in out_dir when there is one,
    plus expansion fit; returns (FitResult, reference dict)."""
    n = config.n
    order = min(n + 2, 4)
    if len(config.k_values) < order + 3:
        raise ConfigError("k_min/k_max/k_stride",
                          f"the fit needs at least {order + 3} k values, "
                          f"got {len(config.k_values)}")
    rule = radial_rule(config.order)
    metric = build_metric(config.potential(), rule)
    base = fubini_study(config.n, rule)
    samples = _partition_samples(config) or [
        (k, scaled) for k, _, scaled in _partition_rows(config, metric, base)[1]]
    s_vals = {j: S_j(metric, base, j).value for j in ORDERS}

    def known(k):
        return k * dim_h0(n, int(round(k))) * TWO_PI**n * s_vals[0]

    result = fit_expansion(samples, n, order, known)
    return result, s_vals


# ---------------------------------------------------------------------------
# verification suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


@dataclass(frozen=True)
class VerifyReport:
    profile: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_suite(tol_profile: str = "default") -> VerifyReport:
    """Run the cross-module identity checks at the named tolerance profile."""
    tols = TOLERANCE_PROFILES[tol_profile]
    rule = radial_rule(200)
    checks = []

    # Bergman density against the exact reference values
    fs1 = fubini_study(1, rule)
    dens = bergman_density(fs1, 40)
    s_dense = np.linspace(0.0, 1.0, 257)
    measured = float(np.abs(TWO_PI * dens.field.profile(s_dense) - 41.0).max())
    checks.append(CheckResult("bergman-density-reference", measured, tols["density"]))

    # constant-potential partition shift
    shift = build_metric(RadialPotential(1, (0.7,)), rule)
    k = 25
    measured = abs(
        log_partition_ratio(shift, fs1, k) + k * dim_h0(1, k) * 0.7
    ) / (k * dim_h0(1, k) * 0.7)
    checks.append(CheckResult("partition-constant-shift", measured, tols["partition_shift"]))

    # integrated characteristic numbers
    worst = 0.0
    for n in DIMENSIONS:
        m = build_metric(RadialPotential(n, (0.0, 0.11, -0.05, 0.02)), rule)
        for j in ORDERS:
            worst = max(worst, coefficient_average(m, j).discrepancy)
    checks.append(CheckResult("riemann-roch-averages", worst, tols["riemann_roch"]))

    # two-route equality
    worst = 0.0
    for n in DIMENSIONS:
        m1 = build_metric(RadialPotential(n, (0.0, 0.1, -0.06)), rule)
        m0 = build_metric(RadialPotential(n, (0.0, -0.04, 0.03)), rule)
        for j in ORDERS[1:]:
            a = tilde_S_path(m1, m0, j).value
            b = tilde_S_bc(m1, m0, j).value
            worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    checks.append(CheckResult("route-equality", worst, tols["route_equality"]))

    # cocycle law
    worst = 0.0
    for n in DIMENSIONS:
        mets = [
            build_metric(RadialPotential(n, c), rule)
            for c in ((0.0,), (0.0, 0.09, -0.04), (0.0, -0.05, 0.02, 0.01))
        ]
        for j in ORDERS[1:]:
            worst = max(worst, abs(cocycle_defect(j, mets[2], mets[1], mets[0])))
    checks.append(CheckResult("cocycle", worst, tols["cocycle"]))

    # localization identity
    worst = 0.0
    for n in DIMENSIONS:
        m = build_metric(RadialPotential(n, (0.0, 0.12, -0.07, 0.02)), rule)
        data = hamiltonian_potential(m)
        for j in ORDERS:
            lhs = invariant_lhs(m, data, j)
            rhs = invariant_rhs(m, data, j)
            worst = max(worst, abs(lhs - rhs))
    checks.append(CheckResult("futaki-lhs-rhs", worst, tols["futaki"]))

    worst = max(lu_lemma_defect(build_metric(RadialPotential(n, (0.0, 0.1, -0.05)), rule))
                for n in DIMENSIONS)
    checks.append(CheckResult("lu-lemma", worst, tols["lu_lemma"]))

    # first variation vs finite differences
    m = build_metric(RadialPotential(1, (0.0, 0.08, -0.03)), rule)
    direction = ScalarField.from_callable(m, lambda s: np.sin(2.0 * s) - 0.5 * s)
    worst = 0.0
    for j in ORDERS:
        fd, formula, defect = first_variation(j, m, direction)
        worst = max(worst, defect / (1.0 + abs(formula)))
    checks.append(CheckResult("first-variation", worst, tols["first_variation"]))

    # contraction identities of the wedge evaluator
    m2 = build_metric(RadialPotential(2, (0.0, 0.1, -0.04)), rule)
    alpha = ricci_form(m2)
    beta = hessian_form(m2, ScalarField.from_callable(m2, lambda s: s**2).profile)
    d1, d2 = trace_identity_defects(m2, alpha, beta)
    checks.append(CheckResult("trace-identities", max(d1, d2), tols["trace_identity"]))

    # resolution policy: an under-resolved rule must be rejected loudly
    try:
        gram(fubini_study(1, radial_rule(32)), 40)
        measured = 1.0
    except ResolutionTooLow:
        measured = 0.0
    checks.append(CheckResult("resolution-policy", measured, 0.5))

    return VerifyReport(tol_profile, tuple(checks))
