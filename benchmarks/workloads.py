"""The three benchmark workloads, as one pass each through the public API.

A pass is what a command-line user pays for: it runs in a fresh process,
so the ``_log_angular_sum`` cache and the per-metric field caches start
cold.  Every input is drawn from the workload seed.  Each operation
returns residual checks ``(name, measured, tolerance, kind)``: ``identity``
checks compare two routes to the same quantity and feed the headroom
metric; ``bound`` checks hold an asymptotic fit to a pinned bound.  An
operation fails when it raises ``ArtifactError`` or a check exceeds its
tolerance.

Functions are looked up on the ``artifact`` package at call time, so the
wrappers the traced run installs see every call.
"""
from __future__ import annotations

import csv
import os
import time

import numpy as np

import artifact as A
from artifact.cli import DEFAULT_WINDOWS
from artifact.harness import TOLERANCE_PROFILES

TOL = TOLERANCE_PROFILES["default"]
# pinned bounds of the acceptance tests (09: second variation, 06: fits of S_1,
# 11a: balance defect).  Test 06 fits with order 4; run_fit uses order
# min(n + 2, 4), so only its n = 2 fit follows the test's plan.
SECOND_VARIATION_TOL = 1e-5
FIT_S1_TOL = {2: 1e-3}
BALANCE_TOL = 1e-10
# Bergman runs per n, (k_min, k_max, k_stride): reaches n = 3 at k = 120
BERGMAN_WINDOWS = {1: (50, 200, 50), 2: (40, 120, 40), 3: (40, 120, 40)}
BALANCE_KS = (10, 20)
LIOUVILLE_KS = (10, 20, 40)


def draw_coeffs(rng, n, rule, scale=0.1):
    """Coefficients drawn as the acceptance tests' ``draw_metric`` draws them."""
    while True:
        coeffs = rng.normal(0.0, scale, size=4)
        coeffs[0] = 0.0
        try:
            A.build_metric(A.RadialPotential(n, tuple(coeffs)), rule)
            return tuple(float(c) for c in coeffs)
        except A.NonPositiveMetric:
            continue


_REF_X = np.linspace(-1.0, 1.0, 200)
_REF_COEF = np.linspace(1.0, 0.0, 161)
_REF_MATRIX = np.linspace(0.0, 1.0, 60 * 200).reshape(60, 200)


def reference_seconds():
    """Time of a fixed kernel that mixes small numpy calls with a Python loop.

    The kernel is the benchmark's own code, so no change to ``artifact``
    moves it; it only tracks how fast the machine runs at the moment.  The
    median of three repetitions damps brief hiccups.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(12):
            np.polynomial.chebyshev.chebval(_REF_X, _REF_COEF)
            np.log(np.exp(_REF_MATRIX).sum(axis=0))
        total = 0
        for i in range(10000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class Pass:
    """The operations of one pass, timed between reference-kernel runs.

    The reference kernel runs before the first operation, after each one and
    at the end, so the pass splits into segments bracketed by two reference
    times.  ``wall_s`` sums the segments; ``wall_ref`` sums each segment over
    the mean of its two reference times, which cancels the machine's speed.
    """

    def __init__(self):
        self.ops = []
        self.segments = []  # (seconds, reference before, reference after)
        self._ref = reference_seconds()
        self._t0 = time.perf_counter()

    def _close_segment(self):
        seconds = time.perf_counter() - self._t0
        ref = reference_seconds()
        self.segments.append((seconds, self._ref, ref))
        self._ref = ref
        self._t0 = time.perf_counter()

    def attempt(self, name, body):
        """Run one operation; ``body`` returns its checks."""
        try:
            checks = body()
            ok = all(measured <= tol for _, measured, tol, _ in checks)
            self.ops.append({"op": name, "ok": ok, "error": None, "checks": checks})
        except A.ArtifactError as exc:
            self.ops.append({"op": name, "ok": False,
                             "error": f"{type(exc).__name__}: {exc}", "checks": []})
        self._close_segment()

    def finish(self):
        self._close_segment()
        self.wall_s = sum(seconds for seconds, _, _ in self.segments)
        self.wall_ref = sum(2.0 * seconds / (before + after)
                            for seconds, before, after in self.segments)


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# identities: verify, route equality, cocycles, second variation for n = 1..3


def setup_identities(seed, out):
    rng = np.random.default_rng(seed)
    rule = A.radial_rule(200)
    triples = {}
    for n in (1, 2, 3):
        triples[n] = [A.build_metric(A.RadialPotential(n, draw_coeffs(rng, n, rule)), rule)
                      for _ in range(3)]
    directions = {}
    for n, (_, m1, _) in triples.items():
        directions[n] = (
            A.ScalarField.from_callable(m1, lambda s: np.sin(2.0 * s) - 0.4 * s**2),
            A.ScalarField.from_callable(m1, lambda s: 0.5 * np.cos(3.0 * s) + 0.2 * s),
        )
    verify = A.ExperimentConfig(kind="verify", out_dir=os.path.join(out, "verify"))
    return {"triples": triples, "directions": directions, "verify": verify}


def run_identities(inp, out, ops):
    status = {}
    routes = {(n, j): [n, j, np.nan, np.nan, np.nan, np.nan]
              for n in inp["triples"] for j in (1, 2)}
    secvar = []

    def verify():
        manifest = A.run_experiment(inp["verify"])
        status["verify"] = manifest.status
        rows = _read_csv(os.path.join(inp["verify"].out_dir, "verify.csv"))
        return [(r["check"], float(r["measured"]), float(r["tolerance"]), "identity")
                for r in rows]

    ops.attempt("verify", verify)
    for n, (m0, m1, m2) in inp["triples"].items():
        for j in (1, 2):
            def route(n=n, j=j):
                a = A.tilde_S_path(m1, m0, j).value
                b = A.tilde_S_bc(m1, m0, j).value
                resid = abs(a - b) / (1.0 + abs(b))
                routes[n, j][2:5] = a, b, resid
                return [(f"route n={n} j={j}", resid, TOL["route_equality"], "identity")]

            def cocycle(n=n, j=j):
                defect = A.cocycle_defect(j, m2, m1, m0)
                routes[n, j][5] = defect
                return [(f"cocycle n={n} j={j}", defect, TOL["cocycle"], "identity")]

            ops.attempt(f"route n={n} j={j}", route)
            ops.attempt(f"cocycle n={n} j={j}", cocycle)

        def second(n=n, m1=m1):
            dot, ddot = inp["directions"][n]
            formula, fd, defect = A.second_variation_S2(m1, dot, ddot)
            rel = defect / (1.0 + abs(formula))
            secvar.append((n, formula, fd, rel))
            return [(f"second-variation n={n}", rel, SECOND_VARIATION_TOL, "identity")]

        ops.attempt(f"second-variation n={n}", second)
    A.harness.write_csv(os.path.join(out, "routes.csv"),
                        ["n", "j", "tilde_path", "tilde_bott_chern", "residual",
                         "cocycle_defect"], list(routes.values()))
    A.harness.write_csv(os.path.join(out, "second_variation.csv"),
                        ["n", "formula", "finite_difference", "residual"], secvar)
    return status


# ---------------------------------------------------------------------------
# sweep: partition runs and fits on the CLI windows, Bergman runs to n = 3


def setup_sweep(seed, out):
    rng = np.random.default_rng(seed)
    rule = A.radial_rule(200)
    plans = {}
    for n in (1, 2, 3):
        coeffs = draw_coeffs(rng, n, rule)
        lo, hi, stride = DEFAULT_WINDOWS[n]
        blo, bhi, bstride = BERGMAN_WINDOWS[n]
        plans[n] = (
            A.ExperimentConfig(kind="partition", n=n, potential_coeffs=coeffs,
                               k_min=lo, k_max=hi, k_stride=stride,
                               out_dir=os.path.join(out, f"partition-n{n}")),
            A.ExperimentConfig(kind="bergman", n=n, potential_coeffs=coeffs,
                               k_min=blo, k_max=bhi, k_stride=bstride,
                               out_dir=os.path.join(out, f"bergman-n{n}")),
        )
    return {"plans": plans}


def run_sweep(inp, out, ops):
    status = {}
    coef_rows, ref_rows = [], []
    for n, (partition, bergman) in inp["plans"].items():
        def part(n=n, cfg=partition):
            status[f"partition n={n}"] = A.run_experiment(cfg).status
            return []

        def fit(n=n, cfg=partition):
            result, s_vals = A.run_fit(cfg)
            err = [abs(result.coefficients[i] - s_vals[i + 1]) / abs(s_vals[i + 1])
                   for i in (0, 1)]
            coef_rows.extend((n, j, c) for j, c in enumerate(result.coefficients))
            ref_rows.append((n, s_vals[0], s_vals[1], s_vals[2], result.condition,
                             err[0], err[1]))
            if n in FIT_S1_TOL:
                return [(f"fit S_1 n={n}", err[0], FIT_S1_TOL[n], "bound")]
            return []

        def density(n=n, cfg=bergman):
            status[f"bergman n={n}"] = A.run_experiment(cfg).status
            rows = _read_csv(os.path.join(cfg.out_dir, "bergman.csv"))
            # the density integrates to dim H^0 (Riemann-Roch)
            return [(f"density integral n={n} k={r['k']}",
                     abs(float(r["integral_defect"])) / A.dim_h0(n, int(r["k"])),
                     TOL["riemann_roch"], "identity") for r in rows]

        ops.attempt(f"partition n={n}", part)
        ops.attempt(f"fit n={n}", fit)
        ops.attempt(f"bergman n={n}", density)
    A.harness.write_csv(os.path.join(out, "fit_coefficients.csv"), ["n", "j", "c"], coef_rows)
    A.harness.write_csv(os.path.join(out, "fit_reference.csv"),
                        ["n", "S_0", "S_1", "S_2", "condition", "rel_err_S1", "rel_err_S2"],
                        ref_rows)
    return status


# ---------------------------------------------------------------------------
# balance: T-iteration at k = 10, 20 and the level-k Liouville action


def setup_balance(seed, out):
    rng = np.random.default_rng(seed)
    rule = A.radial_rule(200)
    # small perturbations around (0, 0.01, -0.005), the plan of acceptance test 11a
    starts = {
        k: A.RadialPotential(1, (0.0, rng.uniform(0.005, 0.015), -rng.uniform(0.0025, 0.0075)))
        for k in BALANCE_KS
    }
    liouville = A.RadialPotential(1, draw_coeffs(rng, 1, rule))
    return {"starts": starts, "liouville": liouville}


def _trace_row(k, from_fubini_study, trace):
    return (k, from_fubini_study, trace.iterations, trace.converged, trace.defects[-1])


def run_balance(inp, out, ops):
    status = {}
    iter_rows, action_rows = [], []
    for k, start in inp["starts"].items():
        def iterate(k=k, start=start):
            try:
                _, trace = A.t_iteration(start, k)
            except A.NotConverged as exc:
                iter_rows.append(_trace_row(k, 0, exc.trace))
                raise
            iter_rows.append(_trace_row(k, 0, trace))
            return []

        ops.attempt(f"t_iteration k={k}", iterate)

        def fixed_point(k=k):
            # Fubini-Study is the exact fixed point of T at every level
            _, trace = A.t_iteration(A.RadialPotential(1, (0.0,)), k)
            iter_rows.append(_trace_row(k, 1, trace))
            return [(f"fubini-study fixed point k={k}", trace.defects[-1], BALANCE_TOL,
                     "identity")]

        ops.attempt(f"fixed point k={k}", fixed_point)
    for k in LIOUVILLE_KS:
        def action(k=k):
            value = A.liouville_approx_SLk(inp["liouville"], k)
            raw = A.liouville_approx_SLk(inp["liouville"], k, route="raw")
            resid = abs(value - raw) / (1.0 + abs(value))
            action_rows.append((k, value, raw, resid))
            # two routes to the determinant term: partition-ratio identity vs raw Gram
            return [(f"liouville routes k={k}", resid, TOL["route_equality"], "identity")]

        ops.attempt(f"liouville k={k}", action)
    A.harness.write_csv(os.path.join(out, "t_iteration.csv"),
                        ["k", "from_fubini_study", "iterations", "converged", "final_defect"],
                        iter_rows)
    A.harness.write_csv(os.path.join(out, "liouville.csv"),
                        ["k", "identity_route", "raw_route", "residual"], action_rows)
    return status


WORKLOADS = {
    "identities": (setup_identities, run_identities),
    "sweep": (setup_sweep, run_sweep),
    "balance": (setup_balance, run_balance),
}
