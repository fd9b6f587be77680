"""Benchmark of the artifact lab: one workload, one seed, a fixed time.

    python3 benchmarks/run.py --workload identities --seed 1 --seconds 40 --trace 0

Runs passes of the workload one after another, each in a fresh process
(``worker.py``), until the time is used, then prints every metric with its
unit and, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` traced and
untraced passes alternate and the metrics are the per-layer ones.  The exit
code is 1 when an output check fails and 2 when the program cannot be run.
Details of every run, with the machine it ran on, go to
``benchmarks/results/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import load_layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("identities", "sweep", "balance")
THREADS = 1  # BLAS/OpenMP threads per pass; passes run one at a time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3       # untraced passes in a --trace 0 run
MIN_TRACED = 2       # traced passes in a --trace 1 run, so counts can be compared
PASS_TIMEOUT_S = 120  # with a 40 s run, a hung pass still ends the run within 180 s
ROUNDOFF = 2.0**-52  # measured residuals are floored here for headroom

# ROADMAP item 1 layers: (label, span name, tag).  A t_iteration tag is a
# prefix; its time is divided by the steps of the longest matching run.
ROADMAP_LAYERS = (
    ("degree-160 from_callable", "profiles.from_callable", "degree=160"),
    ("build_metric (n=2)", "geometry.build_metric", "n=2"),
    ("a_2 field", "geometry.bergman_coefficient", "j=2 cold=1"),
    ("gram (k=200)", "bergman.gram", "n=1 k=200"),
    ("bergman_density (k=200)", "bergman.bergman_density", "n=1 k=200"),
    ("S_2 Bott-Chern (n=2)", "functionals.tilde_S_bc", "n=2 j=2"),
    ("S~_2 path (n=2)", "functionals.tilde_S_path", "n=2 j=2"),
    ("one T-step (k=20)", "balanced.t_iteration", "k=20 "),
    ("_log_angular_sum (n=3, k=120)", "bergman.log_angular_sum", "n=3 k=120 cold=1"),
)


class CheckFailed(Exception):
    pass


def machine_info():
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": THREADS, "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        base = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(base)):
            if index.startswith("index"):
                def read(name):
                    with open(os.path.join(base, index, name)) as fh:
                        return fh.read().strip()
                info["caches"][f"L{read('level')} {read('type')}"] = read("size")
    except OSError:
        pass
    return info


def run_pass(workload, seed, traced, run_dir, index):
    out = os.path.join(run_dir, f"pass{index}")
    os.makedirs(out)
    result_path = os.path.join(run_dir, f"pass{index}.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               **{var: str(THREADS) for var in THREAD_VARS})
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
         "1" if traced else "0", out, result_path, repr(t_spawn)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"pass {index} of {workload} exited with {proc.returncode}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["traced"] = traced
    result["process_s"] = time.monotonic() - t_spawn
    shutil.rmtree(out)
    return result


def run_passes(workload, seed, seconds, trace, run_dir):
    """Passes until the time is used; with tracing, traced and untraced alternate."""
    deadline = time.monotonic() + seconds
    need_untraced = 1 if trace else MIN_PASSES
    need_traced = MIN_TRACED if trace else 0
    passes = []
    while True:
        n_traced = sum(p["traced"] for p in passes)
        n_untraced = len(passes) - n_traced
        traced = bool(trace) and n_traced <= n_untraced
        if n_untraced >= need_untraced and n_traced >= need_traced:
            # start another pass only if one of its kind fits in the time left
            longest = max(p["process_s"] for p in passes if p["traced"] == traced)
            if time.monotonic() + longest > deadline:
                break
        passes.append(run_pass(workload, seed, traced, run_dir, len(passes)))
    return passes


def percentile_beyond(values, beyond=10):
    """Highest percentile with at least ``beyond`` samples above it, or None
    when that percentile would not lie above the median."""
    v = sorted(values)
    if len(v) <= 2 * beyond:
        return None
    rank = len(v) - beyond  # 1-based rank of the value
    return 100.0 * rank / len(v), v[rank - 1]


def check_same(passes, key, what):
    first = passes[0][key]
    for i, p in enumerate(passes[1:], 1):
        if p[key] != first:
            raise CheckFailed(f"{what} differ between pass 0 and pass {i}")


def check_outputs(passes, workload, layers):
    for p in passes:
        bad = {k: v for k, v in p["status"].items() if v != "ok"}
        if bad:
            raise CheckFailed(f"run status not ok: {bad}")
    check_same(passes, "files", "output files")
    check_same(passes, "manifests", "manifest checksums")
    check_same(passes, "ops", "operation outcomes and residuals")
    check_same(passes, "log_angular_sum_misses", "_log_angular_sum cache misses")
    traced = [p for p in passes if p["traced"]]
    if not traced:
        return
    counts = [({f: v["calls"] for f, v in p["trace"]["functions"].items()},
               {k: v for k, v in p["trace"]["counters"].items()}) for p in traced]
    for i, c in enumerate(counts[1:], 1):
        if c != counts[0]:
            raise CheckFailed(f"per-layer counts differ between traced passes 0 and {i}")
    calls = counts[0][0]
    for layer, spec in layers.items():
        for fname, fspec in spec["functions"].items():
            name = f"{layer}.{fname}"
            if workload in fspec["exercised_on"] and calls[name] == 0:
                raise CheckFailed(f"{name} recorded no calls on {workload}; "
                                  f"patched at {traced[0]['trace']['patched'].get(name)}")


def end_to_end(passes):
    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["ops"]) for p in untraced)
    failed = sum(sum(not op["ok"] for op in p["ops"]) for p in untraced)
    digits = [math.log10(tol / max(measured, ROUNDOFF))
              for op in untraced[0]["ops"] for _, measured, tol, kind in op["checks"]
              if kind == "identity"]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "wall_ref": statistics.median(p["wall_ref"] for p in untraced),
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "ok_frac": 1.0 - failed / attempted,
        "headroom_digits_min": min(digits),
    }


def per_layer(passes, layers):
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    first = traced[0]["trace"]
    counters = first["counters"]
    m = {}
    for name, f in first["functions"].items():
        m[f"{name}.calls"] = f["calls"]
        for key in ("s", "self_s"):
            m[f"{name}.{key}"] = statistics.median(p["trace"]["functions"][name][key]
                                                   for p in traced)
    for layer in layers:
        m[f"{layer}.self_share"] = statistics.median(
            p["trace"]["layer_self_share"].get(layer, 0.0) for p in traced)
    m["profiles.from_callable.kept_frac"] = (
        counters["kept_coef"] / counters["interp_coef"] if counters["interp_coef"] else 0.0)
    m["quadrature.headroom_min"] = counters["headroom_min"] or 0
    m["bergman.log_angular_sum.misses"] = traced[0]["log_angular_sum_misses"]
    m["balanced.iterations"] = counters["iterations"]
    m["fitting.condition_max"] = counters["condition_max"]
    m["harness.bytes_written"] = traced[0]["bytes_written"]
    m["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                             - statistics.median(p["wall_s"] for p in untraced))
    return m


def roadmap_layers(passes):
    """Median time of each ROADMAP item-1 layer in the traced passes, in ms."""
    out = {}
    for label, name, tag in ROADMAP_LAYERS:
        per_pass = []
        for p in passes:
            tagged = p.get("trace", {}).get("tagged", {}).get(name, {})
            if name == "balanced.t_iteration":
                runs = [(int(t.rsplit("=", 1)[1]), v["median_s"])
                        for t, v in tagged.items() if t.startswith(tag)]
                steps, median_s = max(runs, default=(0, 0.0))
                if steps:
                    per_pass.append(median_s / steps)
            elif tag in tagged:
                per_pass.append(tagged[tag]["median_s"])
        if per_pass:
            out[label] = 1e3 * statistics.median(per_pass)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "artifact", "__init__.py")):
        print(f"no artifact package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layers = load_layers()
    run_dir = os.path.join(HERE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    try:
        passes = run_passes(args.workload, args.seed, args.seconds, args.trace, run_dir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    correct, problem = True, None
    try:
        check_outputs(passes, args.workload, layers)
    except CheckFailed as exc:
        correct, problem = False, str(exc)

    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(sum(not op["ok"] for op in p["ops"]) for p in passes)
    values = end_to_end(passes)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    suffix_units = {"wall_s": "s", "calls": "count", "s": "s", "self_s": "s",
                    "self_share": "%"}
    if args.trace:
        values.update(per_layer(passes, layers))
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 2

    samples = {key: [p[key] for p in untraced] for key in ("wall_s", "wall_ref")}
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(), "versions": passes[0]["versions"],
        "passes": len(untraced), "traced_passes": len(passes) - len(untraced),
        "samples": samples,
        "tails": {key: percentile_beyond(v) for key, v in samples.items()},
        "failed_frac": failed / attempted,
        "failed_ops": sorted({op["op"] + (f" ({op['error']})" if op["error"] else "")
                              for p in passes for op in p["ops"] if not op["ok"]}),
        "problem": problem,
        "metrics": values,
        "roadmap_layers_ms": roadmap_layers(passes),
        "layer_self_share": ({k: values[f"{k}.self_share"] for k in layers}
                             if args.trace else None),
        "pass_results": passes,
    }
    with open(run_dir + ".json", "w") as fh:
        json.dump(info, fh, indent=1, default=str)

    m = info["machine"]
    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced and "
          f"{info['traced_passes']} traced passes; {m['cpu_model']}, nproc={m['nproc']}, "
          f"threads={THREADS}, caches={m['caches']}, versions={info['versions']}")
    for key, v in samples.items():
        tail = info["tails"][key]
        print(f"{key} samples (n={len(v)}): " + " ".join(f"{x:.4f}" for x in v)
              + (f"; p{tail[0]:.0f} = {tail[1]:.4f}" if tail else
                 "; too few samples for a percentile above the median with 10 beyond it"))
    print(f"failed_frac: {info['failed_frac']:.4f} ({failed} of {attempted} operations)"
          + (f"; failed: {info['failed_ops']}" if failed else ""))
    for label, ms in info["roadmap_layers_ms"].items():
        print(f"roadmap layer {label}: {ms:.3f} ms")
    for name in sorted(values):
        unit = units.get(name) or suffix_units.get(name.rsplit(".", 1)[-1], "")
        print(f"{name}: {values[name]:.6g} {unit}")
    if problem:
        print(f"output check failed: {problem}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
