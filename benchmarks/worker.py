"""One benchmark pass in a fresh process: set up, run, check, report.

    python3 benchmarks/worker.py WORKLOAD SEED TRACE OUT_DIR RESULT_JSON T_SPAWN

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, importing ``artifact`` and
drawing the inputs.  The pass writes its outputs under OUT_DIR and its
measurements to RESULT_JSON.
"""
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _digests(out):
    """sha256 of every output file except manifests, plus manifest checksums."""
    files, manifests, size = {}, {}, 0
    for dirpath, _, names in os.walk(out):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, out)
            size += os.path.getsize(path)
            if name == "manifest.json":
                with open(path) as fh:
                    manifest = json.load(fh)
                manifests[rel] = {"status": manifest["status"], "files": manifest["files"]}
                continue
            with open(path, "rb") as fh:
                files[rel] = hashlib.sha256(fh.read()).hexdigest()
    return files, manifests, size


def main(argv):
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    out, result_path, t_spawn = argv[3], argv[4], float(argv[5])

    import numpy
    import scipy

    import artifact

    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(artifact.__file__).startswith(src):
        raise SystemExit(f"artifact was imported from {artifact.__file__}, not from {src}")
    from artifact.bergman import _log_angular_sum

    from tracer import Tracer, load_layers
    from workloads import WORKLOADS, Pass

    setup, run = WORKLOADS[workload]
    tracer = None
    if trace:
        tracer = Tracer(load_layers())
        tracer.install()
    inputs = setup(seed, out)
    setup_s = time.monotonic() - t_spawn
    timed = Pass()
    status = run(inputs, out, timed)
    timed.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    files, manifests, size = _digests(out)
    result = {
        "wall_s": timed.wall_s,
        "wall_ref": timed.wall_ref,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": timed.ops,
        "status": status,
        "files": files,
        "manifests": manifests,
        "bytes_written": size,
        "log_angular_sum_misses": _log_angular_sum.cache_info().misses,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(timed.wall_s)
        result["trace"]["counters"] = tracer.counters
        result["trace"]["patched"] = tracer.patched
        result["trace"]["tagged"] = tracer.tagged_durations()
        tracer.write_spans(os.path.join(out, os.pardir, "spans.csv"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
