"""Command-line surface.

Subcommands are the experiment kinds (``verify`` among them) plus ``fit``.
Exit codes: 0 success, 1 verification failure, 2 configuration or
numerical error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import ArtifactError, ConfigError
from .geometry import RadialPotential
from .harness import (
    KINDS,
    ExperimentConfig,
    TOLERANCE_PROFILES,
    run_experiment,
    run_fit,
)

DEFAULT_WINDOWS = {1: (40, 240, 8), 2: (20, 120, 4), 3: (8, 40, 4)}


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--k-min", type=int)
    sub.add_argument("--k-max", type=int)
    sub.add_argument("--k-stride", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--potential", help="potential JSON file")
    sub.add_argument("--tol-profile", choices=sorted(TOLERANCE_PROFILES))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artifact",
        description="Partition functions, Bergman expansions, and Kahler "
        "functionals on radial CP^n.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name in (*KINDS, "fit"):
        sub = subs.add_parser(name)
        _add_common(sub)
    return parser


def _read_input(path: str, parse):
    """parse(text) of an input file; malformed content is a ConfigError."""
    with open(path) as fh:
        text = fh.read()
    try:
        return parse(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(path, f"malformed input file: {exc!r}") from exc


def config_from_args(args) -> ExperimentConfig:
    data = {}
    if args.config:
        data.update(_read_input(args.config, lambda text: dict(json.loads(text))))
    kind = args.command if args.command in KINDS else "partition"
    data["kind"] = kind
    if args.potential:
        pot = _read_input(args.potential, RadialPotential.from_json)
        data["n"] = pot.n
        data["potential_coeffs"] = list(pot.coeffs)
    if args.n is not None:
        data["n"] = args.n
    for key in ("k_min", "k_max", "k_stride"):
        if getattr(args, key) is not None:
            data[key] = getattr(args, key)
    if args.out:
        data["out_dir"] = args.out
    if args.tol_profile:
        data["tol_profile"] = args.tol_profile
    if "k_max" not in data and kind in ("bergman", "partition", "balanced"):
        n = int(data.get("n", 1))
        lo, hi, stride = DEFAULT_WINDOWS.get(n, DEFAULT_WINDOWS[1])
        data.setdefault("k_min", lo)
        data["k_max"] = hi
        data.setdefault("k_stride", stride)
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        if args.command == "fit":
            result, s_vals = run_fit(config)
            out = {
                "coefficients": [repr(c) for c in result.coefficients],
                "condition": result.condition,
                "S_reference": {str(j): s_vals[j] for j in s_vals},
                "max_residual": float(max(abs(r) for r in result.residuals)),
            }
            print(json.dumps(out, indent=2))
            return 0
        manifest = run_experiment(config)
        print(json.dumps({"status": manifest.status,
                          "files": manifest.files}, indent=2))
        return 0 if manifest.status == "ok" else 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ArtifactError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
