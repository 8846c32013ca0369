"""Command-line front end: run scenarios, benchmark verification, evaluate
the service-rate model, and validate configurations."""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

from . import analysis, scenario


def _resolve_config(name_or_path: str):
    path = Path(name_or_path)
    if path.exists():
        return scenario.load_scenario(path)
    return scenario.load_bundled(name_or_path)


def _default_out(config_name: str, explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    base = os.environ.get("IBAC_OUT_DIR", "out")
    return Path(base) / config_name


def cmd_run(args) -> int:
    try:
        config = _resolve_config(args.scenario)
    except scenario.ValidationError as exc:
        for err in exc.errors:
            print(f"invalid scenario: {err}", file=sys.stderr)
        return 2
    except (scenario.ParseError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.seed is not None:
        config.seed = args.seed
    out_dir = _default_out(config.name, args.out)
    try:
        code = scenario.run_scenario(config, out_dir)
    except scenario.InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out_dir}/emission.log, summary.json")
    return code


def cmd_validate(args) -> int:
    try:
        config = _resolve_config(args.scenario)
    except scenario.ValidationError as exc:
        for err in exc.errors:
            print(err, file=sys.stderr)
        return 1
    except (scenario.ParseError, OSError) as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"{config.name}: OK")
    return 0


def cmd_bench(args) -> int:
    results = []
    grid = itertools.product(args.key_bits, args.batch, args.sig_bytes)
    for key_bits, batch, sig_bytes in grid:
        result = analysis.bench_verification(
            key_bits=key_bits,
            batch_size=batch,
            payload_bytes=sig_bytes,
            trials=args.trials,
        )
        results.append(result)
        line = (
            f"key={result.key_bits}b batch={result.batch_size} "
            f"sig={result.payload_bytes}B  individual={result.t_individual_s:.4f}s "
            f"batch={result.t_batch_s:.4f}s  improvement={result.improvement_pct:.0f}%"
        )
        ref = analysis.REFERENCE_VERIFICATION_TIMINGS.get(
            (result.key_bits, result.batch_size, result.payload_bytes)
        )
        if ref:
            line += f"  (reference: {ref[0]}s / {ref[1]}s / {ref[2]}%)"
        print(line)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        analysis.write_bench_csv(out / "bench.csv", results)
        print(f"wrote {out / 'bench.csv'}")
    return 0


def cmd_model_mu(args) -> int:
    try:
        mu = analysis.model_mu(
            analysis.ServiceModelParams(args.delta, args.tau_process, args.tau_verify)
        )
    except analysis.DomainError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{mu:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ibac",
        description="Interest-based access control: scenarios, benchmarks, model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a bundled or file scenario")
    p_run.add_argument("scenario", help=f"path or one of {', '.join(scenario.BUNDLED_SCENARIOS)}")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory (default $IBAC_OUT_DIR/<name>)")
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)

    p_bench = sub.add_parser("bench", help="verification micro-benchmark")
    p_bench.add_argument("--key-bits", type=int, nargs="+", default=[1024])
    p_bench.add_argument("--batch", type=int, nargs="+", default=[10])
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--sig-bytes", type=int, nargs="+", default=[512 * 1024])
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)

    p_mu = sub.add_parser("model-mu", help="evaluate the service-rate model")
    p_mu.add_argument("--delta", type=float, required=True)
    p_mu.add_argument("--tau-process", type=float, default=0.005)
    p_mu.add_argument("--tau-verify", type=float, default=0.599)
    p_mu.set_defaults(func=cmd_model_mu)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
