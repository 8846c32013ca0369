"""Command-line front end: run scenarios, benchmark verification, evaluate
the service-rate model, print the paper's overhead tables, and validate
configurations."""

from __future__ import annotations

import argparse
import itertools
import os
import random
import sys
from pathlib import Path

from . import analysis, crypto, scenario
from .consumer import ConsumerContext, ConsumerMode, interest_generation
from .wire import ContentObject, Interest, Name, SchemeTag, encode_content, encode_interest


def _resolve_config(name_or_path: str):
    """The scenario file the argument names, else the bundled scenario.

    An argument that reads as a path (it holds a separator or ends in
    ``.yaml`` or ``.yml``) and names no file is reported as a missing file,
    not as an unknown bundled name.
    """
    path = Path(name_or_path)
    if path.exists():
        return scenario.load_scenario(path)
    looks_like_path = "/" in name_or_path or os.sep in name_or_path
    if looks_like_path or name_or_path.endswith((".yaml", ".yml")):
        raise FileNotFoundError(f"{name_or_path}: no such file")
    return scenario.load_bundled(name_or_path)


def _default_out(config_name: str, explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    base = os.environ.get("IBAC_OUT_DIR", "out")
    return Path(base) / config_name


def _made(out: Path) -> bool:
    """Make the output directory ``out``; False, with the reason in one
    line, when it cannot be made."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output directory {out}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


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
    if args.interests is not None:
        if config.sweep is None:
            print(f"{config.name}: --interests needs a scenario with a sweep", file=sys.stderr)
            return 2
        config.sweep.interests_per_point = args.interests  # moves each point's horizon
    errors = scenario.validate(config)  # an override is checked as a file's value is
    if errors:
        for err in errors:
            print(f"invalid scenario: {err}", file=sys.stderr)
        return 2
    out_dir = _default_out(config.name, args.out)
    if not _made(out_dir):
        return 2
    try:
        points = scenario.run_scenario(config, out_dir)
    except scenario.InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1
    except (analysis.DomainError, analysis.EmptyLog) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 2
    if config.sweep is not None:
        # the model-vs-measured service rate per delta, as mu_model.csv holds it
        print(f"{'delta':>6} {'mu_model':>12} {'mu_measured':>12} {'rel_err':>8}")
        for p in points:
            rel = abs(p.mu_measured - p.mu_model) / p.mu_model
            print(f"{p.delta:>6} {p.mu_model:>12.4f} {p.mu_measured:>12.4f} {rel:>7.2%}")
        print(f"wrote {out_dir}/mu_model.csv")
    print(f"wrote {out_dir}/emission.log, summary.json")
    return 0


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
    if args.out and not _made(Path(args.out)):
        return 2
    results = []
    grid = itertools.product(args.key_bits, args.batch, args.sig_bytes)
    for key_bits, batch, sig_bytes in grid:
        try:
            result = analysis.bench_verification(
                key_bits=key_bits,
                batch_size=batch,
                payload_bytes=sig_bytes,
                trials=args.trials,
            )
        except (analysis.DomainError, crypto.UnsupportedParameter) as exc:
            print(exc, file=sys.stderr)
            return 2
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
        header = ("key_size", "batch_size", "sig_size",
                  "t_individual", "t_batch", "improvement_pct")
        rows = [(r.key_bits, r.batch_size, r.payload_bytes, f"{r.t_individual_s:.6f}",
                 f"{r.t_batch_s:.6f}", f"{r.improvement_pct:.1f}") for r in results]
        analysis.write_csv(out / "bench.csv", header, rows)
        print(f"wrote {out / 'bench.csv'}")
    return 0


def cmd_model_mu(args) -> int:
    try:
        mu = analysis.model_mu(args.delta, args.tau_process, args.tau_verify)
    except analysis.DomainError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{mu:.6f}")
    return 0


def _overhead_rows() -> list[tuple[str, int, int, int]]:
    """``(quantity, analytic, measured, framing)`` bytes of the paper's two
    bandwidth overheads: a full authorization payload on an interest, and
    two groups' verification keys on a content object.  ``measured`` is the
    difference of two encodings, with and without the overhead."""
    material = crypto.gen_group(128, 1)
    ctx = ConsumerContext(
        group=material,
        mode=ConsumerMode.FULL,
        scheme=SchemeTag.ENC,
        clock=lambda: 1000.0,
        rng=random.Random(1),
    )
    full = interest_generation(ctx, (b"edu", b"uci"), Name.from_uri("/edu/uci/ics/home.html"))
    interest_measured = len(encode_interest(full)) - len(encode_interest(Interest(full.name)))

    keys = tuple((m.group_id, m.public_key_bytes) for m in (material, crypto.gen_group(128, 2)))
    with_keys = ContentObject(full.name, b"data", keys, 1000, b"sig")
    without = ContentObject(full.name, b"data", (), 1000, b"sig")
    content_measured = len(encode_content(with_keys)) - len(encode_content(without))
    return [
        (
            "interest_auth_payload",
            analysis.interest_overhead_bytes(
                nonce_bytes=len(full.payload.nonce),
                timestamp_bytes=8,
                signature_bytes=len(full.payload.signature),
                group_id_bytes=len(full.payload.group_id),
            ),
            interest_measured,
            analysis.INTEREST_AUTH_FRAMING_BYTES,
        ),
        (
            "content_two_group_keys",
            analysis.content_overhead_bytes([len(k) for _, k in keys]),
            content_measured,
            sum(analysis.content_key_entry_framing_bytes(len(gid)) for gid, _ in keys),
        ),
    ]


def cmd_overhead_table(args) -> int:
    rows = _overhead_rows()
    for quantity, analytic, measured, framing in rows:
        print(f"{quantity}: analytic={analytic}B measured={measured}B framing={framing}B")
        if measured != analytic + framing:
            print(
                f"{quantity}: measured {measured}B is not analytic {analytic}B"
                f" plus framing {framing}B",
                file=sys.stderr,
            )
            return 1
    # made once the table adds up, so a refused table leaves no directory
    out = _default_out("overhead", args.out)
    if not _made(out):
        return 2
    header = ("quantity", "analytic_bytes", "measured_bytes", "framing_bytes")
    analysis.write_csv(out / "overhead.csv", header, rows)
    print(f"wrote {out / 'overhead.csv'}")
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
    p_run.add_argument("--interests", type=int, default=None,
                       help="interests per sweep point (a sweep scenario only)")
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
    p_mu.add_argument("--tau-process", type=float, default=scenario.DEFAULT_TAU_PROCESS_S)
    p_mu.add_argument("--tau-verify", type=float, default=scenario.DEFAULT_TAU_VERIFY_S)
    p_mu.set_defaults(func=cmd_model_mu)

    p_oh = sub.add_parser("overhead-table", help="analytic vs measured bandwidth overheads")
    p_oh.add_argument("--out", default=None,
                      help="output directory (default $IBAC_OUT_DIR/overhead)")
    p_oh.set_defaults(func=cmd_overhead_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
