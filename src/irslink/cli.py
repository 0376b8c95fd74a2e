"""Command-line entry points for experiment sweeps and diagnostics."""

import argparse
import sys

import numpy as np

from irslink.experiment import VALID_MODES, ExperimentSpec, export_results, run_experiment
from irslink.optimizer import complexity_probe
from irslink.scenario import STOCK_CODEBOOKS, CodebookScenario


def _codebook(token: str) -> CodebookScenario:
    """A stock name ('8ant_2rf') or 'NTxNRF' shorthand ('8x2'); an argparse
    type, so a bad token is a usage error."""
    by_name = {cb.name: cb for cb in STOCK_CODEBOOKS}
    if token in by_name:
        return by_name[token]
    n_t, _, n_rf = token.partition("x")
    try:
        return CodebookScenario(f"{n_t}ant_{n_rf}rf", int(n_t), int(n_rf))
    except ValueError:  # ConfigError included
        raise argparse.ArgumentTypeError(f"unknown codebook spec: {token!r}") from None


def _count(token: str) -> int:
    """An integer >= 1; an argparse type, so a bad token is a usage error."""
    try:
        value = int(token)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {token!r}")
    return value


class _Ascending(argparse.Action):
    """Stores a list only when its entries are in ascending order."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values != sorted(values):
            raise argparse.ArgumentError(
                self, f"must be ascending, got {' '.join(map(str, values))}")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="irslink", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a codebook/IRS experiment sweep")
    run.add_argument("--scenario", help="scenario YAML path (default: stock 4-user room)")
    run.add_argument("--output-dir", default="results")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--modes", nargs="+", default=["with_irs", "no_irs"], choices=VALID_MODES)
    run.add_argument("--codebooks", nargs="+", type=_codebook, default=list(STOCK_CODEBOOKS))
    run.add_argument("--irs-sizes", nargs="+", type=int, default=[24])
    run.add_argument("--snr-csv", help="external SNR trace for external_snr mode")
    run.add_argument("--epsilon", type=float, help="gradient-norm stop threshold")
    run.add_argument("--max-iter", type=int, help="inner phase-optimization iteration cap")
    run.add_argument("--outer-rounds", type=int, help="alternating-optimization round cap")

    probe = sub.add_parser("probe", help="empirical complexity scaling probe")
    probe.add_argument("--m-values", nargs="+", type=_count, action=_Ascending,
                       default=[8, 16, 32, 64])
    probe.add_argument("--rcg-iters", type=_count, default=30)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ValueError as exc:  # ConfigError included: bad input, not a crash
        print(f"irslink: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "run":
        overrides = {
            name: getattr(args, name)
            for name in ("epsilon", "max_iter", "outer_rounds")
            if getattr(args, name) is not None
        }
        spec = ExperimentSpec(
            scenario_path=args.scenario,
            codebooks=tuple(args.codebooks),
            irs_sizes=tuple(args.irs_sizes),
            modes=tuple(args.modes),
            seed=args.seed,
            snr_csv_path=args.snr_csv,
            optimizer_overrides=overrides,
        )
        bundle = run_experiment(spec)
        files = export_results(bundle, args.output_dir, spec)
        for r in bundle:
            print(f"{r.key}: sum_utility={r.sum_utility:.6g} min_d_t={r.min_transmission_delay:.6g}")
        print(f"wrote {len(files)} files to {args.output_dir}")
        return 0
    if args.command == "probe":
        rows = complexity_probe(args.m_values, rcg_iters=args.rcg_iters)
        print("m,phase_macs,beamforming_macs,seconds")
        for row in rows:
            print(f"{row['m']},{row['phase_macs']},{row['beamforming_macs']},{row['seconds']:.3f}")
        if len({row["m"] for row in rows}) > 1:
            logm = np.log2([row["m"] for row in rows])
            for label, key, expected in (
                ("phase-optimization", "phase_macs", "cubic rebuild expected ~3"),
                ("beamforming", "beamforming_macs", "quadratic projection expected ~2"),
            ):
                slope = np.polyfit(logm, np.log2([row[key] for row in rows]), 1)[0]
                print(f"{label} MAC slope: {slope:.2f} ({expected})", file=sys.stderr)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
