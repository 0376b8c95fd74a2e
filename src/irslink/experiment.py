"""Batch experiment driver: codebook/IRS sweeps, external SNR trace import,
and plot-ready result export.

A sweep runs the full pipeline for every (codebook x IRS case x gain
aggregation) combination. Outputs are deterministic for a fixed
(spec, seed): files carry no timestamps and float formatting is pinned, so
re-running an identical spec reproduces byte-identical files. The manifest
is written last as a completion marker.
"""

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from irslink import __version__
from irslink.metrics import (
    DelayBreakdown,
    UtilityReport,
    UtilityRow,
    conditional_utility,
    processing_delay,
    queuing_delay,
    rate,
    routing_utility,
    tracking_error_model,
    transmission_delay,
)
from irslink.optimizer import AoResult, RcgConfig, alternating_optimize
from irslink.scenario import (
    STOCK_CODEBOOKS,
    CodebookScenario,
    Scenario,
    associate_users,
    default_scenario,
    load_scenario,
    with_codebook,
    with_irs_elements,
)

VALID_MODES = ("mean_gain", "min_gain", "no_irs", "with_irs", "external_snr")
OUTPUT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentSpec:
    scenario_path: str | None = None
    codebooks: tuple[CodebookScenario, ...] = STOCK_CODEBOOKS
    irs_sizes: tuple[int, ...] = (24,)
    modes: tuple[str, ...] = ("with_irs", "no_irs")
    seed: int = 0
    snr_csv_path: str | None = None
    optimizer_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.modes:
            raise ValueError("at least one mode is required")
        if not self.codebooks:
            raise ValueError("at least one codebook scenario is required")
        unknown = set(self.modes) - set(VALID_MODES)
        if unknown:
            raise ValueError(f"unknown modes: {sorted(unknown)}")
        if "external_snr" in self.modes and not self.snr_csv_path:
            raise ValueError("external_snr mode requires snr_csv_path")


@dataclass(frozen=True)
class ExternalSnrTrace:
    """Imported per-link SNRs; ``import_ns3_snr_csv`` keeps (node, peer) pairs unique."""

    rows: tuple[tuple[int, int, float], ...]  # (node id, peer id, snr_db)
    source: str

    @cached_property
    def _snr_db(self) -> dict:
        return {(n, p): db for n, p, db in self.rows}

    def snr_linear(self, node: int, peer: int) -> float:
        db = self._snr_db.get((node, peer))
        if db is None:
            raise KeyError(f"no SNR row for node {node}, peer {peer}")
        return 10.0 ** (db / 10.0)


def import_ns3_snr_csv(path, known_node_ids=None) -> ExternalSnrTrace:
    """Parse a (node_id, peer_id, snr_db) CSV with header; errors carry line numbers."""
    path = Path(path)
    rows = []
    first_line = {}  # (node, peer) -> line number
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header row required") from None
        expected = ["node_id", "peer_id", "snr_db"]
        if [h.strip() for h in header] != expected:
            raise ValueError(f"{path}: line 1: header must be {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 columns, got {len(row)}")
            try:
                node, peer = int(row[0]), int(row[1])
                snr = float(row[2])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed row {row!r}") from None
            if (node, peer) in first_line:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate row for node {node}, peer {peer} "
                    f"(first on line {first_line[node, peer]})"
                )
            first_line[node, peer] = lineno
            rows.append((node, peer, snr))
    if known_node_ids is not None:
        known = set(known_node_ids)
        unknown = sorted({n for r in rows for n in (r[0], r[1])} - known)
        if unknown:
            raise ValueError(f"{path}: unknown node ids {unknown}")
    return ExternalSnrTrace(tuple(rows), source=str(path))


def export_snr_csv(trace: ExternalSnrTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "peer_id", "snr_db"])
        for node, peer, snr in trace.rows:
            writer.writerow([node, peer, f"{snr:.12g}"])


@dataclass(frozen=True)
class RunResult:
    codebook: str
    irs_elements: int
    aggregate: str
    mode: str
    sum_utility: float
    min_transmission_delay: float
    report: UtilityReport
    ao: AoResult | None = None

    @property
    def key(self) -> str:
        return f"{self.codebook}_irs{self.irs_elements}_{self.aggregate}_{self.mode}"


def _min_transmission_delay(report: UtilityReport) -> float:
    finite = [r.delay.transmission for r in report.rows if np.isfinite(r.delay.transmission)]
    return min(finite) if finite else float("inf")


def _run_external_snr(scenario: Scenario, trace: ExternalSnrTrace) -> UtilityReport:
    """Feed imported per-link SNR directly into the rate/delay/utility chain.

    Node id convention: users are 0..U-1, APs are U..U+B-1. The DL SNR for
    (user i, AP j) is the row (node=i, peer=U+j); UL is (node=U+j, peer=i).
    Interference decomposition is unavailable in this mode.
    """
    p = scenario.params
    U, B = scenario.n_users, scenario.n_aps
    dl_rates = np.zeros((U, B))
    for i in range(U):
        for j in range(B):
            dl_rates[i, j] = rate(trace.snr_linear(i, U + j), p.bandwidth)
    assignment = associate_users(scenario, dl_rates)
    d_q = queuing_delay(p.mu_j, p.lambda_i)
    rows = []
    for i, j in enumerate(assignment.user_to_ap):
        if j < 0:
            continue
        sinr_ul_value = trace.snr_linear(U + j, i)
        rate_dl = dl_rates[i, j]
        rate_ul = rate(sinr_ul_value, p.bandwidth)
        err = float(tracking_error_model(sinr_ul_value, e0=p.tracking_e0))
        d_p = processing_delay(err, p, users_served=len(assignment.users_of_ap(j)))
        d_t = transmission_delay(p.s_i, p.a_i, rate_dl, rate_ul)
        delay = DelayBreakdown(d_t, d_p, d_q)
        # a single imported value stands in for all subcarriers
        u_route = float(routing_utility(np.array([err]))[0])
        u_cond = conditional_utility(delay.total, delay.total, p.gamma_d)
        feasible = delay.feasible and not assignment.infeasible[i]
        rows.append(
            UtilityRow(
                user=i,
                ap=j,
                subcarrier=0,
                rate_dl=rate_dl,
                rate_ul=rate_ul,
                delay=delay,
                conditional_utility=u_cond if feasible else 0.0,
                routing_utility=u_route if feasible else 0.0,
                feasible=feasible,
            )
        )
    return UtilityReport(tuple(rows))


def run_experiment(spec: ExperimentSpec, scenario: Scenario | None = None) -> list[RunResult]:
    """Run the full sweep described by the spec and return one result per run."""
    if scenario is None:
        scenario = load_scenario(spec.scenario_path) if spec.scenario_path else default_scenario()
    overrides = dict(scenario.optimizer_overrides)
    overrides.update(spec.optimizer_overrides)
    config = RcgConfig.from_overrides(overrides)

    aggregates = [m for m in ("mean_gain", "min_gain") if m in spec.modes] or ["mean_gain"]
    irs_cases = []
    if "no_irs" in spec.modes:
        irs_cases.append(0)
    if "with_irs" in spec.modes:
        irs_cases.extend(spec.irs_sizes)
    if not irs_cases and "external_snr" not in spec.modes:
        irs_cases.extend(spec.irs_sizes)

    results = []
    for cb in spec.codebooks:
        for m in irs_cases:
            variant = with_irs_elements(scenario, m)
            for agg_mode in aggregates:
                agg = "mean" if agg_mode == "mean_gain" else "min"
                ao = alternating_optimize(
                    variant, seed=spec.seed, codebook=cb, aggregate=agg, config=config
                )
                results.append(
                    RunResult(
                        codebook=cb.name,
                        irs_elements=m,
                        aggregate=agg_mode,
                        mode="no_irs" if m == 0 else "with_irs",
                        sum_utility=ao.sum_utility,
                        min_transmission_delay=_min_transmission_delay(ao.report),
                        report=ao.report,
                        ao=ao,
                    )
                )
    if "external_snr" in spec.modes:
        trace = import_ns3_snr_csv(
            spec.snr_csv_path,
            known_node_ids=range(scenario.n_users + scenario.n_aps),
        )
        for cb in spec.codebooks:
            report = _run_external_snr(with_codebook(scenario, cb), trace)
            results.append(
                RunResult(
                    codebook=cb.name,
                    irs_elements=0,
                    aggregate="external",
                    mode="external_snr",
                    sum_utility=report.sum_utility,
                    min_transmission_delay=_min_transmission_delay(report),
                    report=report,
                )
            )
    return results


def export_results(bundle: list[RunResult], directory, spec: ExperimentSpec | None = None) -> list[Path]:
    """Write the plot-ready result tables plus a machine-readable manifest.

    Emits: utility per codebook/mode, utility vs IRS size, minimum
    transmission delay, convergence traces, and the manifest (written
    last as a completion marker). Empty bundles emit the manifest only.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []

    if bundle:
        path = directory / "utility_by_codebook.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["codebook", "mode", "irs_elements", "aggregate", "sum_utility"])
            for r in bundle:
                w.writerow([r.codebook, r.mode, r.irs_elements, r.aggregate, f"{r.sum_utility:.12g}"])
        written.append(path)

        path = directory / "utility_vs_irs_size.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["codebook", "irs_elements", "aggregate", "sum_utility"])
            for r in bundle:
                if r.mode in ("with_irs", "no_irs"):
                    w.writerow([r.codebook, r.irs_elements, r.aggregate, f"{r.sum_utility:.12g}"])
        written.append(path)

        path = directory / "min_transmission_delay.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["codebook", "mode", "irs_elements", "aggregate", "min_d_t"])
            for r in bundle:
                w.writerow(
                    [r.codebook, r.mode, r.irs_elements, r.aggregate, f"{r.min_transmission_delay:.12g}"]
                )
        written.append(path)

        path = directory / "convergence_trace.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            # wall time is deliberately omitted so identical specs reproduce
            # byte-identical files
            w.writerow(["run", "round", "objective", "grad_norm"])
            for r in bundle:
                if r.ao is None:
                    continue
                for rnd in r.ao.trace:
                    w.writerow([r.key, rnd.round_index, f"{rnd.objective:.12g}", f"{rnd.grad_norm:.12g}"])
        written.append(path)

    manifest = {
        "schema_version": OUTPUT_SCHEMA_VERSION,
        "package_version": __version__,
        "runs": [r.key for r in bundle],
        "files": [p.name for p in written],
        "spec": None
        if spec is None
        else {
            "scenario_path": spec.scenario_path,
            "codebooks": [[c.name, c.n_t, c.n_rf] for c in spec.codebooks],
            "irs_sizes": list(spec.irs_sizes),
            "modes": list(spec.modes),
            "seed": spec.seed,
            "snr_csv_path": spec.snr_csv_path,
            "optimizer_overrides": spec.optimizer_overrides,
        },
    }
    manifest_path = directory / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(manifest_path)
    return written

