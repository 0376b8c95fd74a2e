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
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from irslink import __version__, channel
from irslink.metrics import UtilityReport, rate, utility_report
from irslink.optimizer import AoResult, alternating_optimize
from irslink.scenario import (
    STOCK_CODEBOOKS,
    CodebookScenario,
    ConfigError,
    RcgConfig,
    Scenario,
    _is_kind,
    associate_users,
    default_scenario,
    derive,
    load_scenario,
    with_codebook,
    with_irs_elements,
)

VALID_MODES = ("mean_gain", "min_gain", "no_irs", "with_irs", "external_snr")
OUTPUT_SCHEMA_VERSION = 1


def run_key(codebook: str, irs_elements: int, aggregate: str, mode: str) -> str:
    """The name of one run in the result tables and the manifest."""
    return f"{codebook}_irs{irs_elements}_{aggregate}_{mode}"


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
        if not _is_kind(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed: must be an integer >= 0, got {self.seed!r}")
        for k, m in enumerate(self.irs_sizes):
            if not _is_kind(m, int) or m < 0:
                raise ConfigError(f"irs_sizes[{k}]: must be an integer >= 0, got {m!r}")
        keys = [run_key(cb.name, m, agg, "no_irs" if m == 0 else "with_irs")
                for cb in self.codebooks for m in self.irs_cases for agg in self.aggregates]
        if "external_snr" in self.modes:
            keys += [run_key(cb.name, 0, "external", "external_snr") for cb in self.codebooks]
        repeated = next((key for k, key in enumerate(keys) if key in keys[:k]), None)
        if repeated is not None:
            # the AO runs differ in aggregation, so a repeat is a codebook or a surface size
            names = [cb.name for cb in self.codebooks]
            path = "codebooks" if len(set(names)) < len(names) else "irs_sizes"
            raise ConfigError(f"{path}: run {repeated} is asked for twice")

    @property
    def aggregates(self) -> list[str]:
        """The gain aggregations of the AO runs, in run order."""
        return [m for m in ("mean_gain", "min_gain") if m in self.modes] or ["mean_gain"]

    @property
    def irs_cases(self) -> list[int]:
        """The surface sizes of the AO runs, in run order; 0 is the no_irs case."""
        cases = [0] if "no_irs" in self.modes else []
        if "with_irs" in self.modes or not (cases or "external_snr" in self.modes):
            cases.extend(self.irs_sizes)  # a sweep of neither mode runs every size
        return cases


@dataclass(frozen=True)
class ExternalSnrTrace:
    """Imported per-link SNRs; ``import_ns3_snr_csv`` keeps (node, peer) pairs unique."""

    rows: tuple[tuple[int, int, float], ...]  # (node id, peer id, snr_db)
    source: str

    @cached_property
    def _snr_db(self) -> dict:
        return {(n, p): db for n, p, db in self.rows}

    def snr_linear(self, rows) -> list[float]:
        """Linear SNRs of the (node, peer) rows; raises ValueError naming the
        source and every row it lacks."""
        missing = [row for row in rows if row not in self._snr_db]
        if missing:
            raise ValueError(f"{self.source}: no SNR rows for (node, peer) {missing}")
        return [10.0 ** (self._snr_db[row] / 10.0) for row in rows]


def import_ns3_snr_csv(path, known_node_ids=None) -> ExternalSnrTrace:
    """Parse a (node_id, peer_id, snr_db) CSV with header; errors carry line numbers."""
    path = Path(path)
    rows = []
    first_line = {}  # (node, peer) -> line number
    known = None if known_node_ids is None else set(known_node_ids)
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
            if known is not None and not {node, peer} <= known:
                unknown = sorted({node, peer} - known)
                raise ValueError(f"{path}: line {lineno}: unknown node ids {unknown}")
            if not math.isfinite(snr):
                raise ValueError(f"{path}: line {lineno}: snr_db must be finite, got {row[2]!r}")
            try:
                10.0 ** (snr / 10.0)  # the linear SNR that ``snr_linear`` forms
            except OverflowError:
                raise ValueError(f"{path}: line {lineno}: snr_db must give a finite linear SNR "
                                 f"(at most about 3082.5 dB), got {row[2]!r}") from None
            if (node, peer) in first_line:
                raise ValueError(
                    f"{path}: line {lineno}: duplicate row for node {node}, peer {peer} "
                    f"(first on line {first_line[node, peer]})"
                )
            first_line[node, peer] = lineno
            rows.append((node, peer, snr))
    return ExternalSnrTrace(tuple(rows), source=str(path))


def _write_table(path, header: list[str], rows) -> None:
    """One CSV table; floats are formatted by the caller ("%.12g")."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def export_snr_csv(trace: ExternalSnrTrace, path) -> None:
    _write_table(path, ["node_id", "peer_id", "snr_db"],
                 ([node, peer, f"{snr:.12g}"] for node, peer, snr in trace.rows))


@dataclass(frozen=True)
class RunResult:
    codebook: str
    irs_elements: int
    aggregate: str
    mode: str
    report: UtilityReport
    ao: AoResult | None = None

    @property
    def sum_utility(self) -> float:
        return self.report.sum_utility

    @property
    def min_transmission_delay(self) -> float:
        return self.report.min_transmission_delay

    @property
    def key(self) -> str:
        return run_key(self.codebook, self.irs_elements, self.aggregate, self.mode)


def _run_external_snr(scenario: Scenario, trace: ExternalSnrTrace) -> UtilityReport:
    """Feed imported per-link SNR into the rate/delay/utility chain.

    Node id convention: users are 0..U-1, APs are U..U+B-1. The DL SNR for
    (user i, AP j) is the row (node=i, peer=U+j); UL is (node=U+j, peer=i).
    Interference decomposition is unavailable in this mode, and a single
    imported UL value stands in for all subcarriers.
    """
    p = scenario.params
    U, B = scenario.n_users, scenario.n_aps
    dl_snr = trace.snr_linear([(i, U + j) for i in range(U) for j in range(B)])
    dl_rates = np.array([rate(snr, p.bandwidth) for snr in dl_snr]).reshape(U, B)
    assignment = associate_users(scenario, dl_rates)
    rate_dl = dl_rates[assignment.users, assignment.aps]
    sinr_ul = np.array(trace.snr_linear([(U + j, i) for i, j in assignment.served])).reshape(-1, 1)
    return utility_report(scenario, assignment, rate_dl, sinr_ul)


def run_experiment(spec: ExperimentSpec, scenario: Scenario | None = None) -> list[RunResult]:
    """Run the full sweep described by the spec and return one result per run."""
    if scenario is None:
        scenario = load_scenario(spec.scenario_path) if spec.scenario_path else default_scenario()
    unknown = set(spec.optimizer_overrides) - {f.name for f in fields(RcgConfig)}
    if unknown:
        raise ValueError(f"unknown optimizer overrides: {sorted(unknown)}")
    config = replace(scenario.optimizer, **spec.optimizer_overrides)

    # the external-SNR runs need no AO, so they go first: a trace that lacks
    # a row fails before any AO run, and their results still come last
    external = []
    if "external_snr" in spec.modes:
        trace = import_ns3_snr_csv(
            spec.snr_csv_path,
            known_node_ids=range(scenario.n_users + scenario.n_aps),
        )
        for cb in spec.codebooks:
            report = _run_external_snr(with_codebook(scenario, cb), trace)
            external.append(
                RunResult(
                    codebook=cb.name,
                    irs_elements=0,
                    aggregate="external",
                    mode="external_snr",
                    report=report,
                )
            )

    results = []
    surfaces = [with_irs_elements(scenario, m) for m in spec.irs_cases]
    links, links_n_t = {}, None  # IRS size -> links of the current antenna count
    for cb in spec.codebooks:
        params = with_codebook(scenario, cb).params
        variants = {m: derive(surface, params=params)
                    for m, surface in zip(spec.irs_cases, surfaces)}
        if cb.n_t != links_n_t:
            # synthesis does not read n_rf: codebooks of one antenna count share
            # links. The direct hops read no surface, so the first size's are
            # synthesized and every other size shares them
            links, links_n_t, first = {}, cb.n_t, None
            for m, variant in variants.items():
                if first is None:
                    first = links[m] = channel.synthesize_links(variant, spec.seed)
                else:
                    links[m] = first.with_surface(variant)
        for m, variant in variants.items():
            # checked when built; the variant differs in no channel input
            shared = derive(links[m], scenario=variant)
            for agg_mode in spec.aggregates:
                agg = "mean" if agg_mode == "mean_gain" else "min"
                ao = alternating_optimize(
                    variant, seed=spec.seed, aggregate=agg, config=config, links=shared
                )
                results.append(
                    RunResult(
                        codebook=cb.name,
                        irs_elements=m,
                        aggregate=agg_mode,
                        mode="no_irs" if m == 0 else "with_irs",
                        report=ao.report,
                        ao=ao,
                    )
                )
    return results + external


def export_results(bundle: list[RunResult], directory, spec: ExperimentSpec | None = None) -> list[Path]:
    """Write the plot-ready result tables plus a machine-readable manifest.

    Emits: utility per codebook/mode, utility vs IRS size, minimum
    transmission delay, convergence traces, and the manifest (written
    last as a completion marker). Empty bundles emit the manifest only.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tables = {
        "utility_by_codebook.csv": (
            ["codebook", "mode", "irs_elements", "aggregate", "sum_utility"],
            ([r.codebook, r.mode, r.irs_elements, r.aggregate, f"{r.sum_utility:.12g}"]
             for r in bundle),
        ),
        "utility_vs_irs_size.csv": (
            ["codebook", "irs_elements", "aggregate", "sum_utility"],
            ([r.codebook, r.irs_elements, r.aggregate, f"{r.sum_utility:.12g}"]
             for r in bundle if r.mode in ("with_irs", "no_irs")),
        ),
        "min_transmission_delay.csv": (
            ["codebook", "mode", "irs_elements", "aggregate", "min_d_t"],
            ([r.codebook, r.mode, r.irs_elements, r.aggregate, f"{r.min_transmission_delay:.12g}"]
             for r in bundle),
        ),
        # wall time is deliberately omitted so identical specs reproduce
        # byte-identical files
        "convergence_trace.csv": (
            ["run", "round", "objective", "grad_norm"],
            ([r.key, rnd.round_index, f"{rnd.objective:.12g}", f"{rnd.grad_norm:.12g}"]
             for r in bundle if r.ao is not None for rnd in r.ao.trace),
        ),
    }
    written = []
    if bundle:
        for name, (header, rows) in tables.items():
            written.append(directory / name)
            _write_table(written[-1], header, rows)

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

