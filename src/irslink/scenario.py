"""Indoor geometry, simulation parameters, codebook scenarios and user-AP association.

A Scenario is immutable after load and safe to share read-only across
workers; ``with_irs_elements`` and ``with_codebook`` derive variants by
``dataclasses.replace``, which re-runs validation. Configuration documents
are YAML key/value trees with sections ``geometry``, ``system``,
``codebooks`` and ``optimizer``; unknown keys are rejected with their field
path.
"""

import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml
from scipy.optimize import linear_sum_assignment

from irslink.arrays import SPEED_OF_LIGHT

BOLTZMANN = 1.380649e-23
ROOM_TEMP_K = 290.0


class ConfigError(ValueError):
    """Raised for parse failures or invariant violations, with a field path."""


@dataclass(frozen=True)
class Box:
    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def contains(self, p) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= np.asarray(self.lo) - 1e-9) and np.all(p <= np.asarray(self.hi) + 1e-9))


@dataclass(frozen=True)
class IrsPanel:
    """Planar reflecting panel in the Y-Z plane anchored at ``origin``.

    Element (a, b) sits at origin + (0, a*spacing, b*spacing); the flat
    element index is b*m_y + a (Y index fastest), matching the UPA
    steering-vector flattening.
    """

    origin: tuple[float, float, float]
    m_y: int
    m_z: int
    spacing: float  # meters

    def __post_init__(self):
        if self.m_y < 1 or self.m_z < 1:
            raise ConfigError("irs_panels: m_y and m_z must be >= 1")
        if self.spacing <= 0:
            raise ConfigError("irs_panels: spacing must be positive")

    @property
    def n_elements(self) -> int:
        return self.m_y * self.m_z

    def element_positions(self) -> np.ndarray:
        """World positions of all elements, shape (m_y*m_z, 3)."""
        a = np.arange(self.m_y)
        b = np.arange(self.m_z)
        origin = np.asarray(self.origin, dtype=float)
        pos = np.zeros((self.m_z, self.m_y, 3))
        pos[:, :, 0] = origin[0]
        pos[:, :, 1] = origin[1] + a[None, :] * self.spacing
        pos[:, :, 2] = origin[2] + b[:, None] * self.spacing
        return pos.reshape(-1, 3)


@dataclass(frozen=True)
class SystemParams:
    """System-level simulation parameters.

    Defaults follow the standard indoor VR setup: 60 GHz downlink,
    sub-6 GHz uplink, 2.16 GHz channel bandwidth, thermal noise with a
    configurable noise figure. The arrival/service rates ``lambda_i`` /
    ``mu_j`` are treated as opaque configurable rates; their stock values
    yield very large queuing delays, which is documented rather than
    rescaled.
    """

    n_t: int = 8  # AP antennas
    n_r: int = 1  # user antennas
    n_rf: int = 2  # RF chains per AP
    n_s: int = 1  # streams per user
    n_sc: int = 64  # subcarriers
    bandwidth: float = 2.16e9  # Hz
    carrier_dl: float = 60e9  # Hz
    carrier_ul: float = 5e9  # Hz
    noise_figure_db: float = 7.0
    noise_power: float | None = None  # Watts; default kTB * noise figure
    p_ap: float = 1.0  # Watts per AP
    p_user: float = 0.1  # Watts per user
    pathloss_exponent: float = 4.6  # direct user-AP path
    los_exponent: float = 2.0  # LoS AP-IRS and IRS-user hops
    s_i: float = 512 * 24  # DL payload bits per user
    a_i: float = 6.0  # UL tracking-vector bits
    lambda_i: float = 2e-9  # request arrival rate
    mu_j: float = 4e-9  # service rate
    gamma_d: float = 0.02  # max tolerable delay, seconds
    r_min: float = 1e6  # minimum DL rate, bits/s
    v_cap: int = 2  # per-AP user capacity
    m_proc: float = 1e9  # AP processing limit, bits/s
    v_bits: float = 5.0  # bits per tracking-error unit
    nlos_penalty_db: float = 10.0  # extra loss on the blocked direct path
    smallscale: bool = True  # complex Gaussian small-scale factor on NLoS
    tracking_e0: float = 1.0  # tracking error at zero UL SINR
    delay_mode: str = "phasor"  # "phasor" | "real_decay"
    t_proc: float = 1e-8  # only used by the literal real-decay channel variant

    def __post_init__(self):
        for name in ("n_t", "n_r", "n_rf", "n_s", "n_sc"):
            if getattr(self, name) < 1:
                raise ConfigError(f"system.{name}: must be >= 1")
        if self.n_rf > self.n_t:
            raise ConfigError("system.n_rf: RF chains cannot exceed antennas")
        if self.n_s > self.n_rf:
            raise ConfigError("system.n_s: streams cannot exceed RF chains")
        for name in ("bandwidth", "carrier_dl", "carrier_ul", "p_ap", "p_user"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"system.{name}: must be positive")
        if self.mu_j <= self.lambda_i:
            raise ConfigError("system.mu_j: queuing stability violated (mu_j <= lambda_i)")
        if self.delay_mode not in ("phasor", "real_decay"):
            raise ConfigError("system.delay_mode: must be 'phasor' or 'real_decay'")
        if self.noise_power is not None and self.noise_power <= 0:
            raise ConfigError("system.noise_power: must be positive")

    @property
    def sigma2(self) -> float:
        """Noise power in Watts (thermal kTB plus noise figure unless overridden)."""
        if self.noise_power is not None:
            return self.noise_power
        nf = 10.0 ** (self.noise_figure_db / 10.0)
        return BOLTZMANN * ROOM_TEMP_K * self.bandwidth * nf

    def subcarrier_frequencies(self, carrier: float) -> np.ndarray:
        """Symmetric subcarrier grid around the carrier."""
        n = np.arange(self.n_sc)
        return carrier + (n - (self.n_sc - 1) / 2.0) * (self.bandwidth / self.n_sc)

    @property
    def wavelength_dl(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_dl


@dataclass(frozen=True)
class CodebookScenario:
    name: str
    n_t: int
    n_rf: int

    def __post_init__(self):
        if self.n_rf > self.n_t or self.n_rf < 1:
            raise ConfigError(f"codebooks.{self.name}: need 1 <= n_rf <= n_t")


#: The six stock (antennas, RF chains) AP configurations.
STOCK_CODEBOOKS = tuple(
    CodebookScenario(f"{n_t}ant_{n_rf}rf", n_t, n_rf)
    for n_t, n_rf in [(2, 1), (2, 2), (4, 1), (4, 2), (8, 1), (8, 2)]
)


@dataclass(frozen=True)
class Scenario:
    ap_positions: np.ndarray  # (B, 3)
    user_positions: np.ndarray  # (U, 3)
    irs_panels: tuple[IrsPanel, ...]
    bounds: Box
    params: SystemParams
    codebooks: tuple[CodebookScenario, ...] = STOCK_CODEBOOKS
    optimizer_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        ap = np.atleast_2d(np.asarray(self.ap_positions, dtype=float))
        users = np.atleast_2d(np.asarray(self.user_positions, dtype=float))
        object.__setattr__(self, "ap_positions", ap)
        object.__setattr__(self, "user_positions", users)
        if ap.shape[0] < 1 or ap.shape[1] != 3:
            raise ConfigError("geometry.ap_positions: need at least one 3D point")
        if users.shape[0] < 1 or users.shape[1] != 3:
            raise ConfigError("geometry.user_positions: need at least one 3D point")
        for label, pts in (("ap_positions", ap), ("user_positions", users)):
            for k, p in enumerate(pts):
                if not self.bounds.contains(p):
                    raise ConfigError(f"geometry.{label}[{k}]: outside bounds")
        elements = [
            (f"irs_panels[{k}].elements", panel.element_positions())
            for k, panel in enumerate(self.irs_panels)
        ]
        for k, (_, pts) in enumerate(elements):
            for p in pts:
                if not self.bounds.contains(p):
                    raise ConfigError(f"geometry.irs_panels[{k}]: element outside bounds")
        # a link between two nodes at one point has no direction
        for label, pts, others in (
            ("user_positions", users, [("ap_positions", ap), *elements]),
            ("ap_positions", ap, elements),
        ):
            for other, other_pts in others:
                hits = np.argwhere(np.all(pts[:, None, :] == other_pts[None, :, :], axis=-1))
                if hits.size:
                    k, l = hits[0]
                    raise ConfigError(f"geometry.{label}[{k}]: coincides with {other}[{l}]")

    @property
    def n_users(self) -> int:
        return self.user_positions.shape[0]

    @property
    def n_aps(self) -> int:
        return self.ap_positions.shape[0]

    @property
    def n_irs_elements(self) -> int:
        return sum(p.n_elements for p in self.irs_panels)

    def irs_element_positions(self) -> np.ndarray:
        """All IRS element positions across panels, shape (M, 3)."""
        if not self.irs_panels:
            return np.zeros((0, 3))
        return np.concatenate([p.element_positions() for p in self.irs_panels], axis=0)


def compute_dod_doa(tx, rx) -> tuple[np.ndarray, np.ndarray]:
    """Direction of departure (rx - tx) and arrival (-dod), shape (..., 3).

    Positions broadcast over leading axes, so one call covers a stack of links.
    """
    dod = np.asarray(rx, dtype=float) - np.asarray(tx, dtype=float)
    if not np.all(np.any(dod, axis=-1)):
        raise ValueError("degenerate link geometry: tx and rx coincide")
    return dod, -dod


@dataclass(frozen=True)
class Assignment:
    """User -> AP assignment with per-user feasibility flags.

    ``user_to_ap[i]`` is -1 when user i could not be assigned (capacity
    exhausted). ``infeasible[i]`` is set when the assigned DL rate falls
    below the configured minimum; such users stay assigned.
    """

    user_to_ap: tuple[int, ...]
    infeasible: tuple[bool, ...]

    def users_of_ap(self, j: int) -> list[int]:
        return [i for i, a in enumerate(self.user_to_ap) if a == j]


def associate_users(scenario: Scenario, dl_rates: np.ndarray) -> Assignment:
    """Assign users to APs maximizing total DL rate under capacity caps.

    Solved exactly by expanding each AP into v_cap slots and running a
    rectangular linear assignment. Users whose assigned rate is below
    r_min are flagged infeasible, not dropped.
    """
    rates = np.asarray(dl_rates, dtype=float)
    n_users, n_aps = scenario.n_users, scenario.n_aps
    if rates.shape != (n_users, n_aps):
        raise ValueError(f"rate table must be shaped ({n_users}, {n_aps})")
    cap = scenario.params.v_cap
    slot_ap = np.repeat(np.arange(n_aps), cap)
    cost = rates[:, slot_ap]
    rows, cols = linear_sum_assignment(cost, maximize=True)
    user_to_ap = [-1] * n_users
    for i, s in zip(rows, cols):
        user_to_ap[i] = int(slot_ap[s])
    infeasible = tuple(
        user_to_ap[i] == -1 or rates[i, user_to_ap[i]] < scenario.params.r_min
        for i in range(n_users)
    )
    return Assignment(tuple(user_to_ap), infeasible)


# --- configuration loading ---------------------------------------------------

_GEOMETRY_KEYS = {"bounds", "ap_positions", "user_positions", "irs_panels"}
_PANEL_KEYS = {"origin", "m_y", "m_z", "spacing"}
_SYSTEM_KEYS = {f.name for f in SystemParams.__dataclass_fields__.values()}
_CODEBOOK_KEYS = {"name", "n_t", "n_rf"}
_OPTIMIZER_KEYS = {
    "epsilon",
    "max_iter",
    "outer_rounds",
    "improvement_tol",
    "step_init",
    "step_shrink",
    "armijo_slope",
    "beam_grid",
}
_TOP_KEYS = {"geometry", "system", "codebooks", "optimizer"}


def _check_keys(mapping: dict, allowed: set, path: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def _parse_bounds(raw, path: str) -> Box:
    if raw is None:
        return Box((0.0, 0.0, 0.0), (10.0, 17.0, 3.0))
    _check_keys(raw, {"lo", "hi"}, path)
    return Box(tuple(float(v) for v in raw["lo"]), tuple(float(v) for v in raw["hi"]))


def _parse_yaml(text: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse failure: {exc}") from exc


def _read_document(source):
    """YAML text, or the document in the file that a path or one-line string names."""
    if not isinstance(source, os.PathLike):
        raw = _parse_yaml(source)
        if isinstance(raw, dict) or "\n" in source.strip():
            return raw
    path = Path(source)
    if not path.is_file():
        raise ConfigError(f"{source}: file not found")
    return _parse_yaml(path.read_text())


def load_scenario(source) -> Scenario:
    """Load and validate a Scenario from a YAML document, path or dict."""
    raw = source if isinstance(source, dict) else _read_document(source)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a key/value tree")
    _check_keys(raw, _TOP_KEYS, "config")

    geom = raw.get("geometry") or {}
    _check_keys(geom, _GEOMETRY_KEYS, "geometry")
    if "ap_positions" not in geom or "user_positions" not in geom:
        raise ConfigError("geometry: ap_positions and user_positions are required")

    system_raw = dict(raw.get("system") or {})
    _check_keys(system_raw, _SYSTEM_KEYS, "system")
    params = SystemParams(**system_raw)

    panels = []
    for k, praw in enumerate(geom.get("irs_panels") or []):
        _check_keys(praw, _PANEL_KEYS, f"geometry.irs_panels[{k}]")
        spacing = praw.get("spacing")
        if spacing is None:
            spacing = params.wavelength_dl / 2.0
        panels.append(
            IrsPanel(
                origin=tuple(float(v) for v in praw["origin"]),
                m_y=int(praw["m_y"]),
                m_z=int(praw["m_z"]),
                spacing=float(spacing),
            )
        )

    codebooks = STOCK_CODEBOOKS
    if raw.get("codebooks"):
        parsed = []
        for k, craw in enumerate(raw["codebooks"]):
            _check_keys(craw, _CODEBOOK_KEYS, f"codebooks[{k}]")
            parsed.append(CodebookScenario(str(craw["name"]), int(craw["n_t"]), int(craw["n_rf"])))
        codebooks = tuple(parsed)

    optimizer = dict(raw.get("optimizer") or {})
    _check_keys(optimizer, _OPTIMIZER_KEYS, "optimizer")

    return Scenario(
        ap_positions=np.asarray(geom["ap_positions"], dtype=float),
        user_positions=np.asarray(geom["user_positions"], dtype=float),
        irs_panels=tuple(panels),
        bounds=_parse_bounds(geom.get("bounds"), "geometry.bounds"),
        params=params,
        codebooks=codebooks,
        optimizer_overrides=optimizer,
    )


# --- scenario variants -------------------------------------------------------

_DEFAULT_PANEL_ORIGINS = ((0.0, 7.0, 1.2), (10.0, 7.0, 1.2))


def with_irs_elements(scenario: Scenario, m: int) -> Scenario:
    """Scenario copy with the IRS resized to m total elements.

    Elements are split across the existing panel origins (two default wall
    positions when the scenario has none), each panel near-square; m = 0
    removes the IRS.
    """
    if m == scenario.n_irs_elements:
        return scenario
    spacing = scenario.params.wavelength_dl / 2.0
    origins = _DEFAULT_PANEL_ORIGINS
    if scenario.irs_panels:
        origins = [p.origin for p in scenario.irs_panels]
        spacing = scenario.irs_panels[0].spacing
    panels = []
    if m > 0:
        base, extra = divmod(m, len(origins))
        for k, origin in enumerate(origins):
            count = base + (1 if k < extra else 0)
            if count == 0:
                continue
            rows = next(r for r in range(int(np.sqrt(count)), 0, -1) if count % r == 0)
            panels.append(IrsPanel(origin, count // rows, rows, spacing))
    return replace(scenario, irs_panels=tuple(panels))


def with_codebook(scenario: Scenario, codebook: CodebookScenario) -> Scenario:
    """Scenario copy whose APs use the codebook's antenna and RF-chain counts."""
    p = scenario.params
    if p.n_t == codebook.n_t and p.n_rf == codebook.n_rf:
        return scenario
    return replace(scenario, params=replace(p, n_t=codebook.n_t, n_rf=codebook.n_rf))


def default_scenario(n_irs_elements: int = 24, **system_overrides) -> Scenario:
    """Stock 4-user / 2-AP indoor scenario in a 10 x 17 x 3 m room.

    ``n_irs_elements`` is split by ``with_irs_elements`` across two wall
    panels (Y-Z planes at x = 0 and x = 10); 0 gives the no-IRS baseline.
    The direct paths are heavily blocked (30 dB penalty) so the reflected
    cascades carry a meaningful share of the link budget, which is the
    deployment premise for the reflecting surfaces.
    """
    system_overrides.setdefault("nlos_penalty_db", 30.0)
    room = Scenario(
        ap_positions=np.array([[2.0, 3.0, 2.5], [8.0, 14.0, 2.5]]),
        user_positions=np.array(
            [[3.0, 5.0, 1.5], [7.0, 6.0, 1.5], [3.5, 11.0, 1.5], [6.5, 12.5, 1.5]]
        ),
        irs_panels=(),
        bounds=Box((0.0, 0.0, 0.0), (10.0, 17.0, 3.0)),
        params=SystemParams(**system_overrides),
    )
    return with_irs_elements(room, n_irs_elements)
