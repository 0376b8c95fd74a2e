"""Indoor geometry, simulation parameters, codebook scenarios and user-AP association.

A Scenario is immutable after load and safe to share read-only across
workers. The ``LinkChannels`` synthesized from one are read-only too, but
for one mutable entry, their last DL composite build, which ``derive``
copies of the links share. ``with_irs_elements`` derives variants by
``dataclasses.replace``, which re-runs validation; ``with_codebook``
changes only the system parameters, so it checks those and skips the
geometry checks (``derive``).
Configuration documents are YAML key/value trees with sections
``geometry``, ``system`` and ``optimizer``; unknown keys, wrongly typed
values and out-of-range values are rejected with their field path.
"""

import math
import numbers
import os
import sys
from dataclasses import dataclass, fields, replace
from functools import cached_property
from pathlib import Path
from typing import get_args

import numpy as np

from irslink.arrays import SPEED_OF_LIGHT

BOLTZMANN = 1.380649e-23
ROOM_TEMP_K = 290.0
# the noise power starts the SINR denominators, which the gradient squares:
# outside this range their squares leave the normal floats (0 / 0 below,
# overflow above)
NOISE_POWER_MIN, NOISE_POWER_MAX = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)
# below this carrier the 1 m reference loss 20 log10(4 pi f / c) of the
# path gain turns into a gain, and a hop's amplitude can overflow
CARRIER_MIN = SPEED_OF_LIGHT / (4.0 * math.pi)


class ConfigError(ValueError):
    """Raised for parse failures or invariant violations, with a field path."""


def _is_kind(value, kind) -> bool:
    """Whether a value fits an annotation: a bool is no number, NaN no float."""
    abc = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    return isinstance(value, abc) and (kind is bool or not isinstance(value, bool)) and value == value


def _finite_float(value) -> bool:
    """Whether a number converts to a finite float (a huge int overflows)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_types(obj, section: str):
    """Raise ConfigError naming the first dataclass field whose value does not fit its type."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not any(_is_kind(value, kind) for kind in get_args(f.type) or (f.type,)):
            kind = getattr(f.type, "__name__", f.type)
            raise ConfigError(f"{section}.{f.name}: must be {kind}, got {value!r}")


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
            raise ConfigError("m_y and m_z must be >= 1")
        if not 0 < self.spacing < np.inf:
            raise ConfigError("spacing must be positive and finite")

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

    def __post_init__(self):
        _check_types(self, "system")
        for name in ("n_t", "n_r", "n_rf", "n_s", "n_sc", "v_cap"):
            if getattr(self, name) < 1:
                raise ConfigError(f"system.{name}: must be >= 1")
        for name, value in vars(self).items():
            if isinstance(value, numbers.Real) and not _finite_float(value):
                raise ConfigError(f"system.{name}: must be finite")
        # a negative path-loss exponent or penalty turns a loss into a gain
        for name in ("s_i", "a_i", "lambda_i", "gamma_d", "r_min", "v_bits", "tracking_e0",
                     "pathloss_exponent", "los_exponent", "nlos_penalty_db"):
            if getattr(self, name) < 0:
                raise ConfigError(f"system.{name}: must be >= 0")
        if self.n_rf > self.n_t:
            raise ConfigError("system.n_rf: RF chains cannot exceed antennas")
        if self.n_s > self.n_rf:
            raise ConfigError("system.n_s: streams cannot exceed RF chains")
        if self.n_s > self.n_r:
            raise ConfigError("system.n_s: streams cannot exceed user antennas")
        for name in ("bandwidth", "carrier_dl", "carrier_ul", "p_ap", "p_user", "m_proc"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"system.{name}: must be positive")
        for name in ("carrier_dl", "carrier_ul"):
            if getattr(self, name) < CARRIER_MIN:
                raise ConfigError(f"system.{name}: must be >= {CARRIER_MIN!r} Hz")
        for name in ("p_ap", "p_user"):
            # received powers scale with it, and the DL SINR gradient squares them
            if getattr(self, name) > NOISE_POWER_MAX:
                raise ConfigError(f"system.{name}: must be <= {NOISE_POWER_MAX!r} W")
        if self.mu_j <= self.lambda_i:
            raise ConfigError("system.mu_j: queuing stability violated (mu_j <= lambda_i)")
        if self.noise_power is not None and self.noise_power <= 0:
            raise ConfigError("system.noise_power: must be positive")
        try:
            sigma2 = self.sigma2
        except OverflowError:
            sigma2 = math.inf
        if not NOISE_POWER_MIN <= sigma2 <= NOISE_POWER_MAX:
            thermal = BOLTZMANN * ROOM_TEMP_K * self.bandwidth  # kTB
            if self.noise_power is not None:
                field = "noise_power"
            elif not NOISE_POWER_MIN <= thermal <= NOISE_POWER_MAX:
                field = "bandwidth"
            else:
                field = "noise_figure_db"
            raise ConfigError(
                f"system.{field}: the noise power {sigma2!r} W must lie in "
                f"[{NOISE_POWER_MIN!r}, {NOISE_POWER_MAX!r}] W"
            )

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
class RcgConfig:
    """Phase-optimizer settings: RCG stop rules, AO round cap, AP beam directions."""

    epsilon: float = 1e-3
    max_iter: int = 200
    outer_rounds: int = 20
    beam_grid: int = 16

    def __post_init__(self):
        _check_types(self, "optimizer")
        for name, low in (("epsilon", 0), ("max_iter", 1), ("outer_rounds", 1), ("beam_grid", 1)):
            if getattr(self, name) < low:
                raise ConfigError(f"optimizer.{name}: must be >= {low}")
        if not _finite_float(self.epsilon):  # inf would skip every phase optimization
            raise ConfigError("optimizer.epsilon: must be finite")


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
    optimizer: RcgConfig = RcgConfig()

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
        for k, panel in enumerate(self.irs_panels):
            # a panel is a rectangle, so its far corner decides for every element
            x, y, z = panel.origin
            far = (x, y + (panel.m_y - 1) * panel.spacing, z + (panel.m_z - 1) * panel.spacing)
            if not (self.bounds.contains(panel.origin) and self.bounds.contains(far)):
                raise ConfigError(f"geometry.irs_panels[{k}]: element outside bounds")
        elements = [
            (f"irs_panels[{k}].elements", panel.element_positions())
            for k, panel in enumerate(self.irs_panels)
        ]
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

    @cached_property
    def served(self) -> tuple[tuple[int, int], ...]:
        """The served (user, AP) pairs in user order: the one order of every
        per-pair table, rate and result row."""
        return tuple((i, j) for i, j in enumerate(self.user_to_ap) if j >= 0)

    @cached_property
    def owners(self) -> tuple[tuple[int, int], ...]:
        """The served (AP, user) pairs by AP, then by user: the one order in
        which every DL receiver's precoder owners, and so its interferers, run."""
        return tuple(sorted((j, i) for i, j in self.served))

    @cached_property
    def users(self) -> np.ndarray:
        """The users of ``served``, in served order (read-only)."""
        return _shared(np.array([i for i, _ in self.served], dtype=int))

    @cached_property
    def aps(self) -> np.ndarray:
        """The APs of ``served``, in served order (read-only)."""
        return _shared(np.array([j for _, j in self.served], dtype=int))

    @cached_property
    def dl_triples(self) -> np.ndarray:
        """(receiver, AP, owner) of every DL triple, shape (Q, 3): receivers in
        served order, each over ``owners``."""
        return _shared(np.array([(i, b, l) for i in self.users.tolist() for b, l in self.owners],
                                dtype=int).reshape(-1, 3))


def _shared(array: np.ndarray) -> np.ndarray:
    """``array`` made read-only: it is formed once and shared."""
    array.flags.writeable = False
    return array


def _max_weight_assignment(weights: np.ndarray) -> tuple[list[int], list[int]]:
    """(rows, cols) of a maximum-weight assignment of a finite (n, k) table.

    Every row is matched when n <= k, every column otherwise; rows come out
    ascending. This is the shortest augmenting path method of D. F. Crouse,
    "On implementing 2D rectangular assignment algorithms", IEEE TAES 52(4),
    2016, on negated weights. Ties are decided as in the common reference
    implementation of that paper, so equal-weight tables give the same pairs:
    columns are scanned from the last one, and among equally short paths an
    unmatched column ends the search.
    """
    n_rows, n_cols = weights.shape
    transpose = n_cols < n_rows  # a tall table is solved as its transpose
    cost = (-(weights.T if transpose else weights)).tolist()
    if transpose:
        n_rows, n_cols = n_cols, n_rows
    u, v = [0.0] * n_rows, [0.0] * n_cols
    path, col4row, row4col = [-1] * n_cols, [-1] * n_rows, [-1] * n_cols
    for cur in range(n_rows):
        spc = [math.inf] * n_cols  # shortest path cost to each column
        remaining = list(range(n_cols - 1, -1, -1))
        rows_seen, cols_seen = [cur], []
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            index, lowest = -1, math.inf
            row, u_i = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            j = remaining[index]
            cols_seen.append(j)
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
                rows_seen.append(i)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - spc[j]
        j = sink
        while True:  # augment along the path back to the current row
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if not transpose:
        return list(range(n_rows)), col4row
    pairs = sorted((r, c) for c, r in enumerate(col4row))
    return [r for r, _ in pairs], [c for _, c in pairs]


def associate_users(scenario: Scenario, dl_rates: np.ndarray) -> Assignment:
    """Assign users to APs maximizing total DL rate under capacity caps.

    Solved exactly by expanding each AP into v_cap slots and running a
    rectangular linear assignment (``_max_weight_assignment``). Users whose
    assigned rate is below r_min are flagged infeasible, not dropped.
    """
    rates = np.asarray(dl_rates, dtype=float)
    n_users, n_aps = scenario.n_users, scenario.n_aps
    if rates.shape != (n_users, n_aps):
        raise ValueError(f"rate table must be shaped ({n_users}, {n_aps})")
    if not np.isfinite(rates).all():
        raise ValueError("rate table must be finite")
    cap = scenario.params.v_cap
    slot_ap = np.repeat(np.arange(n_aps), cap)
    rows, cols = _max_weight_assignment(rates[:, slot_ap])
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
_TOP_KEYS = {"geometry", "system", "optimizer"}
_ROOM = {"lo": [0.0, 0.0, 0.0], "hi": [10.0, 17.0, 3.0]}  # bounds when none are given


def _check_keys(mapping, allowed: set, path: str) -> dict:
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: must be a key/value tree")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(map(str, unknown))}")
    return mapping


def _section(raw: dict, name: str, cls):
    """The dataclass ``cls`` from section ``name``; it checks the values itself."""
    return cls(**_check_keys(raw.get(name) or {}, {f.name for f in fields(cls)}, name))


def _entries(raw, path: str) -> list:
    """(entry, its path) of every entry of a list."""
    if not isinstance(raw, list):
        raise ConfigError(f"{path}: must be a list")
    return [(entry, f"{path}[{k}]") for k, entry in enumerate(raw)]


def _point(raw, path: str) -> tuple[float, float, float]:
    if not (isinstance(raw, list) and len(raw) == 3 and all(_is_kind(v, float) for v in raw)):
        raise ConfigError(f"{path}: must be a list of three numbers")
    return tuple(float(v) for v in raw)


def _parse_panel(raw, path: str, params: SystemParams) -> IrsPanel:
    _check_keys(raw, {f.name for f in fields(IrsPanel)}, path)
    spacing = raw.get("spacing")
    spacing = params.wavelength_dl / 2.0 if spacing is None else spacing
    for key, value, kind in (("m_y", raw.get("m_y"), int), ("m_z", raw.get("m_z"), int),
                             ("spacing", spacing, float)):
        if not _is_kind(value, kind):
            raise ConfigError(f"{path}.{key}: must be {kind.__name__}, got {value!r}")
    origin = _point(raw.get("origin"), f"{path}.origin")
    try:
        return IrsPanel(origin, raw["m_y"], raw["m_z"], float(spacing))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_yaml(text: str):
    import yaml  # here, not at the top: start-up need not pay for it

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
    """Load and validate a Scenario from a YAML document, path or dict; a
    malformed one raises ConfigError whose message starts with a field path."""
    raw = source if isinstance(source, dict) else _read_document(source)
    _check_keys(raw, _TOP_KEYS, "config")
    geom = _check_keys(raw.get("geometry") or {}, _GEOMETRY_KEYS, "geometry")
    if "ap_positions" not in geom or "user_positions" not in geom:
        raise ConfigError("geometry: ap_positions and user_positions are required")
    params = _section(raw, "system", SystemParams)
    points = {
        key: np.array([_point(*e) for e in _entries(geom[key], f"geometry.{key}")]).reshape(-1, 3)
        for key in ("ap_positions", "user_positions")
    }
    bounds = _check_keys(geom.get("bounds") or _ROOM, {"lo", "hi"}, "geometry.bounds")
    panels = _entries(geom.get("irs_panels") or [], "geometry.irs_panels")
    return Scenario(
        **points,
        irs_panels=tuple(_parse_panel(*e, params) for e in panels),
        bounds=Box(*(_point(bounds.get(key), f"geometry.bounds.{key}") for key in ("lo", "hi"))),
        params=params,
        optimizer=_section(raw, "optimizer", RcgConfig),
    )


# --- scenario variants -------------------------------------------------------

_DEFAULT_PANEL_ORIGINS = ((0.0, 7.0, 1.2), (10.0, 7.0, 1.2))


def with_irs_elements(scenario: Scenario, m: int) -> Scenario:
    """Scenario copy with the IRS resized to m total elements.

    Elements are split across the existing panel origins (two default wall
    positions when the scenario has none), each panel near-square; m = 0
    removes the IRS, and m < 0 or a non-integer m raises ``ConfigError``.
    """
    if not _is_kind(m, int):
        raise ConfigError(f"geometry.irs_panels: element count must be an integer, got {m!r}")
    if m < 0:
        raise ConfigError(f"geometry.irs_panels: element count must be >= 0, got {m}")
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


def derive(checked, **changes):
    """Copy of a checked frozen dataclass with ``changes``, which its checks
    do not read, so ``__post_init__`` is not run again.

    ``dataclasses.replace`` runs every check of the class anew; for a field
    the checks never see that only repeats work already done on ``checked``.
    """
    derived = object.__new__(type(checked))  # runs no __init__
    vars(derived).update(vars(checked), **changes)
    return derived


def with_codebook(scenario: Scenario, codebook: CodebookScenario) -> Scenario:
    """Scenario copy whose APs use the codebook's antenna and RF-chain counts.

    The new system parameters are checked; the geometry checks do not read
    them, so they are not repeated."""
    p = scenario.params
    if p.n_t == codebook.n_t and p.n_rf == codebook.n_rf:
        return scenario
    return derive(scenario, params=replace(p, n_t=codebook.n_t, n_rf=codebook.n_rf))


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
