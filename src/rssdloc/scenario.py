"""Scenario configuration: dataclasses plus YAML loading.

A scenario file describes the station layout, both channel presets, the
noise models, the mobility model, and the solver settings for one
experiment.  See the shipped files under scenarios/ for the two canonical
set-ups.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Dict, List, Optional

import yaml

from .channel import ChannelParams, ChannelPresets, Preset, TdoaNoiseParams
from .errors import UnknownKey
from .fingerprint import CircularTrackParams
from .geometry import (
    BaseStation,
    DirectionalAntenna,
    OmniAntenna,
    Point2D,
    Role,
)
from .mobility import WaypointModelParams
from .solver import AntennaModel, SearchRegion


class Mode(Enum):
    SIM_RSSD = "SIM_RSSD"
    SIM_RSSD_TDOA = "SIM_RSSD_TDOA"
    FP_RSSD = "FP_RSSD"
    FP_RSSD_TDOA = "FP_RSSD_TDOA"

    @property
    def is_sim(self) -> bool:
        return self in (Mode.SIM_RSSD, Mode.SIM_RSSD_TDOA)

    @property
    def uses_tdoa(self) -> bool:
        return self in (Mode.SIM_RSSD_TDOA, Mode.FP_RSSD_TDOA)


@dataclass
class FingerprintConfig:
    grid_step: float = 0.25
    excluded: List[Point2D] = field(default_factory=list)
    db_sigma_beta: float = 0.0  # shadow fading used while building the DB
    db_file: Optional[str] = None


@dataclass
class Scenario:
    name: str
    mode: Mode
    bs: List[BaseStation]
    region: SearchRegion
    presets: ChannelPresets = field(default_factory=ChannelPresets)
    preset: Preset = Preset.OMNI_DIR
    tdoa_noise: TdoaNoiseParams = field(default_factory=TdoaNoiseParams)
    antenna_model: AntennaModel = AntennaModel.DIRECTIONAL
    waypoint: Optional[WaypointModelParams] = None
    circular: Optional[CircularTrackParams] = None
    fingerprint: FingerprintConfig = field(default_factory=FingerprintConfig)
    seed: int = 0
    trials: int = 1

    def __post_init__(self):
        if self.mode.is_sim and self.waypoint is None:
            raise ValueError(f"mode {self.mode.value} requires a waypoint section")
        if not self.mode.is_sim and self.circular is None:
            raise ValueError(f"mode {self.mode.value} requires a circular section")
        if self.mode.uses_tdoa:
            tdoa_capable = [b for b in self.bs if b.role.measures_tdoa]
            if len(tdoa_capable) != 2:
                raise ValueError("TDOA modes need exactly two TDOA-capable stations")

    @property
    def channel(self) -> ChannelParams:
        return self.presets.select(self.preset)

    def with_mode(self, mode: Mode) -> "Scenario":
        return replace(self, mode=mode)

    def with_antenna_model(self, antenna_model: AntennaModel,
                           preset: Optional[Preset] = None) -> "Scenario":
        if preset is None:
            preset = (Preset.OMNI_DIR if antenna_model is AntennaModel.DIRECTIONAL
                      else Preset.OMNI_OMNI)
        bs = self.bs
        if antenna_model is AntennaModel.OMNI:
            bs = [replace(b, antenna=OmniAntenna()) for b in self.bs]
        return replace(self, antenna_model=antenna_model, preset=preset, bs=bs)


def _parse_station(d: Dict[str, Any]) -> BaseStation:
    antenna_cfg = d.get("antenna", "omni")
    if antenna_cfg == "omni" or antenna_cfg is None:
        antenna = OmniAntenna()
    else:
        antenna = DirectionalAntenna(
            gain_db=float(antenna_cfg.get("gain_db", 6.5)),
            orientation=math.radians(float(antenna_cfg.get("orientation_deg", 0.0))),
        )
    return BaseStation(
        id=int(d["id"]),
        position=Point2D(float(d["x"]), float(d["y"])),
        role=Role(d.get("role", "RSS_ONLY")),
        antenna=antenna,
        bias_db=float(d.get("bias_db", 0.0)),
    )


def _parse_channel(d: Dict[str, Any]) -> ChannelPresets:
    def params(sub: Dict[str, Any]) -> ChannelParams:
        return ChannelParams(
            alpha=float(sub["alpha"]),
            sigma_beta=float(sub["sigma_beta"]),
            p0=float(d.get("p0", -40.0)),
            d0=float(d.get("d0", 1.0)),
        )

    return ChannelPresets(omni_omni=params(d["omni_omni"]),
                          omni_dir=params(d["omni_dir"]))


def _parse_region(d: Dict[str, Any]) -> SearchRegion:
    return SearchRegion(
        x_min=float(d["x_min"]), x_max=float(d["x_max"]),
        y_min=float(d["y_min"]), y_max=float(d["y_max"]),
        coarse_step=float(d.get("coarse_step", 0.05)),
        refine_iterations=int(d.get("refine_iterations", 6)),
    )


# Every key a scenario file may hold.  A mapping lists its keys, a
# one-element list describes each entry of a list, and None marks a value.
_REGION_KEYS = dict.fromkeys(
    ["x_min", "x_max", "y_min", "y_max", "coarse_step", "refine_iterations"])
_SCHEMA: Dict[str, Any] = {
    **dict.fromkeys(["name", "mode", "antenna_model", "preset", "sigma_tdoa",
                     "seed", "trials"]),
    "stations": [{
        **dict.fromkeys(["id", "x", "y", "role", "bias_db"]),
        "antenna": dict.fromkeys(["gain_db", "orientation_deg"]),  # or "omni"
    }],
    "channel": {
        **dict.fromkeys(["p0", "d0"]),
        "omni_omni": dict.fromkeys(["alpha", "sigma_beta"]),
        "omni_dir": dict.fromkeys(["alpha", "sigma_beta"]),
    },
    "region": _REGION_KEYS,
    "waypoint": {
        **dict.fromkeys(["total_length", "speed", "pause_time", "update_rate"]),
        "area": _REGION_KEYS,
    },
    "circular": dict.fromkeys(["center_x", "center_y", "radius", "count",
                               "start_angle_deg", "step_angle_deg"]),
    "fingerprint": {
        **dict.fromkeys(["grid_step", "db_sigma_beta", "db_file"]),
        "excluded": [dict.fromkeys(["x", "y"])],
    },
}


def _unknown_key(path: str, key: str, schema: Any) -> UnknownKey:
    name = f"{path}.{key}" if path else key
    if not isinstance(schema, dict):
        return UnknownKey(f"unknown scenario key '{name}': '{path}' has no sub-keys")
    near = difflib.get_close_matches(key, list(schema), n=1)
    hint = (f"did you mean '{path + '.' if path else ''}{near[0]}'?" if near
            else f"valid keys: {', '.join(sorted(schema))}")
    return UnknownKey(f"unknown scenario key '{name}'; {hint}")


def _check_keys(node: Any, schema: Any, path: str = "") -> None:
    """Reject any key of node that schema does not list."""
    if isinstance(schema, dict) and isinstance(node, dict):
        for key, value in node.items():
            if key not in schema:
                raise _unknown_key(path, str(key), schema)
            _check_keys(value, schema[key], f"{path}.{key}" if path else str(key))
    elif isinstance(schema, list) and isinstance(node, list):
        for i, item in enumerate(node):
            _check_keys(item, schema[0], f"{path}[{i}]")


def scenario_from_dict(d: Dict[str, Any]) -> Scenario:
    _check_keys(d, _SCHEMA)
    region = _parse_region(d["region"])
    waypoint = None
    if "waypoint" in d:
        w = d["waypoint"]
        area = _parse_region(w["area"]) if "area" in w else region
        waypoint = WaypointModelParams(
            area=area,
            total_length=float(w.get("total_length", 18.0)),
            speed=float(w.get("speed", 1.0)),
            pause_time=float(w.get("pause_time", 0.0)),
            update_rate=float(w.get("update_rate", 2.0)),
        )
    circular = None
    if "circular" in d:
        c = d["circular"]
        circular = CircularTrackParams(
            center=Point2D(float(c.get("center_x", 1.5)),
                           float(c.get("center_y", 1.5))),
            radius=float(c.get("radius", 1.0)),
            count=int(c.get("count", 48)),
            start_angle_deg=float(c.get("start_angle_deg", -90.0)),
            step_angle_deg=float(c.get("step_angle_deg", 7.5)),
        )
    fp = FingerprintConfig()
    if "fingerprint" in d:
        f = d["fingerprint"]
        fp = FingerprintConfig(
            grid_step=float(f.get("grid_step", 0.25)),
            excluded=[Point2D(float(e["x"]), float(e["y"]))
                      for e in f.get("excluded", [])],
            db_sigma_beta=float(f.get("db_sigma_beta", 0.0)),
            db_file=f.get("db_file"),
        )
    return Scenario(
        name=str(d.get("name", "scenario")),
        mode=Mode(d["mode"]),
        bs=[_parse_station(s) for s in d["stations"]],
        region=region,
        presets=_parse_channel(d["channel"]) if "channel" in d else ChannelPresets(),
        preset=Preset(d.get("preset", "OMNI_DIR")),
        tdoa_noise=TdoaNoiseParams(float(d.get("sigma_tdoa", 330e-12))),
        antenna_model=AntennaModel(d.get("antenna_model", "DIRECTIONAL")),
        waypoint=waypoint,
        circular=circular,
        fingerprint=fp,
        seed=int(d.get("seed", 0)),
        trials=int(d.get("trials", 1)),
    )


def apply_overrides(d: Dict[str, Any], overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Apply dotted-path overrides (e.g. 'waypoint.update_rate') to a dict.

    A path must name a scenario key, whether or not d holds it yet.
    """
    for path, value in overrides.items():
        keys = path.split(".")
        schema = _SCHEMA
        for depth, k in enumerate(keys):
            if not isinstance(schema, dict) or k not in schema:
                raise _unknown_key(".".join(keys[:depth]), k, schema)
            schema = schema[k]
        node = d
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    return d


def load_scenario(path, overrides: Optional[Dict[str, Any]] = None) -> Scenario:
    with open(path) as f:
        d = yaml.safe_load(f)
    if overrides:
        apply_overrides(d, overrides)
    return scenario_from_dict(d)
