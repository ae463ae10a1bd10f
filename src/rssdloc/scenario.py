"""Scenario configuration: dataclasses plus YAML loading.

A scenario file describes the station layout, both channel presets, the
noise models, the mobility model, and the solver settings for one
experiment.  See the shipped files under scenarios/ for the two canonical
set-ups.

The parsers below are the file format: a key is valid because a parser
reads it, and a key a file leaves out takes the dataclass default unless
the parser requires it.  A missing required key or a value that fails its
check raises InvalidScenario, which names the key's dotted path.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Type

import yaml

from .channel import ChannelParams, ChannelPresets, TdoaNoiseParams
from .errors import InvalidScenario, LocalizationError, UnknownKey
from .fingerprint import CircularTrackParams, grid
from .geometry import (
    BaseStation,
    DirectionalAntenna,
    OmniAntenna,
    Point2D,
    Role,
    Stations,
)
from .mobility import WaypointModelParams
from .solver import AntennaModel, SearchRegion, SolverConfig


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

    def __post_init__(self):
        if not self.grid_step > 0:
            raise ValueError(f"grid_step must be > 0, got {self.grid_step}")
        if not self.db_sigma_beta >= 0:
            raise ValueError(f"db_sigma_beta must be >= 0, got {self.db_sigma_beta}")


@dataclass
class Scenario:
    """One experiment.

    antenna_model is the one antenna switch.  OMNI runs every station as
    omni, in stations, and the omni-omni channel preset; DIRECTIONAL runs
    the omni-directional preset and needs a directional antenna on every
    RSS station.  bs stays as configured under either model.
    """

    name: str
    mode: Mode
    bs: List[BaseStation]
    region: SearchRegion
    presets: ChannelPresets = field(default_factory=ChannelPresets)
    tdoa_noise: TdoaNoiseParams = field(default_factory=TdoaNoiseParams)
    antenna_model: AntennaModel = AntennaModel.DIRECTIONAL
    waypoint: Optional[WaypointModelParams] = None
    circular: Optional[CircularTrackParams] = None
    fingerprint: FingerprintConfig = field(default_factory=FingerprintConfig)
    seed: int = 0
    trials: int = 1
    # of bs, as the antenna model runs it
    stations: Stations = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidScenario(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise InvalidScenario(f"seed must be >= 0, got {self.seed}")
        if self.mode.is_sim and self.waypoint is None:
            raise InvalidScenario(f"mode {self.mode.value} requires a waypoint section")
        if not self.mode.is_sim and self.circular is None:
            raise InvalidScenario(f"mode {self.mode.value} requires a circular section")
        if self.mode.is_sim and self.waypoint.total_length <= 0:
            raise InvalidScenario(f"waypoint.total_length must be > 0, got "
                                  f"{self.waypoint.total_length}")
        bs = self.bs
        if self.antenna_model is AntennaModel.OMNI:
            bs = [replace(b, antenna=OmniAntenna()) for b in bs]
        try:
            self.stations = Stations.of(bs)
            pair = self.stations.pair()
            # the solver's own check of the antennas against the model
            SolverConfig(self.channel, self.stations, self.region, self.antenna_model)
        except ValueError as e:
            raise InvalidScenario(str(e)) from e
        if self.mode.uses_tdoa:
            if pair is None:
                raise InvalidScenario("TDOA modes need exactly two TDOA-capable stations")
            if len(set(self.stations.tdoa.values())) < 2:
                raise InvalidScenario("the two TDOA-capable stations coincide")
        if not self.mode.is_sim and not self.fingerprint.db_file:  # checked before any trial
            grid(self.stations, self.region, self.fingerprint.grid_step, self.fingerprint.excluded)

    @property
    def channel(self) -> ChannelParams:
        """The channel preset of this scenario's antenna combination."""
        if self.antenna_model is AntennaModel.DIRECTIONAL:
            return self.presets.omni_dir
        return self.presets.omni_omni

    def with_mode(self, mode: Mode) -> "Scenario":
        return replace(self, mode=mode)

    def with_antenna_model(self, antenna_model: AntennaModel) -> "Scenario":
        return replace(self, antenna_model=antenna_model)


# A parser is a function of (value, path), path naming the value in the file
# for error messages.  A mapping parser lists every key it reads.
Parser = Callable[[Any, str], Any]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _unknown_key(path: str, key: str, valid: Optional[Mapping]) -> UnknownKey:
    name = _join(path, key)
    if valid is None:
        return UnknownKey(f"unknown scenario key '{name}': '{path}' has no sub-keys")
    near = difflib.get_close_matches(key, list(valid), n=1)
    hint = (f"did you mean '{path + '.' if path else ''}{near[0]}'?" if near
            else f"valid keys: {', '.join(sorted(valid))}")
    return UnknownKey(f"unknown scenario key '{name}'; {hint}")


def _checked(parse: Parser, value: Any, path: str) -> Any:
    """parse(value, path), a rejected value raising InvalidScenario."""
    try:
        return parse(value, path)
    except LocalizationError:
        raise
    except (ValueError, TypeError) as e:
        where = f" key '{path}'" if path else ""
        raise InvalidScenario(f"invalid scenario{where}: {e}") from e


def _mapping(d: Any, path: str, parsers: Mapping[str, Parser],
             required: Sequence[str] = ()) -> Dict[str, Any]:
    """Parse the keys of one mapping, leaving out the keys d lacks.

    A key of d that parsers does not list raises UnknownKey; a required key
    that d lacks raises InvalidScenario.
    """
    if not isinstance(d, dict):
        raise InvalidScenario(f"{path or 'a scenario'} must be a mapping, got {d!r}")
    for key in d:
        if key not in parsers:
            raise _unknown_key(path, str(key), parsers)
    for key in required:
        if key not in d:
            raise InvalidScenario(f"missing scenario key '{_join(path, key)}'")
    return {key: _checked(parse, d[key], _join(path, key))
            for key, parse in parsers.items() if key in d}


def _fields(parsers: Mapping[str, Parser], build: Callable = dict,
            required: Sequence[str] = ()) -> Parser:
    """Parser of a mapping whose parsed keys are the keyword arguments of build."""
    return lambda d, path: build(**_mapping(d, path, parsers, required))


def _no_sub_keys(value: Any, path: str) -> None:
    if isinstance(value, dict):
        raise _unknown_key(path, str(next(iter(value), "")), None)


def _value(convert: Callable[[Any], Any]) -> Parser:
    def parse(value, path):
        _no_sub_keys(value, path)
        return convert(value)
    return parse


def _list(parse_entry: Parser) -> Parser:
    def parse(value, path):
        _no_sub_keys(value, path)
        return [_checked(parse_entry, v, f"{path}[{i}]") for i, v in enumerate(value)]
    return parse


def _finite(value: Any) -> float:
    """value as a finite float; a boolean, NaN or infinity raises ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    f = float(value)
    if not math.isfinite(f):
        raise ValueError(f"expected a finite number, got {value!r}")
    return f


def _whole(value: Any) -> int:
    """value as an int; a boolean, a non-finite or a non-whole number raises
    ValueError, and a whole float such as 2.0 reads as 2."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    f = _finite(value)
    if not f.is_integer():
        raise ValueError(f"expected a whole number, got {value!r}")
    return int(f)


_FLOAT, _INT, _STR = _value(_finite), _value(_whole), _value(str)


def _member(cls: Type[Enum], value: Any) -> Enum:
    """cls(value); an unknown value raises ValueError naming the nearest valid one."""
    names = [m.value for m in cls]
    if value not in names:
        near = difflib.get_close_matches(str(value), names, n=1, cutoff=0.0)[0]
        raise ValueError(f"unknown {cls.__name__} {value!r}; did you mean '{near}'? "
                         f"(valid: {', '.join(names)})")
    return cls(value)


def _enum(cls: Type[Enum]) -> Parser:
    return _value(lambda v: _member(cls, v))


def parse_mode(name: str) -> Mode:
    """The Mode called name; an unknown name raises InvalidScenario naming the nearest."""
    try:
        return _member(Mode, name)
    except ValueError as e:
        raise InvalidScenario(str(e)) from None


def _antenna(value: Any, path: str):
    if value is None or value == "omni":
        return OmniAntenna()
    f = _mapping(value, path, {"gain_db": _FLOAT, "orientation_deg": _FLOAT})
    if "orientation_deg" in f:
        f["orientation"] = math.radians(f.pop("orientation_deg"))
    return DirectionalAntenna(**f)


def _station(d: Any, path: str) -> BaseStation:
    f = _mapping(d, path, {"id": _INT, "x": _FLOAT, "y": _FLOAT,
                           "role": _enum(Role), "antenna": _antenna,
                           "bias_db": _FLOAT}, required=("id", "x", "y"))
    f["position"] = Point2D(f.pop("x"), f.pop("y"))
    return BaseStation(**f)


def _channel(d: Any, path: str) -> ChannelPresets:
    preset = _fields({"alpha": _FLOAT, "sigma_beta": _FLOAT},
                     required=("alpha", "sigma_beta"))
    f = _mapping(d, path, {"p0": _FLOAT, "d0": _FLOAT,
                           "omni_omni": preset, "omni_dir": preset},
                 required=("omni_omni", "omni_dir"))
    reference = {k: f[k] for k in ("p0", "d0") if k in f}
    return ChannelPresets(omni_omni=ChannelParams(**f["omni_omni"], **reference),
                          omni_dir=ChannelParams(**f["omni_dir"], **reference))


def _circular(d: Any, path: str) -> CircularTrackParams:
    f = _mapping(d, path, {"center_x": _FLOAT, "center_y": _FLOAT,
                           "radius": _FLOAT, "count": _INT,
                           "start_angle_deg": _FLOAT, "step_angle_deg": _FLOAT})
    center = CircularTrackParams.center  # the class attribute is the default
    f["center"] = Point2D(f.pop("center_x", center.x), f.pop("center_y", center.y))
    return CircularTrackParams(**f)


_BOUNDS = ("x_min", "x_max", "y_min", "y_max")
_region = _fields({**dict.fromkeys(_BOUNDS + ("coarse_step",), _FLOAT),
                   "refine_iterations": _INT}, SearchRegion, required=_BOUNDS)

_SCENARIO: Dict[str, Parser] = {
    "name": _STR,
    "mode": _enum(Mode),
    "antenna_model": _enum(AntennaModel),
    "seed": _INT,
    "trials": _INT,
    "sigma_tdoa": _value(lambda v: TdoaNoiseParams(_finite(v))),
    "stations": _list(_station),
    "channel": _channel,
    "region": _region,
    # the track moves over the search region
    "waypoint": _fields(dict.fromkeys(
        ["total_length", "speed", "pause_time", "update_rate"], _FLOAT)),
    "circular": _circular,
    "fingerprint": _fields({"grid_step": _FLOAT,
                            "excluded": _list(_fields({"x": _FLOAT, "y": _FLOAT},
                                                      Point2D, required=("x", "y"))),
                            "db_sigma_beta": _FLOAT,
                            "db_file": _STR}, FingerprintConfig),
}
# scenario file key -> Scenario field, where the two differ
_FIELD = {"stations": "bs", "channel": "presets", "sigma_tdoa": "tdoa_noise"}


def _scenario(d: Any, path: str) -> Scenario:
    f = _mapping(d, path, _SCENARIO, required=("mode", "stations", "region"))
    if "waypoint" in f:
        f["waypoint"] = WaypointModelParams(f["region"], **f["waypoint"])
    return Scenario(**{"name": "scenario",
                       **{_FIELD.get(k, k): v for k, v in f.items()}})


def scenario_from_dict(d: Dict[str, Any]) -> Scenario:
    return _checked(_scenario, d, "")


def apply_overrides(d: Dict[str, Any], overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Apply dotted-path overrides (e.g. 'waypoint.update_rate') to a dict.

    scenario_from_dict then checks the overridden keys as it checks a file.
    """
    for path, value in overrides.items():
        keys = path.split(".")
        node = d
        for depth, k in enumerate(keys[:-1]):
            node = node.setdefault(k, {})
            if not isinstance(node, dict):
                raise _unknown_key(".".join(keys[:depth + 1]), keys[depth + 1], None)
        node[keys[-1]] = value
    return d


def load_scenario(path, overrides: Optional[Dict[str, Any]] = None) -> Scenario:
    """Scenario of a YAML file, with dotted-path overrides applied.

    A file that cannot be read, is not YAML, or does not hold a mapping
    raises InvalidScenario naming the path.
    """
    try:
        with open(path) as f:
            d = yaml.safe_load(f)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as e:
        raise InvalidScenario(f"cannot read scenario file {str(path)!r}: {e}") from e
    if not isinstance(d, dict):
        raise InvalidScenario(f"scenario file {str(path)!r} must hold a mapping, "
                              f"got {type(d).__name__}")
    if overrides:
        apply_overrides(d, overrides)
    return scenario_from_dict(d)
