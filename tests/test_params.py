import math

import pytest

from rssdloc.channel import ChannelParams, TdoaNoiseParams
from rssdloc.errors import EmptyRegion
from rssdloc.fingerprint import CircularTrackParams
from rssdloc.geometry import DirectionalAntenna
from rssdloc.mobility import WaypointModelParams
from rssdloc.scenario import FingerprintConfig
from rssdloc.solver import SearchRegion

REGION = SearchRegion(-3.5, 3.5, -3.5, 3.5)

# (constructor, valid keyword arguments, the argument under test, error)
CHECKED = [
    (ChannelParams, {"alpha": 1.7, "sigma_beta": 2.0}, "alpha", ValueError),
    (ChannelParams, {"alpha": 1.7, "sigma_beta": 2.0}, "sigma_beta", ValueError),
    (ChannelParams, {"alpha": 1.7, "sigma_beta": 2.0}, "d0", ValueError),
    (ChannelParams, {"alpha": 1.7, "sigma_beta": 2.0}, "p0", ValueError),
    (TdoaNoiseParams, {}, "sigma_tdoa", ValueError),
    (SearchRegion, {"x_min": -1, "x_max": 1, "y_min": -1, "y_max": 1}, "x_min", EmptyRegion),
    (SearchRegion, {"x_min": -1, "x_max": 1, "y_min": -1, "y_max": 1}, "x_max", EmptyRegion),
    (SearchRegion, {"x_min": -1, "x_max": 1, "y_min": -1, "y_max": 1}, "y_min", EmptyRegion),
    (SearchRegion, {"x_min": -1, "x_max": 1, "y_min": -1, "y_max": 1}, "y_max", EmptyRegion),
    (SearchRegion, {"x_min": -1, "x_max": 1, "y_min": -1, "y_max": 1}, "coarse_step",
     ValueError),
    (DirectionalAntenna, {}, "gain_db", ValueError),
    (DirectionalAntenna, {}, "orientation", ValueError),
    (WaypointModelParams, {"area": REGION}, "total_length", ValueError),
    (WaypointModelParams, {"area": REGION}, "speed", ValueError),
    (WaypointModelParams, {"area": REGION}, "pause_time", ValueError),
    (WaypointModelParams, {"area": REGION}, "update_rate", ValueError),
    (CircularTrackParams, {}, "radius", ValueError),
    (FingerprintConfig, {}, "grid_step", ValueError),
    (FingerprintConfig, {}, "db_sigma_beta", ValueError),
]


@pytest.mark.parametrize("cls, kwargs, name, error", CHECKED,
                         ids=[f"{c.__name__}.{n}" for c, _, n, _ in CHECKED])
def test_nan_rejected(cls, kwargs, name, error):
    # NaN compares false both ways, so each check is written to fail on it
    cls(**kwargs)
    with pytest.raises(error):
        cls(**{**kwargs, name: math.nan})


@pytest.mark.parametrize("total_length", [math.inf, -math.inf])
def test_infinite_track_length_rejected(total_length):
    # +inf would never end generate_track's loop
    with pytest.raises(ValueError, match="total_length"):
        WaypointModelParams(area=REGION, total_length=total_length)
