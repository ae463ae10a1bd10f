"""TDOA-assisted RSSD indoor localization: simulation, fingerprinting, and
a cross-correlation UWB receiver front end."""

from .geometry import (
    SPEED_OF_LIGHT,
    BaseStation,
    CanonicalFrame,
    DirectionalAntenna,
    Hyperbola,
    OmniAntenna,
    Point2D,
    Role,
    Stations,
    distance,
    hyperbola_x_of_y,
    project_onto_hyperbola,
)
from .channel import (
    ChannelParams,
    ChannelPresets,
    MeasurementSet,
    TdoaNoiseParams,
    received_power,
    simulate_measurements,
    simulate_rss,
)
from .solver import (
    AntennaModel,
    SearchRegion,
    SolverConfig,
    rssd_objective,
    solve_rssd,
    solve_rssd_tdoa,
)
from .mobility import (
    WaypointModelParams,
    generate_track,
    misorientation,
    update_orientation,
)
from .fingerprint import (
    CircularTrackParams,
    FingerprintDB,
    build_db,
    circular_track,
    coarse_estimate,
    refine_with_tdoa,
)
from .receiver import (
    CorrelationResult,
    SignalSpec,
    Waveform,
    correlate_and_detect,
    estimate_tdoa,
    generate_signal,
    rss_from_correlation,
    transmit_template,
)
from .scenario import Mode, Scenario, load_scenario
from .harness import RunReport, Summary, aggregate, run_scenario, run_trial

__version__ = "0.1.0"
