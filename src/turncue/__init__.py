"""Deterministic multi-modal attention-cue engine for turn-taking signals
in simulated social-VR group conversations, plus the scenario harness that
replays the evaluation protocol against a seeded synthetic gaze agent.
"""

from .audio import Role, sound_source_position
from .baselines import SgdState, TextIconState, sgd_state, text_icon_state
from .config import GuidanceConfig, Method
from .configio import load_simulation, load_suite, parse_config
from .errors import (
    ConcurrentSignalError,
    ConfigError,
    DegenerateGeometryError,
    GuidanceError,
    InvalidDirectionError,
    ScriptError,
    TraceIntegrityError,
    TraceOrderError,
)
from .geometry import (
    AngularRange,
    DeviationReference,
    Pose,
    Side,
    Vec3,
    angular_deviation,
    deviation_to_target,
    lateral_side,
    normalized_progress,
)
from .lights import (
    ColorRGB,
    LightLevels,
    PointLightState,
    SpotlightGeometry,
    SpotlightState,
    env_light_intensity,
    env_light_with_fade,
    point_light_color,
    point_light_state,
    spot_cone_angle,
    spot_intensity,
    spotlight_state,
)
from .metrics import CellStats, MetricsSummary, extract_metrics, metrics_to_csv
from .scenario import (
    GazeAgentModel,
    ScenarioScript,
    StudyPlan,
    SuiteResult,
    TrialSpec,
    Turn,
    default_script,
    hexagon_seats,
    randomize_presentation,
    run_scenario,
    run_suite,
    suite_traces,
)
from .session import (
    IDLE,
    CueFrame,
    Idle,
    Resolved,
    SessionState,
    Signaled,
    begin_signal,
    response_time,
    tick,
)
from .trace import Trace, TraceMeta, TraceRecord, q9, read_trace, write_trace

__version__ = "0.1.0"
