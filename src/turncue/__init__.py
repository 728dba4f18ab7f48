"""Deterministic multi-modal attention-cue engine for turn-taking signals
in simulated social-VR group conversations, plus the scenario harness that
replays the evaluation protocol against a seeded synthetic gaze agent.

Each public name is imported from its submodule on first use (PEP 562), so
`import turncue.trace` loads `errors` and `trace` only.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "audio": "sound_source_position",
    "baselines": "SgdState TextIconState sgd_state text_icon_state",
    "config": "GuidanceConfig",
    "configio": "load_simulation load_suite parse_config",
    "errors": "ConcurrentSignalError ConfigError DegenerateGeometryError GuidanceError InvalidDirectionError "
              "ScriptError TraceIntegrityError TraceOrderError",
    "geometry": "AngularRange DeviationReference Pose Vec3 angular_deviation deviation_to_target lateral_side",
    "lights": "ColorRGB LightLevels PointLightState SpotlightGeometry SpotlightState env_light_with_fade "
              "light_intensity point_light_color point_light_state spot_cone_angle spotlight_state",
    "metrics": "CellStats MetricsSummary extract_metrics metrics_to_csv",
    "scenario": "GazeAgentModel ScenarioScript StudyPlan SuiteResult TrialSpec Turn default_script hexagon_seats "
                "randomize_presentation run_scenario run_suite suite_traces",
    "session": "IDLE CueFrame Idle Resolved SessionState Signaled begin_signal response_time tick",
    "trace": "Method Role Side Trace TraceMeta TraceRecord q9 read_trace write_trace",
}
_SUBMODULE = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names.split()}
__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return list(__all__)
