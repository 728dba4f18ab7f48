"""The package imports each public name's module on first use (PEP 562), and
each CLI subcommand imports only the layers it runs."""

import hashlib
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pins
import pytest

import turncue
from turncue.cli import cli

REPO = Path(__file__).resolve().parents[1]

# Every name the package exported when its __init__ imported every module, and
# the module that defines it.
EXPORTS = {
    "Role": "audio", "sound_source_position": "audio",
    "SgdState": "baselines", "TextIconState": "baselines", "sgd_state": "baselines", "text_icon_state": "baselines",
    "GuidanceConfig": "config", "Method": "config",
    "load_simulation": "configio", "load_suite": "configio", "parse_config": "configio",
    "ConcurrentSignalError": "errors", "ConfigError": "errors", "DegenerateGeometryError": "errors",
    "GuidanceError": "errors", "InvalidDirectionError": "errors", "ScriptError": "errors",
    "TraceIntegrityError": "errors", "TraceOrderError": "errors",
    "AngularRange": "geometry", "DeviationReference": "geometry", "Pose": "geometry", "Side": "geometry",
    "Vec3": "geometry", "angular_deviation": "geometry", "deviation_to_target": "geometry",
    "lateral_side": "geometry",
    "ColorRGB": "lights", "LightLevels": "lights", "PointLightState": "lights", "SpotlightGeometry": "lights",
    "SpotlightState": "lights", "env_light_with_fade": "lights", "light_intensity": "lights",
    "point_light_color": "lights", "point_light_state": "lights", "spot_cone_angle": "lights",
    "spotlight_state": "lights",
    "CellStats": "metrics", "MetricsSummary": "metrics", "extract_metrics": "metrics", "metrics_to_csv": "metrics",
    "GazeAgentModel": "scenario", "ScenarioScript": "scenario", "StudyPlan": "scenario", "SuiteResult": "scenario",
    "TrialSpec": "scenario", "Turn": "scenario", "default_script": "scenario", "hexagon_seats": "scenario",
    "randomize_presentation": "scenario", "run_scenario": "scenario", "run_suite": "scenario",
    "suite_traces": "scenario",
    "IDLE": "session", "CueFrame": "session", "Idle": "session", "Resolved": "session",
    "SessionState": "session", "Signaled": "session", "begin_signal": "session", "response_time": "session",
    "tick": "session",
    "Trace": "trace", "TraceMeta": "trace", "TraceRecord": "trace", "q9": "trace", "read_trace": "trace",
    "write_trace": "trace",
}


def _turncue_modules_after(*argv: str) -> set[str]:
    """The turncue modules, and dataclasses and inspect if loaded, that a fresh
    interpreter holds after running argv (the arguments of `python -c`), which
    prints nothing else on stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


_PRINT_MODULES = "print(*(m for m in sys.modules if m.partition('.')[0] in ('turncue', 'dataclasses', 'inspect')))"


def test_importing_the_trace_module_loads_only_it_and_the_errors():
    assert _turncue_modules_after(f"import sys, turncue.trace; {_PRINT_MODULES}") == {
        "turncue", "turncue.errors", "turncue.trace",
    }


def test_metrics_over_the_reference_traces_loads_no_scenario_session_baseline_or_config_reader(tmp_path, capsys):
    # Nor the cue channels, as the trace names its roles and methods itself,
    # nor dataclasses and the inspect module that it imports.
    out_dir = tmp_path / "traces"
    assert cli([
        "suite", "--plan", str(REPO / "configs" / "study.cfg"), "--participants", "1", "--seed", "7",
        "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()
    csv = tmp_path / "summary.csv"
    loaded = _turncue_modules_after(
        "import contextlib, sys; from turncue.cli import cli\n"
        "with open(sys.argv[1], 'w') as out, contextlib.redirect_stdout(out):\n"
        "    assert cli(['metrics', *sys.argv[2:]]) == 0\n"
        + _PRINT_MODULES,
        str(csv), *map(str, sorted(out_dir.iterdir())),
    )
    assert hashlib.md5(csv.read_bytes()).hexdigest() == pins.REFERENCE_CSV_MD5
    assert {"turncue.cli", "turncue.metrics", "turncue.trace"} <= loaded
    assert not loaded & {"turncue.scenario", "turncue.session", "turncue.baselines", "turncue.configio"}
    assert not loaded & {"turncue.audio", "turncue.config", "turncue.geometry", "turncue.lights"}
    assert not loaded & {"dataclasses", "inspect"}


def test_the_value_type_modules_load_no_dataclasses_or_inspect():
    loaded = _turncue_modules_after(f"import sys, turncue.cli, turncue.scenario, turncue.configio; {_PRINT_MODULES}")
    assert {"turncue.scenario", "turncue.configio", "turncue.session", "turncue.baselines"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("args", [
    ["suite", "--plan", str(REPO / "configs" / "study.cfg"), "--participants", "1", "--seed", "7", "--out-dir", "{tmp}"],
    ["simulate", "--script", str(REPO / "configs" / "listener_light_audio.cfg"), "--out", "{tmp}/t.jsonl"],
], ids=["suite", "simulate"])
def test_suite_and_simulate_load_no_dataclasses_or_inspect(tmp_path, args):
    loaded = _turncue_modules_after(
        "import contextlib, io, sys; from turncue.cli import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli(sys.argv[1:]) == 0\n"
        + _PRINT_MODULES,
        *(a.replace("{tmp}", str(tmp_path)) for a in args),
    )
    assert {"turncue.cli", "turncue.scenario", "turncue.session"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_eval_with_a_config_file_loads_no_scenario():
    loaded = _turncue_modules_after(
        "import contextlib, io, sys; from turncue.cli import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli(['eval', '--channel', 'point', '--theta-max', '90', '--config', sys.argv[1]]) == 0\n"
        + _PRINT_MODULES,
        str(REPO / "configs" / "default.cfg"),
    )
    assert {"turncue.cli", "turncue.configio", "turncue.lights"} <= loaded
    assert not loaded & {"turncue.scenario", "turncue.session", "turncue.baselines", "turncue.metrics"}


def test_every_public_name_is_the_object_of_its_defining_module():
    for name, module in EXPORTS.items():
        assert getattr(turncue, name) is getattr(importlib.import_module(f"turncue.{module}"), name), name
    assert sorted(dir(turncue)) == sorted(turncue.__all__) == sorted(EXPORTS)
    star: dict = {}
    exec("from turncue import *", star)
    assert set(star) - {"__builtins__"} == set(EXPORTS)
    assert turncue.__version__ == "0.1.0"


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="^module 'turncue' has no attribute 'no_such_name'$"):
        turncue.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from turncue import no_such_name", {})
