"""Every value type is a NamedTuple, equal to the tuple of its fields. A checked
one rejects a bad value in its constructor, _make and _replace alike, with the
message its check gives."""

import math
import pickle
import re

import pytest

from turncue.baselines import SgdState, TextIconState
from turncue.config import GuidanceConfig
from turncue.errors import ConfigError, InvalidDirectionError, ScriptError
from turncue.geometry import AngularRange, Pose, Vec3
from turncue.lights import ColorRGB, LightLevels, SpotlightGeometry
from turncue.metrics import extract_metrics
from turncue.scenario import (
    GazeAgentModel,
    Method,
    StudyPlan,
    SuiteResult,
    TrialSpec,
    Turn,
    default_script,
)
from turncue.session import IDLE, Idle, Resolved, Signaled, begin_signal
from turncue.trace import Role

AHEAD = Vec3(0.0, 0.0, 1.0)

# (a valid value, fields that make it invalid, the error and its message)
CHECKED = {
    "Pose": (Pose(Vec3(0, 0, 0), AHEAD, AHEAD, 0.0), {"head_forward": Vec3(2.0, 0.0, 0.0)},
             InvalidDirectionError, "head_forward has length 2.00000000, expected 1"),
    "Pose-gaze": (Pose(Vec3(0, 0, 0), AHEAD, AHEAD, 0.0), {"gaze_forward": Vec3(0.0, 0.5, 0.0)},
                  InvalidDirectionError, "gaze_forward has length 0.50000000, expected 1"),
    "Pose-position": (Pose(Vec3(0, 0, 0), AHEAD, AHEAD, 0.0), {"position": Vec3(math.nan, 1, 0)},
                      ConfigError, "position=(nan, 1, 0) must be finite"),
    "Pose-position-inf": (Pose(Vec3(0, 0, 0), AHEAD, AHEAD, 0.0), {"position": Vec3(0.0, 0.0, -math.inf)},
                          ConfigError, "position=(0.0, 0.0, -inf) must be finite"),
    "Pose-timestamp": (Pose(Vec3(0, 0, 0), AHEAD, AHEAD, 0.0), {"timestamp": math.nan},
                       ConfigError, "timestamp=nan must be finite"),
    "Pose-timestamp-inf": (Pose(Vec3(0, 0, 0), AHEAD, AHEAD, 0.0), {"timestamp": math.inf},
                           ConfigError, "timestamp=inf must be finite"),
    "AngularRange": (AngularRange(0.0, 45.0), {"theta_max": 0.0}, ConfigError, "theta_max=0.0 must exceed theta_min=0.0"),
    "LightLevels": (LightLevels(0.5, 1.1), {"l_min": 2.0}, ConfigError,
                    "light levels require 0 <= l_min < l_max < inf, got [2.0, 1.1]"),
    "SpotlightGeometry": (SpotlightGeometry(30.0, 60.0), {"a_max": 200.0}, ConfigError,
                          "spotlight cone requires 0 < a_min < a_max <= 180, got [30.0, 200.0]"),
    "ColorRGB": (ColorRGB(1.0, 1.0, 1.0), {"g": 1.5}, ConfigError, "color channel g=1.5 must lie in [0, 1]"),
    "GuidanceConfig": (GuidanceConfig(), {"duck_gain": 1.0}, ConfigError, "duck_gain=1.0 must lie in [0, 1)"),
    "Turn": (Turn("a1", 10.0), {"speaker": "a9"}, ScriptError, "turn references unknown speaker id 'a9'"),
    "ScenarioScript": (default_script(Method.LIGHT, Role.LISTENER), {"signal_offset": 0.0}, ScriptError,
                       "signal_offset=0.0 must be finite and > 0"),
    "GazeAgentModel": (GazeAgentModel(), {"head_speed": 0.0}, ScriptError,
                       "agent head_speed=0.0 must be finite and > 0"),
    "TrialSpec": (TrialSpec(0, 0, Method.SGD, Role.LISTENER, 4, 0, ("A", "B", "C", "D", "E")), {"order_index": -1},
                  ScriptError, "order_index=-1 must be >= 0"),
    "StudyPlan": (StudyPlan(participants=1), {"participants": -1}, ScriptError, "participants=-1 must be >= 0"),
}


@pytest.mark.parametrize("good,bad,error,message", CHECKED.values(), ids=CHECKED)
def test_a_checked_value_type_rejects_a_bad_value_however_it_is_built(good, bad, error, message):
    cls = type(good)
    values = [bad.get(name, value) for name, value in zip(cls._fields, good)]
    builds = (lambda: cls(*values), lambda: cls(**dict(zip(cls._fields, values))), lambda: cls._make(values),
              lambda: good._replace(**bad))
    for build in builds:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()
    assert cls(*good) == cls._make(good) == good._replace() == good == tuple(good)


@pytest.mark.parametrize("good", [good for good, *_ in CHECKED.values()], ids=CHECKED)
def test_a_checked_value_pickles_as_its_own_class(good):
    copy = pickle.loads(pickle.dumps(good))
    assert type(copy) is type(good) and copy == good
    assert type(good).__name__ == type(good).__qualname__ and repr(good).startswith(type(good).__name__ + "(")


def test_every_value_type_is_a_named_tuple_equal_to_its_fields():
    unchecked = (TextIconState(True, AHEAD, "Alex", True, AHEAD), SgdState(False, AHEAD),
                 Resolved(1.0, 0.5, Role.LISTENER, True), SuiteResult((), extract_metrics(())),
                 begin_signal(IDLE, Pose(Vec3(0, 0, 0), AHEAD, AHEAD, 0.0), Vec3(1.0, 0.0, 0.0), Role.SPEAKER,
                              GuidanceConfig()))
    for value in (*(good for good, *_ in CHECKED.values()), *unchecked, IDLE):
        cls = type(value)
        assert isinstance(value, tuple) and len(cls._fields) == len(value), cls
        assert value == tuple(value) and not hasattr(cls, "__dataclass_fields__"), cls
    assert AngularRange(0, 45) == LightLevels(0, 45) == (0, 45)


def test_idle_is_true_and_equals_every_idle():
    # A tuple of no fields is false; a session state never is.
    assert bool(IDLE) and bool(Idle()) and IDLE == Idle() == Idle() and repr(IDLE) == "Idle()"
    assert isinstance(IDLE, Idle) and not isinstance(IDLE, Signaled)
