"""Comparison-method cue generators: text/icon notification and peripheral
flicker (SGD-style).

These produce state descriptors only; the harness compares timelines, not
pixels. Both follow the same session lifecycle as the guidance cues and
deactivate no later than acknowledgment or miss.
"""

from __future__ import annotations

from typing import NamedTuple

from .geometry import Pose, Vec3, _unit_angle, direction_to
from .session import SessionState, Signaled

FLICKER_HZ = 10.0

# World-space offset that floats the hand icon above the target avatar.
ICON_OFFSET = Vec3(0.0, 0.4, 0.0)


class TextIconState(NamedTuple):
    panel_active: bool
    panel_anchor: Vec3
    panel_text: str
    icon_active: bool
    icon_anchor: Vec3


class SgdState(NamedTuple):
    active: bool
    region_center: Vec3


def text_icon_state(
    state: SessionState,
    target: Vec3,
    speaker_name: str,
    desk_anchor: Vec3,
) -> TextIconState:
    """Desk-fixed name panel plus a hand icon above the signaling avatar.

    Active exactly while the signal is pending; both anchors are world-fixed.
    """
    active = isinstance(state, Signaled)
    return TextIconState(active, desk_anchor, speaker_name if active else "", active, target + ICON_OFFSET)


def sgd_phase(now: float) -> bool:
    """10 Hz square wave: on during the first half of each 0.1 s period."""
    return int(now * FLICKER_HZ * 2.0) % 2 == 0


def sgd_state(
    state: SessionState,
    pose: Pose,
    target: Vec3,
    now: float,
    align_threshold: float,
    gaze_theta: float | None = None,
) -> SgdState:
    """Peripheral flicker over the target region while the gaze is away.

    Modulation stops once the gaze comes within align_threshold of the
    target, and never runs outside an active signal. gaze_theta, the gaze
    angle to the target at pose if the caller has it (tick's), is not redone.
    """
    active = False
    if isinstance(state, Signaled):
        if gaze_theta is None:
            gaze_theta = _unit_angle(pose.gaze_forward, direction_to(pose.position, target))
        active = gaze_theta > align_threshold
    return SgdState(active, target)
