"""Comparison-method cue generators: text/icon notification and peripheral
flicker (SGD-style).

These produce state descriptors only; the harness compares timelines, not
pixels. Both follow the same session lifecycle as the guidance cues and
deactivate no later than acknowledgment or miss.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import DeviationReference, Pose, Vec3, deviation_to_target
from .session import SessionState, Signaled

FLICKER_HZ = 10.0

# World-space offset that floats the hand icon above the target avatar.
ICON_HEIGHT = 0.4


@dataclass(frozen=True)
class TextIconState:
    panel_active: bool
    panel_anchor: Vec3
    panel_text: str
    icon_active: bool
    icon_anchor: Vec3


@dataclass(frozen=True)
class SgdState:
    active: bool
    region_center: Vec3
    phase_on: bool


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
    return TextIconState(
        panel_active=active,
        panel_anchor=desk_anchor,
        panel_text=speaker_name if active else "",
        icon_active=active,
        icon_anchor=target + Vec3(0.0, ICON_HEIGHT, 0.0),
    )


def sgd_phase(now: float) -> bool:
    """10 Hz square wave: on during the first half of each 0.1 s period."""
    return int(now * FLICKER_HZ * 2.0) % 2 == 0


def sgd_state(
    state: SessionState,
    pose: Pose,
    target: Vec3,
    now: float,
    align_threshold: float,
) -> SgdState:
    """Peripheral flicker over the target region while the gaze is away.

    Modulation stops once the gaze comes within align_threshold of the
    target, and never runs outside an active signal.
    """
    active = False
    if isinstance(state, Signaled):
        gaze_dev = deviation_to_target(pose, target, DeviationReference.GAZE_TO_TARGET)
        active = gaze_dev > align_threshold
    return SgdState(
        active=active,
        region_center=target,
        phase_on=sgd_phase(now),
    )
