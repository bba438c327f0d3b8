"""Deterministic synthetic-motion generator.

Each style is a bundle of per-joint oscillators layered on a standing pose,
optionally gated by pause patterns (freezes) or burst patterns (speed
spikes), plus seeded Gaussian jitter.  Gating warps the oscillator clock:
time stands still during a pause and runs fast during a burst, so tracks
stay continuous and pauses have exactly zero velocity.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import LmaError
from .sequence import JointSequence
from .skeleton import canonical_skeleton


@dataclass(frozen=True)
class Oscillator:
    amplitude: float  # meters
    frequency: float  # Hz
    phase: float = 0.0  # rad
    axis: tuple = (1.0, 0.0, 0.0)  # per-axis weights

    def __post_init__(self):
        if self.amplitude < 0 or self.frequency < 0:
            raise LmaError("oscillator amplitude and frequency must be >= 0")


@dataclass(frozen=True)
class StyleSpec:
    name: str
    base_pose: dict = field(default_factory=dict)  # role -> (x, y, z)
    oscillators: dict = field(default_factory=dict)  # role -> tuple of Oscillator
    pause_period: float | None = None  # seconds
    pause_duty: float = 1.0  # active fraction of each pause period
    burst_period: float | None = None  # seconds
    burst_fraction: float = 0.2  # bursting fraction of each burst period
    burst_gain: float = 0.0  # extra clock rate while bursting
    drift_radius: float = 0.0  # whole-body circular travel (m)
    drift_period: float = 8.0  # seconds per revolution
    noise_sigma: float = 0.0  # meters

    def __post_init__(self):
        if not 0.0 <= self.pause_duty <= 1.0:
            raise LmaError("pause_duty must lie in [0, 1]")
        if not 0.0 <= self.burst_fraction <= 1.0:
            raise LmaError("burst_fraction must lie in [0, 1]")
        if self.noise_sigma < 0:
            raise LmaError("noise_sigma must be >= 0")
        if self.burst_gain < 0:
            raise LmaError("burst_gain must be >= 0")


STANDING_POSE = {
    "head": (0.0, 1.65, 0.0),
    "left_shoulder": (-0.20, 1.45, 0.0),
    "right_shoulder": (0.20, 1.45, 0.0),
    "left_hand": (-0.30, 0.90, 0.05),
    "right_hand": (0.30, 0.90, 0.05),
    "torso": (0.0, 1.25, 0.0),
    "pelvis": (0.0, 1.00, 0.0),
    "left_knee": (-0.12, 0.55, 0.02),
    "right_knee": (0.12, 0.55, 0.02),
    "left_ankle": (-0.12, 0.10, 0.0),
    "right_ankle": (0.12, 0.10, 0.0),
    "left_foot": (-0.12, 0.02, 0.12),
    "right_foot": (0.12, 0.02, 0.12),
}


def _warped_clock(t, dt, spec):
    """Oscillator time s(t): frozen during pauses, accelerated during bursts."""
    rate = np.ones_like(t)
    if spec.pause_period is not None:
        active = (t % spec.pause_period) < spec.pause_duty * spec.pause_period
        rate = rate * active
    if spec.burst_period is not None and spec.burst_gain > 0:
        burst = (t % spec.burst_period) < spec.burst_fraction * spec.burst_period
        rate = rate * (1.0 + spec.burst_gain * burst)
    s = np.concatenate([[0.0], np.cumsum(rate[:-1]) * dt])
    return s


def generate(spec, duration, fps=60.0, seed=0):
    """One labeled sequence on the canonical 13-joint skeleton."""
    frames = duration * fps
    if not math.isfinite(frames):
        raise LmaError(f"duration * fps = {frames} frames is not a finite count")
    T = int(round(frames))
    if T < 2:
        raise LmaError("duration * fps must give at least 2 frames")
    skel = canonical_skeleton()
    dt = 1.0 / fps
    t = np.arange(T) * dt
    s = _warped_clock(t, dt, spec)

    pos = np.empty((T, skel.n_joints, 3))
    pose = dict(STANDING_POSE)
    pose.update(spec.base_pose)
    for j, name in enumerate(skel.joint_names):
        track = np.tile(np.asarray(pose[name], dtype=float), (T, 1))
        for osc in spec.oscillators.get(name, ()):
            wave = osc.amplitude * np.sin(2 * math.pi * osc.frequency * s + osc.phase)
            track += wave[:, None] * np.asarray(osc.axis, dtype=float)[None, :]
        pos[:, j, :] = track

    if spec.drift_radius > 0:
        ang = 2 * math.pi * s / spec.drift_period
        drift = spec.drift_radius * np.column_stack(
            [np.cos(ang) - 1.0, np.zeros_like(ang), np.sin(ang)]
        )
        pos += drift[:, None, :]

    if spec.noise_sigma > 0:
        rng = np.random.default_rng(np.random.SeedSequence([seed]))
        pos = pos + rng.normal(0.0, spec.noise_sigma, size=pos.shape)

    return JointSequence(fps=fps, positions=pos, skeleton=skel, label=spec.name)


def generate_corpus(specs, per_style, duration, fps=60.0, master_seed=42):
    """per_style sequences per spec, each with a unique group id.

    Every sequence gets its own derived seed; oscillator phases and tempi
    are jittered per sequence so recordings of one style differ in more
    than just noise.
    """
    if per_style < 3:
        raise LmaError("per_style must be >= 3 (grouped 3-fold CV needs 3 groups/class)")
    out = []
    for k, spec in enumerate(specs):
        for v in range(per_style):
            ss = np.random.SeedSequence([master_seed, k, v])
            rng = np.random.default_rng(ss)
            tempo = float(rng.uniform(0.92, 1.08))
            jittered = {}
            for role, oscs in spec.oscillators.items():
                jittered[role] = tuple(
                    replace(
                        o,
                        frequency=o.frequency * tempo,
                        phase=float(rng.uniform(0.0, 2 * math.pi)),
                    )
                    for o in oscs
                )
            variant = replace(spec, oscillators=jittered)
            seq = generate(variant, duration, fps=fps, seed=int(ss.generate_state(1)[0]))
            out.append(replace(seq, group_id=f"{spec.name}_{v:02d}"))
    return out


def _limb_osc(freq, amp, phase=0.0, axis=(0.7, 0.55, 0.45)):
    return Oscillator(amplitude=amp, frequency=freq, phase=phase, axis=axis)


def default_styles(noise_sigma=0.005):
    """Ten style signatures spanning smooth, paused, bursty and erratic motion."""
    mk = dict(noise_sigma=noise_sigma)
    styles = [
        # smooth periodic, moderate reach
        StyleSpec(
            name="glide",
            oscillators={
                "left_hand": (_limb_osc(1.0, 0.20),),
                "right_hand": (_limb_osc(1.0, 0.20, phase=math.pi),),
                "left_foot": (_limb_osc(0.5, 0.10),),
                "right_foot": (_limb_osc(0.5, 0.10, phase=math.pi),),
            },
            **mk,
        ),
        # slow, sweeping arcs
        StyleSpec(
            name="arc",
            oscillators={
                "left_hand": (_limb_osc(0.45, 0.38, axis=(0.3, 0.8, 0.5)),),
                "right_hand": (_limb_osc(0.45, 0.38, phase=1.2, axis=(0.3, 0.8, 0.5)),),
                "head": (_limb_osc(0.45, 0.06),),
            },
            **mk,
        ),
        # same energy as glide but frozen half the time
        StyleSpec(
            name="freeze",
            oscillators={
                "left_hand": (_limb_osc(1.0, 0.20),),
                "right_hand": (_limb_osc(1.0, 0.20, phase=math.pi),),
                "left_foot": (_limb_osc(0.5, 0.10),),
                "right_foot": (_limb_osc(0.5, 0.10, phase=math.pi),),
            },
            pause_period=1.6,
            pause_duty=0.5,
            **mk,
        ),
        # short sharp speed spikes
        StyleSpec(
            name="snap",
            oscillators={
                "left_hand": (_limb_osc(1.4, 0.16),),
                "right_hand": (_limb_osc(1.4, 0.16, phase=2.0),),
                "left_foot": (_limb_osc(0.9, 0.09),),
                "right_foot": (_limb_osc(0.9, 0.09, phase=2.0),),
            },
            burst_period=1.0,
            burst_fraction=0.15,
            burst_gain=4.0,
            **mk,
        ),
        # long heavy bursts at a different cadence
        StyleSpec(
            name="slam",
            oscillators={
                "left_hand": (_limb_osc(1.4, 0.16),),
                "right_hand": (_limb_osc(1.4, 0.16, phase=2.0),),
                "left_foot": (_limb_osc(0.9, 0.09),),
                "right_foot": (_limb_osc(0.9, 0.09, phase=2.0),),
            },
            burst_period=1.7,
            burst_fraction=0.35,
            burst_gain=7.0,
            **mk,
        ),
        # wide arm extension, quiet legs
        StyleSpec(
            name="reach",
            oscillators={
                "left_hand": (
                    _limb_osc(1.2, 0.42, axis=(0.9, 0.45, 0.1)),
                    _limb_osc(2.4, 0.08, axis=(0.0, 0.3, 1.0)),
                ),
                "right_hand": (
                    _limb_osc(1.2, 0.42, phase=0.8, axis=(0.9, 0.45, 0.1)),
                    _limb_osc(2.4, 0.08, phase=0.8, axis=(0.0, 0.3, 1.0)),
                ),
            },
            **mk,
        ),
        # busy footwork, hands quiet
        StyleSpec(
            name="stomp",
            oscillators={
                "left_foot": (_limb_osc(2.4, 0.14, axis=(0.3, 0.9, 0.4)),),
                "right_foot": (_limb_osc(2.4, 0.14, phase=math.pi, axis=(0.3, 0.9, 0.4)),),
                "left_knee": (_limb_osc(2.4, 0.08, axis=(0.3, 0.9, 0.2)),),
                "right_knee": (_limb_osc(2.4, 0.08, phase=math.pi, axis=(0.3, 0.9, 0.2)),),
                "left_hand": (_limb_osc(1.2, 0.05),),
                "right_hand": (_limb_osc(1.2, 0.05, phase=math.pi),),
            },
            **mk,
        ),
        # whole-body travel around the stage
        StyleSpec(
            name="orbit",
            oscillators={
                "left_hand": (_limb_osc(0.9, 0.12),),
                "right_hand": (_limb_osc(0.9, 0.12, phase=math.pi),),
            },
            drift_radius=0.45,
            drift_period=5.0,
            **mk,
        ),
        # erratic multi-frequency limbs
        StyleSpec(
            name="scatter",
            oscillators={
                "left_hand": (
                    _limb_osc(1.31, 0.22),
                    _limb_osc(2.73, 0.12, axis=(0.2, 0.9, 0.5)),
                    _limb_osc(0.71, 0.15, axis=(0.5, 0.1, 0.9)),
                ),
                "right_hand": (
                    _limb_osc(1.13, 0.22, phase=1.0),
                    _limb_osc(3.07, 0.12, phase=2.0, axis=(0.2, 0.9, 0.5)),
                ),
                "left_foot": (
                    _limb_osc(1.87, 0.12),
                    _limb_osc(0.93, 0.08, axis=(0.1, 0.8, 0.6)),
                ),
                "right_foot": (_limb_osc(2.21, 0.12, phase=0.5),),
                "head": (_limb_osc(1.61, 0.05),),
            },
            **mk,
        ),
        # low crouched pulse: pelvis and torso ride along
        StyleSpec(
            name="dip",
            base_pose={
                "pelvis": (0.0, 0.85, 0.0),
                "torso": (0.0, 1.08, 0.0),
                "head": (0.0, 1.45, 0.0),
            },
            oscillators={
                "pelvis": (_limb_osc(1.8, 0.09, axis=(0.1, 1.0, 0.1)),),
                "torso": (_limb_osc(1.8, 0.09, axis=(0.1, 1.0, 0.1)),),
                "head": (_limb_osc(1.8, 0.09, axis=(0.1, 1.0, 0.1)),),
                "left_hand": (_limb_osc(1.8, 0.13),),
                "right_hand": (_limb_osc(1.8, 0.13, phase=math.pi),),
            },
            **mk,
        ),
    ]
    assert len(styles) == 10
    return styles
