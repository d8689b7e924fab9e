"""Phase-drift simulation and the active stabilization loop.

The long interferometer arm picks up an environmentally driven phase drift,
modeled as a random walk or an Ornstein-Uhlenbeck process.  A reference
laser propagating through the same paths produces an interference signal
whose mean level and contrast both wander slowly (multimode speckle), so
the controller cannot servo on absolute intensity.  Instead the photodiode
output is a-c coupled (first-order high-pass removes the offset) and the
loop locks at quadrature, the +-45 degree points where the error slope is
maximal and the zero crossing is independent of the wandering contrast.
A discrete PID with clamped actuator, anti-windup and first-order actuator
lag closes the loop; the residual phase trace is what the photonics layer
turns into a dephasing visibility factor.

The reference fringe is written as dc [1 + v cos(2 phi)] so that the
quadrature set points sit at phi = +-pi/4 as the control system defines
them (the pattern in phi is the usual cosine-squared shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractViolation

RANDOM_WALK = "random-walk"
OU = "ou"


@dataclass(frozen=True)
class DriftProcess:
    """Open-loop phase drift, stepped once per loop sample by :func:`run_lock`.

    Random walk: Gaussian steps of variance diffusion * dt.  OU: exact
    discretization (stable for any reversion rate), with stationary
    variance diffusion / (2 * reversion_rate).
    """

    model: str = RANDOM_WALK
    diffusion: float = 2.0  # rad^2 / s
    reversion_rate: float = 0.0  # 1 / s, OU only
    sample_rate: float = 50_000.0  # Hz

    def __post_init__(self) -> None:
        if self.model not in (RANDOM_WALK, OU):
            raise ContractViolation(f"unknown drift model {self.model!r}")
        if self.diffusion < 0:
            raise ContractViolation("diffusion must be non-negative")
        if not self.sample_rate > 0:
            raise ContractViolation("sample_rate must be positive")
        if self.model == OU and not self.reversion_rate > 0:
            raise ContractViolation("OU drift needs a positive reversion_rate")


@dataclass(frozen=True)
class ReferenceSignal:
    """Slowly wandering fringe parameters of the control-laser interference.

    The quadrature lock point is immune to contrast changes, so the
    speckle-driven visibility may wander hard.  The mean level is a
    different story: an a-c-coupled single-detector error signal cannot
    tell a slow power change from a slow phase change, so the d-c removal
    only works when the power wander is slow and modest; the defaults
    keep it an order of magnitude below the fringe signal.
    """

    visibility_min: float = 0.2
    visibility_max: float = 0.9
    visibility_rate: float = 1.0  # Hz, speckle wander bandwidth
    dc_min: float = 0.9
    dc_max: float = 1.1
    dc_rate: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility_min <= self.visibility_max <= 1.0:
            raise ContractViolation("need 0 <= visibility_min <= visibility_max <= 1")
        if not 0.0 < self.dc_min <= self.dc_max:
            raise ContractViolation("need 0 < dc_min <= dc_max")


@dataclass(frozen=True)
class PidParams:
    # Default gains hand-tuned on the default plant (see tests); the
    # high-pass corner sits above the ~1 Hz speckle wander it must reject
    # and far below the loop bandwidth.
    kp: float = 0.6
    ki: float = 20_000.0
    kd: float = 2e-6
    loop_rate: float = 50_000.0  # Hz
    bandwidth: float = 5_000.0  # Hz
    actuator_range: float = 60.0  # radians of stroke
    highpass_cutoff: float = 20.0  # Hz

    def __post_init__(self) -> None:
        if not self.loop_rate > 2.0 * self.bandwidth:
            raise ContractViolation("loop_rate must exceed twice the bandwidth")
        if not self.actuator_range > 0:
            raise ContractViolation("actuator_range must be positive")
        if not self.highpass_cutoff > 0:
            raise ContractViolation("highpass_cutoff must be positive")


@dataclass
class LockReport:
    locked: bool
    residual_rms: float
    lock_acquisition_time: float
    setpoint: float
    saturation_fraction: float
    diagnostic: str = ""


@dataclass
class LockRunResult:
    report: LockReport
    time_s: np.ndarray
    residual: np.ndarray  # phase minus set point, unwrapped
    drift: np.ndarray  # open-loop drift trace from the same seed


def run_lock(
    drift: DriftProcess,
    ref: ReferenceSignal,
    pid: PidParams,
    duration: float,
    seed: int,
    setpoint: float = -math.pi / 4,
    initial_offset: float = 0.0,
) -> LockRunResult:
    """Simulate the closed loop and report residual-phase statistics.

    The plant phase starts at ``setpoint + initial_offset`` and accumulates
    the drift; the actuator phase adds to it through a first-order lag with
    corner at twice the loop bandwidth.  Acquisition is the first time the
    residual stays inside 0.15 rad for 4 ms; residual statistics cover the
    acquired segment.  The run reports ``locked=False`` when the actuator
    saturates for more than 10% of samples or acquisition never happens.
    """
    if abs(abs(setpoint) - math.pi / 4) > 1e-9:
        raise ConfigurationError("quadrature lock set point must be +pi/4 or -pi/4")
    if not duration > 0:
        raise ContractViolation("duration must be positive")
    if drift.sample_rate != pid.loop_rate:
        raise ConfigurationError("drift sample_rate must equal the PID loop_rate")

    n = int(round(duration * pid.loop_rate))
    dt = 1.0 / pid.loop_rate
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x10C6]))

    # Pre-drawn randomness so the control loop is pure float arithmetic.
    if drift.model == OU:
        ou_decay = math.exp(-drift.reversion_rate * dt)
        kick_sd = math.sqrt(
            drift.diffusion / (2.0 * drift.reversion_rate) * (1.0 - ou_decay * ou_decay)
        )
    else:
        ou_decay = 1.0
        kick_sd = math.sqrt(drift.diffusion * dt)
    kicks = rng.normal(0.0, 1.0, n) * kick_sd
    v_noise = rng.normal(0.0, 1.0, n)
    dc_noise = rng.normal(0.0, 1.0, n)

    # Speckle wander: clipped OU processes for fringe contrast and offset,
    # each smoothed by a second pole at the same corner.  The wander is
    # slow by definition; without the extra pole its flat noise tail would
    # alias into the control band and masquerade as phase error.
    v_mid = 0.5 * (ref.visibility_min + ref.visibility_max)
    v_sd = 0.25 * (ref.visibility_max - ref.visibility_min)
    lam_v = 2.0 * math.pi * ref.visibility_rate
    sig_v = v_sd * math.sqrt(2.0 * lam_v * dt)
    dc_mid = 0.5 * (ref.dc_min + ref.dc_max)
    dc_sd = 0.25 * (ref.dc_max - ref.dc_min)
    lam_dc = 2.0 * math.pi * ref.dc_rate
    sig_dc = dc_sd * math.sqrt(2.0 * lam_dc * dt)

    hp_alpha = 1.0 / (1.0 + 2.0 * math.pi * pid.highpass_cutoff * dt)
    act_beta = 1.0 - math.exp(-2.0 * math.pi * (2.0 * pid.bandwidth) * dt)
    slope_sign = 1.0 if math.sin(2.0 * setpoint) < 0 else -1.0

    residual = np.empty(n)
    drift_trace = np.empty(n)

    drift_phase = 0.0
    v_raw = v_mid
    v = v_mid
    dc_raw = dc_mid
    dc = dc_mid
    hp_y = 0.0
    hp_x = None
    integ = 0.0
    prev_err = 0.0
    u_cmd = 0.0
    u_app = 0.0
    n_sat = 0
    kp, ki, kd = pid.kp, pid.ki, pid.kd
    u_max = pid.actuator_range

    for i in range(n):
        drift_phase = drift_phase * ou_decay + kicks[i]
        drift_trace[i] = drift_phase

        v_raw += lam_v * (v_mid - v_raw) * dt + sig_v * v_noise[i]
        v += lam_v * (v_raw - v) * dt
        if v < ref.visibility_min:
            v = ref.visibility_min
        elif v > ref.visibility_max:
            v = ref.visibility_max
        dc_raw += lam_dc * (dc_mid - dc_raw) * dt + sig_dc * dc_noise[i]
        dc += lam_dc * (dc_raw - dc) * dt
        if dc < ref.dc_min:
            dc = ref.dc_min
        elif dc > ref.dc_max:
            dc = ref.dc_max

        # Deviation accumulated separately from the set point so the
        # zero-gain trace equals the drift trace bit for bit.
        deviation = initial_offset + drift_phase + u_app
        residual[i] = deviation
        phase = setpoint + deviation

        intensity = dc * (1.0 + v * math.cos(2.0 * phase))
        if hp_x is None:
            hp_x = intensity
        hp_y = hp_alpha * (hp_y + intensity - hp_x)
        hp_x = intensity

        err = -slope_sign * hp_y
        saturated = abs(u_cmd) >= u_max
        if not saturated or (err * u_cmd) < 0.0:
            integ += ki * err * dt  # conditional integration anti-windup
        deriv = (err - prev_err) / dt
        prev_err = err
        u_cmd = kp * err + integ + kd * deriv
        if u_cmd > u_max:
            u_cmd = u_max
            n_sat += 1
        elif u_cmd < -u_max:
            u_cmd = -u_max
            n_sat += 1
        u_app += (u_cmd - u_app) * act_beta

    time_s = (np.arange(n) + 1) * dt
    sat_frac = n_sat / n

    acq_idx = _acquisition_index(residual, pid.loop_rate)
    if acq_idx is None:
        report = LockReport(
            locked=False,
            residual_rms=float(np.sqrt(np.mean(residual[n // 2 :] ** 2))),
            lock_acquisition_time=math.inf,
            setpoint=setpoint,
            saturation_fraction=sat_frac,
            diagnostic="lock never acquired",
        )
        return LockRunResult(report, time_s, residual, drift_trace)

    tail = residual[acq_idx:]
    rms = float(np.sqrt(np.mean(tail**2)))
    diagnostic = ""
    locked = True
    if sat_frac > 0.10:
        locked = False
        diagnostic = f"actuator saturated for {sat_frac:.1%} of samples"
    report = LockReport(
        locked=locked,
        residual_rms=rms,
        lock_acquisition_time=float(time_s[acq_idx]),
        setpoint=setpoint,
        saturation_fraction=sat_frac,
        diagnostic=diagnostic,
    )
    return LockRunResult(report, time_s, residual, drift_trace)


def _acquisition_index(residual: np.ndarray, loop_rate: float) -> int | None:
    """First index from which |residual| stays below 0.15 rad for 4 ms."""
    hold = max(int(0.004 * loop_rate), 1)
    inside = np.abs(residual) < 0.15
    run = 0
    for i, ok in enumerate(inside):
        run = run + 1 if ok else 0
        if run >= hold:
            return i - hold + 1
    return None


def residual_to_visibility(residual: np.ndarray) -> float:
    """Gaussian-dephasing visibility factor exp(-var/2) of a residual trace.

    The variance is taken about the mean: a constant phase offset shifts
    the fringe rather than washing it out.
    """
    r = np.asarray(residual, dtype=float)
    if r.size == 0:
        raise ContractViolation("residual trace is empty")
    return float(math.exp(-0.5 * float(np.var(r))))
