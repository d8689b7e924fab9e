"""Interferometer geometries as routing maps.

Two layouts are modeled.  In the standard (``franson``) layout each photon
travels to its own party's unbalanced interferometer, so mixed path
choices (one photon short, one long) still produce cross-party
coincidences, shifted in arrival-time difference by the arm delay.  In the
cross-linked (``hug``) layout the long output of each source-side splitter
is wired to the *other* party: mixed choices deliver both photons to a
single party, and every cross-party coincidence is a matched short-short
or long-long event with near-zero arrival-time difference.  Routing is
purely structural (:func:`route` maps path codes to parties, and the long
path adds the arm delay wherever it leads); no analyzer phase enters here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, ContractViolation


class Geometry(Enum):
    FRANSON = "franson"
    HUG = "hug"


ALICE = "alice"
BOB = "bob"


@dataclass(frozen=True)
class ArmConfig:
    """Arm geometry: long-minus-short delay and residual length imbalance."""

    delta_t: float = 10e-9  # seconds, extra propagation delay of L over S
    imbalance: float = 0.0  # meters, |(L_A - S_A) - (L_B - S_B)|
    coherence_length: float = 1e-3  # meters

    def __post_init__(self) -> None:
        if not self.delta_t > 0:
            raise ContractViolation("delta_t must be positive")
        if self.imbalance < 0:
            raise ContractViolation("imbalance must be non-negative")
        if not self.coherence_length > 0:
            raise ContractViolation("coherence_length must be positive")


class SlotClass(Enum):
    """Timing classification of one coincidence.

    MATCHED covers both short-short and long-long: the two are
    indistinguishable from the arrival-time difference alone, which is the
    entire point of the scheme.
    """

    MATCHED = "SS/LL"
    LS = "LS"
    SL = "SL"
    ACCIDENTAL = "accidental"


def route(
    geometry: Geometry, path1: np.ndarray, path2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Map per-photon path codes (uint8, 0 short / 1 long) to party codes.

    Returns (party1, party2), uint8 arrays with 0 for Alice and 1 for Bob.
    franson: photon 1 always reaches Alice and photon 2 always reaches Bob.
    hug: the long path of either photon crosses over to the other party,
    so mismatched choices put both photons at the same party.
    """
    if geometry is Geometry.FRANSON:
        return np.zeros(len(path1), dtype=np.uint8), np.ones(len(path2), dtype=np.uint8)
    if geometry is Geometry.HUG:
        party1 = path1.astype(np.uint8)  # short stays at Alice, long crosses to Bob
        party2 = (1 - path2).astype(np.uint8)  # short stays at Bob, long crosses to Alice
        return party1, party2
    raise ContractViolation(f"unknown geometry {geometry!r}")


def classify_slot_ps(delta_ps: int, delta_t_ps: int, window_ps: int) -> SlotClass:
    """Integer-exact slot classification; ``delta_ps`` is Alice-minus-Bob.

    Slot centers sit at 0 (matched) and at +/- ``delta_t_ps`` (LS / SL,
    labeled by the path pair photon1-photon2 that produces the shift in the
    standard geometry).  Acceptance is the full window width: a slot claims
    |delta - center| <= window / 2.
    """
    if window_ps <= 0:
        raise ConfigurationError("coincidence window must be positive")
    if 2 * window_ps >= delta_t_ps:
        raise ConfigurationError(
            f"slots unresolvable: window ({window_ps} ps) must be below "
            f"delta_t / 2 ({delta_t_ps / 2:.0f} ps)"
        )
    two = 2 * delta_ps
    if abs(two) <= window_ps:
        return SlotClass.MATCHED
    if abs(two - 2 * delta_t_ps) <= window_ps:
        return SlotClass.LS
    if abs(two + 2 * delta_t_ps) <= window_ps:
        return SlotClass.SL
    return SlotClass.ACCIDENTAL


def indistinguishability_factor(arms: ArmConfig) -> float:
    """Visibility multiplier from residual arm-length imbalance.

    Gaussian envelope in imbalance / coherence_length: unity when the two
    interferometers are balanced, vanishing once the imbalance far exceeds
    the single-photon coherence length.
    """
    r = arms.imbalance / arms.coherence_length
    return math.exp(-r * r)
