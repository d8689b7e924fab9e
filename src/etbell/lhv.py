"""Local strategy engine for the post-selection loophole.

A strategy is a set of deterministic functions that assign, from a shared
hidden sample, each photon's interferometer path and each party's outcome.
In the standard geometry the path functions may read the local analyzer
phase, which lets a classical strategy steer which events survive the
matched-slot cut.  The bundled ``faking`` strategy exploits exactly that
freedom: its post-selected correlation is cos(phi_a - phi_b), the full
quantum fringe, and it fakes S = 2 sqrt(2) while the undiscarded sample
stays at the classical bound.  In the cross-linked geometry the path
functions cannot see any setting (the argument is structurally absent), the
surviving set is fixed by the shared randomness alone, and no strategy can
push the post-selected S above 2.

Independent oracles live here too: the quadrature identity behind the
faking strategy and a brute-force maximization over deterministic
strategies on a discretized hidden-variable grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractViolation, StrategyGeometryError
from .estimators import BellResult, estimate_E, estimate_S
from .qmodel import DIFFERENCE, SUM, SettingsQuad
from .tagger import CountsMatrix
from .topology import Geometry


@dataclass
class HiddenSample:
    """Batch of shared hidden variables, one row per emitted pair.

    ``theta`` is uniform on [0, 2 pi); ``coin`` is a fair path bit; ``aux``
    and ``aux2`` are spare uniforms so strategies needing extra randomness
    stay replayable without touching theta's role.
    """

    theta: np.ndarray
    coin: np.ndarray
    aux: np.ndarray
    aux2: np.ndarray

    def __len__(self) -> int:
        return len(self.theta)


def draw_hidden(n: int, rng: np.random.Generator) -> HiddenSample:
    return HiddenSample(
        theta=rng.uniform(0.0, 2.0 * np.pi, n),
        coin=rng.integers(0, 2, n, dtype=np.uint8),
        aux=rng.random(n),
        aux2=rng.random(n),
    )


@dataclass(frozen=True)
class LhvStrategy:
    """Deterministic local response functions over a hidden sample.

    ``outcome_a`` / ``outcome_b`` map (sample, local phase) to +-1 arrays.
    ``path_1`` / ``path_2`` choose each photon's path: when
    ``paths_use_settings`` is true they receive the local phase as well
    (photon 1 sees Alice's, photon 2 sees Bob's, as in the standard
    geometry); otherwise their signature is (sample) only, which is the
    shape the cross-linked geometry enforces.
    """

    name: str
    outcome_a: Callable[[HiddenSample, float], np.ndarray]
    outcome_b: Callable[[HiddenSample, float], np.ndarray]
    path_1: Callable[..., np.ndarray]
    path_2: Callable[..., np.ndarray]
    paths_use_settings: bool

    def paths(
        self, hv: HiddenSample, phi_a: float, phi_b: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both photons' paths, passing the local phases only when the paths read them."""
        if self.paths_use_settings:
            return self.path_1(hv, phi_a), self.path_2(hv, phi_b)
        return self.path_1(hv), self.path_2(hv)

    def check_geometry(self, geometry: Geometry) -> None:
        """Refuse setting-dependent paths in the cross-linked geometry."""
        if geometry is Geometry.HUG and self.paths_use_settings:
            raise StrategyGeometryError(
                f"strategy {self.name!r} reads the local setting in its path "
                "functions; the cross-linked geometry has no such input"
            )


def _sign(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0.0, 1, -1).astype(np.int8)


def faking_strategy(convention: str = DIFFERENCE) -> LhvStrategy:
    """The bundled loophole strategy (standard geometry only).

    Outcomes are sign(cos(theta + phi)) on both sides.  Photon 1 follows
    the shared coin; photon 2 matches it with probability
    |cos(theta + phi_b)| and flips otherwise, so the matched-slot cut keeps
    events with exactly the weight that turns the sign correlation into a
    full cosine.  Post-selected correlation: cos(phi_a - phi_b) exactly, at
    a selection rate of 2 / pi.  Requesting the setting-free form is a
    contract error: the path rule needs Bob's phase.
    """
    if convention not in (DIFFERENCE, SUM):
        raise ContractViolation(f"unknown phase convention {convention!r}")
    b_sign = 1.0 if convention == DIFFERENCE else -1.0

    def outcome_a(hv: HiddenSample, phi: float) -> np.ndarray:
        return _sign(np.cos(hv.theta + phi))

    def outcome_b(hv: HiddenSample, phi: float) -> np.ndarray:
        return _sign(np.cos(hv.theta + b_sign * phi))

    def path_1(hv: HiddenSample, phi: float) -> np.ndarray:
        return hv.coin

    def path_2(hv: HiddenSample, phi: float) -> np.ndarray:
        keep = hv.aux < np.abs(np.cos(hv.theta + b_sign * phi))
        return np.where(keep, hv.coin, 1 - hv.coin).astype(np.uint8)

    return LhvStrategy("faking", outcome_a, outcome_b, path_1, path_2, True)


def coin_strategy(convention: str = DIFFERENCE) -> LhvStrategy:
    """Same sign outcomes as the faking strategy, but setting-free coin paths."""
    if convention not in (DIFFERENCE, SUM):
        raise ContractViolation(f"unknown phase convention {convention!r}")
    b_sign = 1.0 if convention == DIFFERENCE else -1.0

    def outcome_a(hv: HiddenSample, phi: float) -> np.ndarray:
        return _sign(np.cos(hv.theta + phi))

    def outcome_b(hv: HiddenSample, phi: float) -> np.ndarray:
        return _sign(np.cos(hv.theta + b_sign * phi))

    def path(hv: HiddenSample) -> np.ndarray:
        return hv.coin

    return LhvStrategy("coin", outcome_a, outcome_b, path, path, False)


def constant_strategy() -> LhvStrategy:
    """Everything deterministic: outcomes +1, both photons on the short path."""

    def outcome(hv: HiddenSample, phi: float) -> np.ndarray:
        return np.ones(len(hv), dtype=np.int8)

    def path(hv: HiddenSample) -> np.ndarray:
        return np.zeros(len(hv), dtype=np.uint8)

    return LhvStrategy("constant", outcome, outcome, path, path, False)


def random_strategy(gen_seed: int) -> LhvStrategy:
    """A randomized member of a local threshold-response family.

    Parameters are drawn once from ``gen_seed``; the resulting functions
    are deterministic in (sample, local phase).  Paths are setting-free so
    the strategy runs under either geometry; outcomes respond to the local
    phase only, so no-signaling holds by construction.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, int(gen_seed)]))
    harmonic_a = int(rng.integers(1, 4))
    harmonic_b = int(rng.integers(1, 4))
    gain_a = float(rng.uniform(-2.0, 2.0))
    gain_b = float(rng.uniform(-2.0, 2.0))
    off_a = float(rng.uniform(0.0, 2.0 * np.pi))
    off_b = float(rng.uniform(0.0, 2.0 * np.pi))
    mix_a = float(rng.uniform(0.0, 1.0))
    mix_b = float(rng.uniform(0.0, 1.0))
    thr_a = float(rng.uniform(-0.3, 0.3))
    thr_b = float(rng.uniform(-0.3, 0.3))
    path_bias = float(rng.uniform(0.2, 0.8))

    def outcome_a(hv: HiddenSample, phi: float) -> np.ndarray:
        s = np.cos(harmonic_a * hv.theta + gain_a * phi + off_a) + mix_a * (hv.aux - 0.5)
        return _sign(s - thr_a)

    def outcome_b(hv: HiddenSample, phi: float) -> np.ndarray:
        s = np.cos(harmonic_b * hv.theta + gain_b * phi + off_b) + mix_b * (hv.aux2 - 0.5)
        return _sign(s - thr_b)

    def path_1(hv: HiddenSample) -> np.ndarray:
        return hv.coin

    def path_2(hv: HiddenSample) -> np.ndarray:
        return np.where(hv.aux2 < path_bias, hv.coin, 1 - hv.coin).astype(np.uint8)

    return LhvStrategy(f"random:{gen_seed}", outcome_a, outcome_b, path_1, path_2, False)


def get_strategy(name: str, convention: str = DIFFERENCE) -> LhvStrategy:
    """Registry lookup: faking | coin | constant | random:<seed>."""
    if name == "faking":
        return faking_strategy(convention)
    if name == "coin":
        return coin_strategy(convention)
    if name == "constant":
        return constant_strategy()
    if name.startswith("random:"):
        gen_seed = name.split(":", 1)[1]
        try:
            return random_strategy(int(gen_seed))
        except ValueError:
            raise ContractViolation(
                f"random strategy seed must be a non-negative integer, got {gen_seed!r}"
            ) from None
    raise ContractViolation(
        f"unknown strategy {name!r}; expected faking, coin, constant, or random:<seed>"
    )


@dataclass
class LhvRunReport:
    """Tallies of one strategy run: post-selected and full-sample statistics."""

    geometry: Geometry
    strategy: str
    quad: SettingsQuad
    n_pairs: int
    seed: int
    post_counts: tuple[CountsMatrix, ...]
    full_counts: tuple[CountsMatrix, ...]
    selection_rate: float
    s_postselected: BellResult
    s_full: BellResult


def _tally(out_a: np.ndarray, out_b: np.ndarray) -> CountsMatrix:
    a_plus = out_a > 0
    b_plus = out_b > 0
    return CountsMatrix(
        n11=int(np.count_nonzero(a_plus & b_plus)),
        n12=int(np.count_nonzero(a_plus & ~b_plus)),
        n21=int(np.count_nonzero(~a_plus & b_plus)),
        n22=int(np.count_nonzero(~a_plus & ~b_plus)),
    )


def run_lhv(
    geometry: Geometry,
    strategy: LhvStrategy,
    quad: SettingsQuad,
    n_pairs: int,
    seed: int,
) -> LhvRunReport:
    """Monte Carlo run of a strategy over the four CHSH setting pairs.

    Pairs are split evenly across the setting pairs, each block drawing its
    hidden samples from an independent substream of ``seed`` so reports are
    bit-reproducible and merging is order-independent.  In the standard
    geometry the matched-slot cut keeps events whose two paths agree; in
    the cross-linked geometry the same condition is what makes an event
    cross-party at all, so nothing is discarded downstream.  Full-sample
    counts tally every pair with no selection applied.
    """
    if n_pairs <= 0:
        raise ContractViolation("n_pairs must be positive")
    strategy.check_geometry(geometry)

    post: list[CountsMatrix] = []
    full: list[CountsMatrix] = []
    n_selected = 0
    for k, (phi_a, phi_b) in enumerate(quad.pairs()):
        n_k = n_pairs // 4 + (1 if k < n_pairs % 4 else 0)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), k]))
        hv = draw_hidden(n_k, rng)
        out_a = strategy.outcome_a(hv, phi_a)
        out_b = strategy.outcome_b(hv, phi_b)
        p1, p2 = strategy.paths(hv, phi_a, phi_b)
        selected = p1 == p2
        n_selected += int(np.count_nonzero(selected))
        post.append(_tally(out_a[selected], out_b[selected]))
        full.append(_tally(out_a, out_b))

    s_post = estimate_S(*[estimate_E(c) for c in post])
    s_full = estimate_S(*[estimate_E(c) for c in full])
    return LhvRunReport(
        geometry=geometry,
        strategy=strategy.name,
        quad=quad,
        n_pairs=n_pairs,
        seed=seed,
        post_counts=tuple(post),
        full_counts=tuple(full),
        selection_rate=n_selected / n_pairs,
        s_postselected=s_post,
        s_full=s_full,
    )


# ---------------------------------------------------------------------------
# Independent oracles


def quadrature_faked_correlation(
    phi_a: float, phi_b: float, n_grid: int = 200_000, convention: str = DIFFERENCE
) -> float:
    """Post-selected correlation of the faking strategy by midpoint quadrature.

    Integrates sign(cos(theta + phi_a)) . cos(theta + phi_b) over theta and
    normalizes by the selection weight integral of |cos(theta + phi_b)|.
    Shares nothing with the Monte Carlo path; the analytic value is
    cos(phi_a - phi_b) (or cos(phi_a + phi_b) in sum mode).
    """
    b_sign = 1.0 if convention == DIFFERENCE else -1.0
    theta = (np.arange(n_grid) + 0.5) * (2.0 * np.pi / n_grid)
    num = np.mean(np.where(np.cos(theta + phi_a) >= 0, 1.0, -1.0) * np.cos(theta + b_sign * phi_b))
    den = np.mean(np.abs(np.cos(theta + b_sign * phi_b)))
    return float(num / den)


def quadrature_selection_rate(phi_b: float = 0.0, n_grid: int = 200_000) -> float:
    """Selection rate of the faking strategy by quadrature: mean |cos| = 2 / pi."""
    theta = (np.arange(n_grid) + 0.5) * (2.0 * np.pi / n_grid)
    return float(np.mean(np.abs(np.cos(theta + phi_b))))


def deterministic_bound_check(
    geometry: Geometry,
    n_cells: int = 720,
    max_passes: int = 20,
) -> float:
    """Brute-force maximum post-selected S over deterministic grid strategies.

    The hidden variable is discretized into ``n_cells`` equal-measure cells.
    Per cell a deterministic strategy picks one of 16 outcome patterns
    (A0, A1, B0, B1 each +-1) and a path pattern: a constant path per photon
    in the cross-linked geometry (4 patterns), or a path per local setting
    in the standard geometry (4 x 4 patterns).  Selection of a cell at a
    setting pair (x, y) requires its two paths to agree there.  The search
    is exact per-cell coordinate ascent: every combination is enumerated
    for one cell while the others stay fixed, repeated until no change.
    Strategies that would empty any setting pair's selected set are
    excluded (nonzero-selection constraint).

    With setting-independent paths every selected cell contributes its
    algebraic CHSH cell value, bounded by 2, so the result is 2.0 exactly.
    With setting-dependent paths the selected sets differ per setting pair
    and the maximum exceeds the quantum bound.  The result depends only on
    the setting indices, not the phase values, so no quad is taken.
    """
    # Outcome patterns: bit 0..3 -> A0, A1, B0, B1; value +1 when bit set.
    outs = np.array(
        [[1 if (o >> b) & 1 else -1 for b in range(4)] for o in range(16)], dtype=np.int64
    )
    # prod[o, s]: A_x * B_y for setting pair s in CHSH order.
    pair_bits = ((0, 2), (0, 3), (1, 2), (1, 3))
    prod = np.array(
        [[outs[o, xa] * outs[o, yb] for (xa, yb) in pair_bits] for o in range(16)],
        dtype=np.int64,
    )

    if geometry is Geometry.HUG:
        # Path pattern: (p1, p2) constants; selected iff p1 == p2, the same
        # at all four setting pairs.
        sel_patterns = np.array(
            [[1 if (p & 1) == ((p >> 1) & 1) else 0] * 4 for p in range(4)], dtype=np.int64
        )
    elif geometry is Geometry.FRANSON:
        # Path pattern: photon 1's path per Alice setting (2 bits) and
        # photon 2's per Bob setting (2 bits); selection compares them at
        # the setting pair in play.
        pats = []
        for pa in range(4):
            for pb in range(4):
                row = []
                for x, y in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    row.append(1 if ((pa >> x) & 1) == ((pb >> y) & 1) else 0)
                pats.append(row)
        sel_patterns = np.array(pats, dtype=np.int64)
    else:
        raise ContractViolation(f"unknown geometry {geometry!r}")

    n_pat = len(sel_patterns)
    # combo index c = o * n_pat + p
    combo_sel = np.repeat(sel_patterns[np.newaxis, :, :], 16, axis=0).reshape(-1, 4)
    combo_num = (prod[:, np.newaxis, :] * sel_patterns[np.newaxis, :, :]).reshape(-1, 4)

    signs = np.array([1.0, 1.0, 1.0, -1.0])

    def total_s(num: np.ndarray, den: np.ndarray) -> float:
        if np.any(den <= 0):
            return -np.inf
        return float(np.sum(signs * num / den))

    # Start from the all-selected, all-(+1) strategy: S = 2 exactly.
    start_combo = 15 * n_pat + int(np.flatnonzero(sel_patterns.sum(axis=1) == 4)[0])
    state = np.full(n_cells, start_combo, dtype=np.int64)
    num = combo_num[state].sum(axis=0)
    den = combo_sel[state].sum(axis=0)

    best = total_s(num, den)
    for _ in range(max_passes):
        improved = False
        for i in range(n_cells):
            c_old = state[i]
            base_num = num - combo_num[c_old]
            base_den = den - combo_sel[c_old]
            cand_num = base_num + combo_num
            cand_den = base_den + combo_sel
            valid = np.all(cand_den > 0, axis=1)
            s_vals = np.full(len(combo_sel), -np.inf)
            ok = valid
            s_vals[ok] = (signs * cand_num[ok] / cand_den[ok]).sum(axis=1)
            c_new = int(np.argmax(s_vals))
            if s_vals[c_new] > best + 1e-12:
                state[i] = c_new
                num = base_num + combo_num[c_new]
                den = base_den + combo_sel[c_new]
                best = float(s_vals[c_new])
                improved = True
        if not improved:
            break
    return best
