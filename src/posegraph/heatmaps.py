"""Gaussian heatmap rendering, the attenuated-interference training loss, and
multi-peak extraction.

A training target for one joint channel is the superposition of a full-strength
Gaussian at each target joint and an attenuated Gaussian (factor ``mu``) at
each interference joint, i.e. joints of other people that fall inside the same
person crop. The loss averages per-channel MSE against that composite grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SIGMA = 2.0
DEFAULT_PEAK_THRESHOLD = 0.1
DEFAULT_PEAK_WINDOW = 3

# Heatmaps run at 1/4 of the 320x256 input resolution.
DEFAULT_WIDTH = 64
DEFAULT_HEIGHT = 80


@dataclass(eq=False, slots=True)
class Heatmap:
    """Dense single-channel response grid.

    ``values`` is indexed ``[y, x]`` (row-major), so its shape is
    ``(height, width)``; locations elsewhere in the package are ``(x, y)``
    tuples. Every value is finite and non-negative.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.size == 0:
            raise ValueError(f"need a non-empty 2-D grid, got shape {self.values.shape}")
        if not ((self.values >= 0) & (self.values < np.inf)).all():
            raise ValueError("heatmap values must be finite and non-negative")


@dataclass(eq=False, slots=True)
class CompositeTarget:
    """Training target for one joint channel: full-strength target grid plus
    interference grid attenuated by ``mu``."""

    target: Heatmap
    interference: Heatmap
    mu: float

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"mu must lie in [0, 1], got {self.mu}")
        if self.target.values.shape != self.interference.values.shape:
            raise ValueError("target and interference grids must share dimensions")

    def composite_values(self) -> np.ndarray:
        """The effective supervision grid T + mu * C."""
        return self.target.values + self.mu * self.interference.values


def render_gaussian(
    centers: list[tuple[float, float]],
    sigma: float = DEFAULT_SIGMA,
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
) -> Heatmap:
    """Render an unnormalized Gaussian mixture heatmap.

    Each center contributes exp(-||q - p||^2 / (2 sigma^2)) at pixel q, so an
    isolated center produces peak value 1.0 at its own pixel. Contributions
    sum; nothing is clamped. Centers outside the grid contribute whatever tail
    falls inside.

    Args:
        centers: (x, y) locations, possibly empty, possibly off-grid.
        sigma: Gaussian standard deviation in pixels, > 0 and large enough
            (about 1e-154) that 1 / (2 sigma^2) is finite.
        width: grid width in pixels.
        height: grid height in pixels.

    Returns:
        Heatmap of shape (height, width).
    """
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    two_var = 2.0 * sigma * sigma
    inv = 1.0 / two_var if two_var > 0 else np.inf
    if not inv < np.inf:
        raise ValueError(f"sigma {sigma} is too small: 1 / (2 sigma^2) is not finite")
    if width <= 0 or height <= 0:
        raise ValueError("grid dimensions must be positive")
    values = np.zeros((height, width), dtype=np.float64)
    if centers:
        xs = np.arange(width, dtype=np.float64)
        ys = np.arange(height, dtype=np.float64)
        # A far centre or a tiny sigma overflows the exponent to -inf, and
        # exp(-inf) = 0 is the right value, so overflow is no error here.
        with np.errstate(over="ignore"):
            for cx, cy in centers:
                dx2 = (xs - cx) ** 2
                dy2 = (ys - cy) ** 2
                values += np.exp(-(dy2[:, None] + dx2[None, :]) * inv)
    return Heatmap(values)


def compose_training_target(
    target_joints: list[tuple[float, float]],
    interference_joints: list[tuple[float, float]],
    mu: float,
    sigma: float = DEFAULT_SIGMA,
    width: int = DEFAULT_WIDTH,
    height: int = DEFAULT_HEIGHT,
) -> CompositeTarget:
    """Build the supervision pair (T, C) for one joint channel.

    With mu = 0 the composite grid degenerates to the conventional
    single-person target.
    """
    target = render_gaussian(target_joints, sigma, width, height)
    interference = render_gaussian(interference_joints, sigma, width, height)
    return CompositeTarget(target=target, interference=interference, mu=mu)


def jc_loss(predicted: list[Heatmap], composites: list[CompositeTarget]) -> float:
    """Mean over channels of MSE(prediction, T + mu * C).

    Args:
        predicted: one heatmap per joint channel.
        composites: matching list of composite targets.

    Returns:
        Non-negative loss; exactly 0.0 iff every channel matches its
        composite grid.
    """
    if len(predicted) != len(composites):
        raise ValueError(
            f"channel count mismatch: {len(predicted)} predictions vs "
            f"{len(composites)} targets"
        )
    if not predicted:
        raise ValueError("at least one channel is required")
    total = 0.0
    for pred, comp in zip(predicted, composites):
        grid = comp.composite_values()
        if pred.values.shape != grid.shape:
            raise ValueError(
                f"grid shape mismatch: {pred.values.shape} vs {grid.shape}"
            )
        diff = pred.values - grid
        total += float(np.mean(diff * diff))
    return total / len(predicted)


def extract_peaks(
    heatmap: Heatmap,
    score_threshold: float = DEFAULT_PEAK_THRESHOLD,
    window: int = DEFAULT_PEAK_WINDOW,
) -> list[tuple[tuple[int, int], float]]:
    """Find local maxima above a response threshold.

    A pixel is a peak when it strictly dominates every other pixel in its
    window x window neighborhood; an exact tie is awarded to the pixel with
    the lower row-major index, so equal-valued plateaus yield one peak.

    Args:
        heatmap: input grid.
        score_threshold: minimum response, exclusive.
        window: odd neighborhood side length >= 3.

    Returns:
        ((x, y), response) pairs sorted by descending response, row-major
        index breaking exact response ties.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    if score_threshold < 0:
        raise ValueError(f"score_threshold must be non-negative, got {score_threshold}")
    values = heatmap.values
    height, width = values.shape
    half = window // 2
    padded = np.pad(values, half, constant_values=-np.inf)
    peak = values > score_threshold
    # padded[dy : dy + height, dx : dx + width] holds each pixel's neighbour
    # at offset (dy - half, dx - half). A peak beats every neighbour; an equal
    # one loses only if it comes later in row-major order (or is the pixel).
    for dy in range(window):
        for dx in range(window):
            neighbour = padded[dy : dy + height, dx : dx + width]
            peak &= values >= neighbour if (dy, dx) >= (half, half) else values > neighbour
    ys, xs = np.nonzero(peak)
    peaks = [((int(x), int(y)), float(values[y, x])) for y, x in zip(ys, xs)]
    # Stable: row-major order breaks exact response ties.
    peaks.sort(key=lambda p: -p[1])
    return peaks
