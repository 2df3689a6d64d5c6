"""Gaussian heatmap rendering, the attenuated-interference training loss, and
multi-peak extraction.

A training target for one joint channel is the superposition of a full-strength
Gaussian at each target joint and an attenuated Gaussian (factor ``mu``) at
each interference joint, i.e. joints of other people that fall inside the same
person crop. The loss averages per-channel MSE against that composite grid.
Grids are rendered at a fixed WIDTH x HEIGHT, and peaks are read with a fixed
3 x 3 window and a fixed response threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_SIGMA = 2.0
PEAK_THRESHOLD = 0.1

# Heatmaps run at 1/4 of the 320x256 input resolution.
WIDTH = 64
HEIGHT = 80


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


def render_gaussian(
    centers: list[tuple[float, float]], sigma: float = DEFAULT_SIGMA
) -> Heatmap:
    """Render an unnormalized Gaussian mixture heatmap on the HEIGHT x WIDTH grid.

    Each center contributes exp(-||q - p||^2 / (2 sigma^2)) at pixel q, so an
    isolated center produces peak value 1.0 at its own pixel. Contributions
    sum; nothing is clamped. Centers outside the grid contribute whatever tail
    falls inside.

    Args:
        centers: (x, y) locations, possibly empty, possibly off-grid.
        sigma: Gaussian standard deviation in pixels, > 0 and large enough
            (about 1e-154) that 1 / (2 sigma^2) is finite.
    """
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    two_var = 2.0 * sigma * sigma
    inv = 1.0 / two_var if two_var > 0 else np.inf
    if not inv < np.inf:
        raise ValueError(f"sigma {sigma} is too small: 1 / (2 sigma^2) is not finite")
    values = np.zeros((HEIGHT, WIDTH), dtype=np.float64)
    if centers:
        xs = np.arange(WIDTH, dtype=np.float64)
        ys = np.arange(HEIGHT, dtype=np.float64)
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
) -> Heatmap:
    """The supervision grid T + mu * C for one joint channel: target
    Gaussians T plus interference Gaussians C attenuated by mu in [0, 1].

    With mu = 0 the grid degenerates to the conventional single-person target.
    """
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")
    target = render_gaussian(target_joints, sigma).values
    interference = render_gaussian(interference_joints, sigma).values
    return Heatmap(target + mu * interference)


def jc_loss(predicted: list[Heatmap], targets: list[Heatmap]) -> float:
    """Mean over channels of MSE(prediction, target).

    Args:
        predicted: one heatmap per joint channel.
        targets: matching list of composite grids.

    Returns:
        Non-negative loss; exactly 0.0 iff every channel matches its target.
    """
    if len(predicted) != len(targets):
        raise ValueError(
            f"channel count mismatch: {len(predicted)} predictions vs "
            f"{len(targets)} targets"
        )
    if not predicted:
        raise ValueError("at least one channel is required")
    total = 0.0
    for pred, target in zip(predicted, targets):
        if pred.values.shape != target.values.shape:
            raise ValueError(
                f"grid shape mismatch: {pred.values.shape} vs {target.values.shape}"
            )
        diff = pred.values - target.values
        total += float(np.mean(diff * diff))
    return total / len(predicted)


def extract_peaks(heatmap: Heatmap) -> list[tuple[tuple[int, int], float]]:
    """Find local maxima whose response exceeds PEAK_THRESHOLD.

    A pixel is a peak when it strictly dominates every other pixel in its
    3 x 3 neighborhood; an exact tie is awarded to the pixel with the lower
    row-major index, so equal-valued plateaus yield one peak.

    Returns:
        ((x, y), response) pairs sorted by descending response, row-major
        index breaking exact response ties.
    """
    values = heatmap.values
    height, width = values.shape
    padded = np.pad(values, 1, constant_values=-np.inf)
    peak = values > PEAK_THRESHOLD
    # padded[dy : dy + height, dx : dx + width] holds each pixel's neighbour
    # at offset (dy - 1, dx - 1). A peak beats every neighbour; an equal one
    # loses only if it comes later in row-major order (or is the pixel).
    for dy in range(3):
        for dx in range(3):
            neighbour = padded[dy : dy + height, dx : dx + width]
            peak &= values >= neighbour if (dy, dx) >= (1, 1) else values > neighbour
    ys, xs = np.nonzero(peak)
    peaks = [((int(x), int(y)), float(values[y, x])) for y, x in zip(ys, xs)]
    # Stable: row-major order breaks exact response ties.
    peaks.sort(key=lambda p: -p[1])
    return peaks
