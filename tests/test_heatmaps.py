import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegraph.heatmaps import (
    HEIGHT,
    WIDTH,
    Heatmap,
    compose_training_target,
    extract_peaks,
    jc_loss,
    render_gaussian,
)


def test_render_empty_centers_is_all_zero():
    hm = render_gaussian([], sigma=2.0)
    assert hm.values.shape == (HEIGHT, WIDTH) == (80, 64)
    assert not hm.values.any()


def test_render_single_center_peak_and_falloff():
    hm = render_gaussian([(32.0, 40.0)], sigma=2.0)
    assert hm.values[40, 32] == 1.0
    # two pixels to the right: exp(-2^2 / (2 * 2^2))
    assert hm.values[40, 34] == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_render_coincident_centers_sum():
    hm = render_gaussian([(10.0, 10.0), (10.0, 10.0)], sigma=2.0)
    assert hm.values[10, 10] == pytest.approx(2.0, abs=1e-12)


def test_render_overflow_to_zero_warns_nothing():
    # Both calls once printed an overflow RuntimeWarning: the exponent
    # overflows to -inf, and exp(-inf) = 0 is the right value.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = render_gaussian([(3.0, 4.0)], sigma=1e-154)
        far = render_gaussian([(1e200, 4.0), (2.0, 5.0)], sigma=2.0)
    expected = np.zeros((HEIGHT, WIDTH))
    expected[4, 3] = 1.0
    assert np.array_equal(tiny.values, expected)
    near = render_gaussian([(2.0, 5.0)], sigma=2.0)
    assert np.array_equal(far.values, near.values)


def test_render_rejects_bad_sigma():
    with pytest.raises(ValueError):
        render_gaussian([], sigma=0.0)
    with pytest.raises(ValueError):
        render_gaussian([], sigma=-1.0)
    for sigma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            render_gaussian([], sigma=sigma)
    # 2 sigma^2 underflows to 0 (once ZeroDivisionError) or to a subnormal
    # whose reciprocal is inf (once a NaN heatmap)
    for sigma in (1e-200, 1e-160):
        with pytest.raises(ValueError, match="sigma"):
            render_gaussian([(1.0, 1.0)], sigma=sigma)


@given(
    st.lists(
        st.tuples(
            st.floats(-5, 36, allow_nan=False),
            st.floats(-5, 36, allow_nan=False),
        ),
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.floats(-5, 36, allow_nan=False),
            st.floats(-5, 36, allow_nan=False),
        ),
        max_size=6,
    ),
)
@settings(max_examples=50, deadline=None)
def test_render_is_additive_and_permutation_invariant(a, b):
    joint = render_gaussian(a + b, sigma=2.0)
    parts = render_gaussian(a, sigma=2.0).values + render_gaussian(b, sigma=2.0).values
    assert np.allclose(joint.values, parts, atol=1e-12)
    flipped = render_gaussian(b + a, sigma=2.0)
    assert np.allclose(joint.values, flipped.values, atol=1e-12)


def test_heatmap_rejects_negative_values_and_bad_shape():
    with pytest.raises(ValueError):
        Heatmap(-np.ones((4, 4)))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Heatmap(np.array([[bad, 1.0]]))
    for bad in (np.zeros(4), np.zeros((2, 2, 2)), np.zeros((0, 4))):
        with pytest.raises(ValueError, match="2-D"):
            Heatmap(bad)
    assert Heatmap(np.zeros((3, 4))).values.shape == (3, 4)


def test_composite_target_and_interference_levels():
    grid = compose_training_target([(20.0, 20.0)], [(50.0, 50.0)], mu=0.5, sigma=2.0)
    assert grid.values.shape == (HEIGHT, WIDTH)
    assert grid.values[20, 20] == pytest.approx(1.0, abs=1e-9)
    assert grid.values[50, 50] == pytest.approx(0.5, abs=1e-9)


def test_composite_mu_zero_equals_plain_target():
    grid = compose_training_target(
        [(20.0, 20.0)], [(50.0, 50.0), (10.0, 60.0)], mu=0.0
    )
    assert np.array_equal(grid.values, render_gaussian([(20.0, 20.0)]).values)


def test_composite_superposition_at_shared_center():
    grid = compose_training_target([(20.0, 20.0)], [(20.0, 20.0)], mu=0.5)
    assert grid.values[20, 20] == pytest.approx(1.5, abs=1e-9)


def test_composite_rejects_mu_out_of_range():
    for mu in (1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="mu must lie in"):
            compose_training_target([], [], mu=mu)
    for mu in (0.0, 1.0):
        compose_training_target([], [], mu=mu)


def test_jc_loss_zero_on_exact_match():
    targets = [
        compose_training_target([(20.0, 20.0)], [(50.0, 50.0)], mu=0.5)
        for _ in range(3)
    ]
    preds = [Heatmap(t.values.copy()) for t in targets]
    assert jc_loss(preds, targets) == 0.0


def test_jc_loss_hand_value_single_channel():
    # prediction all zeros against a constant 0.5 target on a 2x2 grid:
    # four squared residuals of 0.25 each, mean 0.25
    target = Heatmap(np.full((2, 2), 0.5))
    pred = Heatmap(np.zeros((2, 2)))
    assert jc_loss([pred], [target]) == pytest.approx(0.25, abs=1e-12)


def test_jc_loss_averages_over_channels():
    exact = Heatmap(np.zeros((2, 2)))
    off = Heatmap(np.full((2, 2), 0.5))
    zero = Heatmap(np.zeros((2, 2)))
    # channel losses 0.0 and 0.25, mean 0.125
    assert jc_loss([zero, zero], [exact, off]) == pytest.approx(0.125, abs=1e-12)


def test_jc_loss_rejects_mismatched_channels_and_grids():
    target = Heatmap(np.zeros((2, 2)))
    pred = Heatmap(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="channel count"):
        jc_loss([pred, pred], [target])
    with pytest.raises(ValueError, match="grid shape"):
        jc_loss([Heatmap(np.zeros((3, 3)))], [target])
    with pytest.raises(ValueError, match="at least one"):
        jc_loss([], [])


def test_extract_single_peak():
    hm = render_gaussian([(32.0, 40.0)], sigma=2.0)
    assert extract_peaks(hm) == [((32, 40), 1.0)]


def test_extract_nothing_from_zero_grid():
    hm = Heatmap(np.zeros((16, 16)))
    assert extract_peaks(hm) == []


def test_extract_two_well_separated_peaks():
    hm = render_gaussian([(10.0, 10.0), (40.0, 40.0)], sigma=2.0)
    peaks = extract_peaks(hm)
    assert [p[0] for p in peaks] == [(10, 10), (40, 40)]
    # cross-contribution at 30*sqrt(2) px is far below 1e-10
    for _, response in peaks:
        assert response == pytest.approx(1.0, abs=1e-10)


def test_extract_orders_by_descending_response():
    hm = Heatmap(np.zeros((8, 8)))
    hm.values[1, 1] = 0.5
    hm.values[5, 5] = 0.9
    assert extract_peaks(hm) == [((5, 5), 0.9), ((1, 1), 0.5)]


def test_extract_tie_goes_to_lower_row_major_index():
    hm = Heatmap(np.zeros((8, 8)))
    hm.values[3, 3] = 0.7
    hm.values[3, 4] = 0.7
    assert extract_peaks(hm) == [((3, 3), 0.7)]


def test_extract_threshold_is_exclusive():
    hm = Heatmap(np.zeros((8, 8)))
    hm.values[4, 4] = 0.1
    assert extract_peaks(hm) == []
    above = np.nextafter(0.1, 1.0)
    hm.values[4, 4] = above
    assert extract_peaks(hm) == [((4, 4), above)]


@given(
    st.integers(6, 57),
    st.integers(6, 73),
)
@settings(max_examples=60, deadline=None)
def test_extract_recovers_isolated_center(x, y):
    # any on-grid center at least 3 sigma from the border comes back exactly
    hm = render_gaussian([(float(x), float(y))], sigma=2.0)
    assert extract_peaks(hm) == [((x, y), 1.0)]


@given(st.integers(0, 2**32 - 1), st.integers(4, 24), st.integers(4, 24))
@settings(max_examples=60, deadline=None)
def test_peak_count_bound_on_random_grids(seed, width, height):
    # two peaks need a gap of 2 in one axis under the 3x3 window, which caps
    # the count at ceil(w/2) * ceil(h/2)
    rng = np.random.default_rng(seed)
    hm = Heatmap(rng.random((height, width)))
    peaks = extract_peaks(hm)
    assert len(peaks) <= math.ceil(width / 2) * math.ceil(height / 2)
    # every reported peak strictly dominates its 8-neighborhood up to ties
    for (x, y), response in peaks:
        patch = hm.values[max(y - 1, 0) : y + 2, max(x - 1, 0) : x + 2]
        assert response == patch.max()


def reference_peaks(values):
    """The documented rule, pixel by pixel: a peak exceeds 0.1 and every other
    pixel of its 3x3 window, except equal pixels later in row-major order."""
    height, width = values.shape
    peaks = []
    for y in range(height):
        for x in range(width):
            v = values[y, x]
            if not v > 0.1:
                continue
            if all(
                v > values[ny, nx] or (v == values[ny, nx] and (ny, nx) > (y, x))
                for ny in range(max(y - 1, 0), min(y + 2, height))
                for nx in range(max(x - 1, 0), min(x + 2, width))
                if (ny, nx) != (y, x)
            ):
                peaks.append(((x, y), float(v)))
    return sorted(peaks, key=lambda p: (-p[1], p[0][1], p[0][0]))


@st.composite
def plateau_grids(draw):
    height = draw(st.integers(1, 11))
    width = draw(st.integers(1, 11))
    levels = st.sampled_from([0.0, 0.05, 0.1, 0.29, 0.3, 0.7, 1.0])
    cells = draw(st.lists(levels, min_size=height * width, max_size=height * width))
    return np.array(cells).reshape(height, width)


@given(plateau_grids())
@settings(max_examples=300, deadline=None)
def test_extract_matches_reference_rule(values):
    assert extract_peaks(Heatmap(values)) == reference_peaks(values)
