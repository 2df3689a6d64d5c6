import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posegraph.heatmaps import (
    CompositeTarget,
    Heatmap,
    compose_training_target,
    extract_peaks,
    jc_loss,
    render_gaussian,
)


def test_render_empty_centers_is_all_zero():
    hm = render_gaussian([], sigma=2.0, width=64, height=80)
    assert hm.values.shape == (80, 64)
    assert not hm.values.any()


def test_render_single_center_peak_and_falloff():
    hm = render_gaussian([(32.0, 40.0)], sigma=2.0, width=64, height=80)
    assert hm.values[40, 32] == 1.0
    # two pixels to the right: exp(-2^2 / (2 * 2^2))
    assert hm.values[40, 34] == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_render_coincident_centers_sum():
    hm = render_gaussian([(10.0, 10.0), (10.0, 10.0)], sigma=2.0, width=32, height=32)
    assert hm.values[10, 10] == pytest.approx(2.0, abs=1e-12)


def test_render_overflow_to_zero_warns_nothing():
    # Both calls once printed an overflow RuntimeWarning: the exponent
    # overflows to -inf, and exp(-inf) = 0 is the right value.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = render_gaussian([(3.0, 4.0)], sigma=1e-154, width=8, height=8)
        far = render_gaussian([(1e200, 4.0), (2.0, 5.0)], sigma=2.0, width=8, height=8)
    expected = np.zeros((8, 8))
    expected[4, 3] = 1.0
    assert np.array_equal(tiny.values, expected)
    near = render_gaussian([(2.0, 5.0)], sigma=2.0, width=8, height=8)
    assert np.array_equal(far.values, near.values)


def test_render_rejects_bad_sigma_and_dims():
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
    with pytest.raises(ValueError):
        render_gaussian([], sigma=2.0, width=0, height=10)


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
    joint = render_gaussian(a + b, sigma=2.0, width=32, height=32)
    parts = (
        render_gaussian(a, sigma=2.0, width=32, height=32).values
        + render_gaussian(b, sigma=2.0, width=32, height=32).values
    )
    assert np.allclose(joint.values, parts, atol=1e-12)
    flipped = render_gaussian(b + a, sigma=2.0, width=32, height=32)
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
    comp = compose_training_target(
        [(20.0, 20.0)], [(50.0, 50.0)], mu=0.5, sigma=2.0, width=64, height=80
    )
    grid = comp.composite_values()
    assert grid[20, 20] == pytest.approx(1.0, abs=1e-9)
    assert grid[50, 50] == pytest.approx(0.5, abs=1e-9)


def test_composite_mu_zero_equals_plain_target():
    comp = compose_training_target(
        [(20.0, 20.0)], [(50.0, 50.0), (10.0, 60.0)], mu=0.0
    )
    assert np.array_equal(comp.composite_values(), comp.target.values)


def test_composite_superposition_at_shared_center():
    comp = compose_training_target([(20.0, 20.0)], [(20.0, 20.0)], mu=0.5)
    assert comp.composite_values()[20, 20] == pytest.approx(1.5, abs=1e-9)


def test_composite_rejects_mu_out_of_range():
    with pytest.raises(ValueError):
        compose_training_target([], [], mu=1.5)
    with pytest.raises(ValueError):
        CompositeTarget(
            target=render_gaussian([], width=8, height=8),
            interference=render_gaussian([], width=8, height=8),
            mu=-0.1,
        )


def test_composite_rejects_mismatched_grids():
    with pytest.raises(ValueError, match="share dimensions"):
        CompositeTarget(
            target=render_gaussian([], width=8, height=8),
            interference=render_gaussian([], width=8, height=6),
            mu=0.5,
        )


def test_jc_loss_zero_on_exact_match():
    comps = [
        compose_training_target([(20.0, 20.0)], [(50.0, 50.0)], mu=0.5)
        for _ in range(3)
    ]
    preds = [
        Heatmap(c.composite_values()) for c in comps
    ]
    assert jc_loss(preds, comps) == 0.0


def test_jc_loss_hand_value_single_channel():
    # prediction all zeros against a constant 0.5 composite on a 2x2 grid:
    # four squared residuals of 0.25 each, mean 0.25
    comp = CompositeTarget(
        target=Heatmap(np.full((2, 2), 0.5)),
        interference=Heatmap(np.zeros((2, 2))),
        mu=0.5,
    )
    pred = Heatmap(np.zeros((2, 2)))
    assert jc_loss([pred], [comp]) == pytest.approx(0.25, abs=1e-12)


def test_jc_loss_averages_over_channels():
    exact = CompositeTarget(
        target=Heatmap(np.zeros((2, 2))),
        interference=Heatmap(np.zeros((2, 2))),
        mu=0.5,
    )
    off = CompositeTarget(
        target=Heatmap(np.full((2, 2), 0.5)),
        interference=Heatmap(np.zeros((2, 2))),
        mu=0.5,
    )
    zero = Heatmap(np.zeros((2, 2)))
    # channel losses 0.0 and 0.25, mean 0.125
    assert jc_loss([zero, zero], [exact, off]) == pytest.approx(0.125, abs=1e-12)


def test_jc_loss_rejects_mismatched_channels_and_grids():
    comp = CompositeTarget(
        target=Heatmap(np.zeros((2, 2))),
        interference=Heatmap(np.zeros((2, 2))),
        mu=0.0,
    )
    pred = Heatmap(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        jc_loss([pred, pred], [comp])
    with pytest.raises(ValueError):
        jc_loss([Heatmap(np.zeros((3, 3)))], [comp])
    with pytest.raises(ValueError):
        jc_loss([], [])


def test_extract_single_peak():
    hm = render_gaussian([(32.0, 40.0)], sigma=2.0, width=64, height=80)
    assert extract_peaks(hm, score_threshold=0.1, window=3) == [((32, 40), 1.0)]


def test_extract_nothing_from_zero_grid():
    hm = Heatmap(np.zeros((16, 16)))
    assert extract_peaks(hm) == []


def test_extract_two_well_separated_peaks():
    hm = render_gaussian([(10.0, 10.0), (40.0, 40.0)], sigma=2.0, width=64, height=64)
    peaks = extract_peaks(hm, score_threshold=0.1, window=3)
    assert [p[0] for p in peaks] == [(10, 10), (40, 40)]
    # cross-contribution at 30*sqrt(2) px is far below 1e-10
    for _, response in peaks:
        assert response == pytest.approx(1.0, abs=1e-10)


def test_extract_orders_by_descending_response():
    hm = Heatmap(np.zeros((8, 8)))
    hm.values[1, 1] = 0.5
    hm.values[5, 5] = 0.9
    peaks = extract_peaks(hm, score_threshold=0.1, window=3)
    assert peaks == [((5, 5), 0.9), ((1, 1), 0.5)]


def test_extract_tie_goes_to_lower_row_major_index():
    hm = Heatmap(np.zeros((8, 8)))
    hm.values[3, 3] = 0.7
    hm.values[3, 4] = 0.7
    assert extract_peaks(hm, score_threshold=0.1, window=3) == [((3, 3), 0.7)]


def test_extract_threshold_is_exclusive():
    hm = Heatmap(np.zeros((8, 8)))
    hm.values[4, 4] = 0.1
    assert extract_peaks(hm, score_threshold=0.1, window=3) == []
    assert extract_peaks(hm, score_threshold=0.09, window=3) == [((4, 4), 0.1)]


def test_extract_rejects_even_or_small_window():
    hm = Heatmap(np.zeros((8, 8)))
    with pytest.raises(ValueError):
        extract_peaks(hm, window=4)
    with pytest.raises(ValueError):
        extract_peaks(hm, window=1)


@given(
    st.integers(6, 57),
    st.integers(6, 73),
)
@settings(max_examples=60, deadline=None)
def test_extract_recovers_isolated_center(x, y):
    # any on-grid center at least 3 sigma from the border comes back exactly
    hm = render_gaussian([(float(x), float(y))], sigma=2.0, width=64, height=80)
    peaks = extract_peaks(hm, score_threshold=0.5, window=3)
    assert peaks == [((x, y), 1.0)]


@given(st.integers(0, 2**32 - 1), st.integers(4, 24), st.integers(4, 24))
@settings(max_examples=60, deadline=None)
def test_peak_count_bound_on_random_grids(seed, width, height):
    # two peaks need a gap of ceil((window+1)/2) in one axis, which caps the
    # count at ceil(w/2) * ceil(h/2) for window 3
    rng = np.random.default_rng(seed)
    hm = Heatmap(rng.random((height, width)))
    peaks = extract_peaks(hm, score_threshold=0.0, window=3)
    assert len(peaks) <= math.ceil(width / 2) * math.ceil(height / 2)
    # every reported peak strictly dominates its 8-neighborhood up to ties
    for (x, y), response in peaks:
        patch = hm.values[max(y - 1, 0) : y + 2, max(x - 1, 0) : x + 2]
        assert response == patch.max()


def reference_peaks(values, score_threshold, window):
    """The documented rule, pixel by pixel: a peak exceeds the threshold and
    every other pixel of its window, except equal pixels later in row-major
    order."""
    height, width = values.shape
    half = window // 2
    peaks = []
    for y in range(height):
        for x in range(width):
            v = values[y, x]
            if not v > score_threshold:
                continue
            if all(
                v > values[ny, nx] or (v == values[ny, nx] and (ny, nx) > (y, x))
                for ny in range(max(y - half, 0), min(y + half + 1, height))
                for nx in range(max(x - half, 0), min(x + half + 1, width))
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


@given(
    plateau_grids(),
    st.sampled_from([3, 5, 7]),
    st.sampled_from([0.0, 0.05, 0.1, 0.29]),
)
@settings(max_examples=300, deadline=None)
def test_extract_matches_reference_rule(values, window, score_threshold):
    assert extract_peaks(Heatmap(values), score_threshold, window) == reference_peaks(
        values, score_threshold, window
    )
