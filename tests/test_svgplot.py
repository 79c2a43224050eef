"""SVG plots: byte-equal to the per-point renderer they replaced."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from storymetrics import svgplot
from storymetrics.svgplot import HEIGHT, MARGIN, PALETTE, WIDTH, render_svg


def _per_point_svg(series, gold_indices=(), peak_indices=()) -> str:
    """render_svg as it was before its coordinates became arrays: each
    point scaled and formatted on its own, in float arithmetic."""
    n = len(next(iter(series.values())))
    all_values = np.concatenate([np.asarray(v, float) for v in series.values()])
    lo, hi = float(all_values.min()), float(all_values.max())
    span = (hi - lo) or 1.0
    x_step = (WIDTH - 2 * MARGIN) / max(n - 1, 1)

    def to_xy(i, v):
        return MARGIN + i * x_step, HEIGHT - MARGIN - (v - lo) / span * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#cccccc"/>',
    ]
    for pos, name in enumerate(sorted(series)):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                       (to_xy(i, float(v)) for i, v in enumerate(series[name])))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{PALETTE[pos % 8]}" '
                     f'stroke-width="1.5"/>')
    base = np.asarray(series[sorted(series)[0]], float)
    for marker, indices in ((svgplot._star, gold_indices), (svgplot._triangle, peak_indices)):
        for idx in sorted(set(indices)):
            if 0 <= idx < n:
                parts.append(marker(*to_xy(idx, float(base[idx]))))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# finite floats, with the extremes that overflow a difference drawn often
_VALUES = st.sampled_from([0.0, -0.0, 1.0, 1e308, -1e308, 5e-324]) | st.floats(
    allow_nan=False, allow_infinity=False)


@st.composite
def _plots(draw):
    n = draw(st.integers(1, 40))
    names = draw(st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=4, unique=True))
    series = {name: draw(st.lists(_VALUES, min_size=n, max_size=n)) for name in names}
    marks = st.lists(st.integers(-2, n + 2), max_size=6)
    return series, draw(marks), draw(marks)


@settings(max_examples=50, deadline=None)
@given(plot=_plots())
def test_render_svg_equals_the_per_point_renderer(plot):
    series, gold, peaks = plot
    assert render_svg(series, gold, peaks) == _per_point_svg(series, gold, peaks)


def test_render_svg_of_overflowing_values_writes_nan_as_floats_do():
    """The value range overflows, which float arithmetic does silently and
    numpy would warn of."""
    svg = render_svg({"a": [1e308, -1e308, 0.0]})
    assert svg == _per_point_svg({"a": [1e308, -1e308, 0.0]})
    assert "nan" in svg
