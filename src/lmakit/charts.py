"""Minimal dependency-free SVG line charts for CLI outputs."""

from .files import open_output

_WIDTH, _HEIGHT = 640, 400
_MARGIN = 55

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def svg_line_chart(series, path, xlabel="", ylabel="", title=""):
    """Write a simple multi-series line chart.

    series: list of (name, xs, ys) tuples.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("empty chart series")
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    iw = _WIDTH - 2 * _MARGIN
    ih = _HEIGHT - 2 * _MARGIN

    def px(x):
        return _MARGIN + iw * (x - x0) / (x1 - x0)

    def py(y):
        return _HEIGHT - _MARGIN - ih * (y - y0) / (y1 - y0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-size="12">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="15" y="{_HEIGHT / 2}" text-anchor="middle" font-size="12" '
            f'transform="rotate(-90 15 {_HEIGHT / 2})">{ylabel}</text>'
        )
    for tick in (x0, (x0 + x1) / 2, x1):
        parts.append(
            f'<text x="{px(tick):.1f}" y="{_HEIGHT - _MARGIN + 18}" text-anchor="middle" '
            f'font-size="10">{tick:.4g}</text>'
        )
    for tick in (y0, (y0 + y1) / 2, y1):
        parts.append(
            f'<text x="{_MARGIN - 6}" y="{py(tick):.1f}" text-anchor="end" '
            f'font-size="10">{tick:.4g}</text>'
        )
    for k, (name, xs, ys) in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        if name:
            ly = _MARGIN + 14 * k
            parts.append(
                f'<line x1="{_WIDTH - _MARGIN - 90}" y1="{ly}" x2="{_WIDTH - _MARGIN - 70}" '
                f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{_WIDTH - _MARGIN - 65}" y="{ly + 4}" font-size="11">{name}</text>'
            )
    parts.append("</svg>")
    with open_output(path) as fh:
        fh.write("\n".join(parts) + "\n")
