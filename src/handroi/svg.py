"""Dependency-free SVG emission: IoU histograms and schematic box overlays.

Output is plain text with fixed float formatting, so identical inputs always
produce identical bytes.
"""

GOLD_COLOR = "#2ca02c"
PRED_COLOR = "#d62728"
TICK_COLOR = "#1f77b4"
SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _f(v):
    return f"{v:.2f}"


def _escape(text):
    """text as XML character data; the stdlib escapes (html, xml.sax.saxutils) cost a large import."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def histogram_svg(series):
    """Overlaid bar histogram; `series` is a non-empty list of (label, counts) pairs.

    The count lists are equal-width bins covering [0, 1], all of one length.
    """
    bins = len(series[0][1])
    width, height, title = 640, 400, "IoU per method"
    margin_l, margin_r, margin_t, margin_b = 50, 15, 40, 40
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    peak = max((max(counts) for _, counts in series), default=0) or 1

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    # axes
    x0, y0 = margin_l, margin_t + plot_h
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>'
    )
    parts.append(f'<line x1="{x0}" y1="{margin_t}" x2="{x0}" y2="{y0}" stroke="black"/>')
    for i in range(6):
        frac = i / 5
        x = x0 + frac * plot_w
        parts.append(
            f'<text x="{_f(x)}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{frac:.1f}</text>'
        )
    parts.append(
        f'<text x="{_f(x0 - 8)}" y="{margin_t + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{peak}</text>'
    )
    bar_w = plot_w / bins
    for si, (label, counts) in enumerate(series):
        color = SERIES_COLORS[si % len(SERIES_COLORS)]
        for bi, count in enumerate(counts):
            if count == 0:
                continue
            h = plot_h * count / peak
            x = x0 + bi * bar_w
            parts.append(
                f'<rect x="{_f(x)}" y="{_f(y0 - h)}" width="{_f(bar_w)}" height="{_f(h)}" '
                f'fill="{color}" fill-opacity="0.5"/>'
            )
        # legend
        ly = margin_t + 16 * si
        parts.append(
            f'<rect x="{x0 + 10}" y="{ly}" width="12" height="12" '
            f'fill="{color}" fill-opacity="0.5"/>'
        )
        parts.append(
            f'<text x="{x0 + 27}" y="{ly + 10}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _polygon(quad, color):
    pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in quad)
    return f'<polygon points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'


def _bottom_tick(quad):
    # geometry.box_quads' corner order puts the pre-rotation bottom edge at 2 -> 3
    (x1, y1), (x2, y2) = quad[2], quad[3]
    return (
        f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
        f'stroke="{TICK_COLOR}" stroke-width="4"/>'
    )


def boxes_svg(width, height, gold_quad, pred_quads):
    """Schematic overlay: gold box green, predictions red, blue bottom ticks."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white" stroke="#cccccc"/>',
        _polygon(gold_quad, GOLD_COLOR),
        _bottom_tick(gold_quad),
    ]
    for quad in pred_quads:
        parts.append(_polygon(quad, PRED_COLOR))
        parts.append(_bottom_tick(quad))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
