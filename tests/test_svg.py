"""Byte pins for the SVG emitters.

Each case renders one chart from fixed inputs and compares the sha256 of the
text with the digest the emitters produced when it was written, so any
change to a coordinate, a rounding, a style or the element order shows up.
The cases cover the three charts the CLI writes, the edge shapes of each
emitter (an empty histogram, one bar, a palette that wraps, a one-point line,
a 1x1 heatmap, values clipped into [0, 1]) and text that must be escaped.
"""

from __future__ import annotations

import hashlib
import xml.etree.ElementTree as ET

import pytest

from sparsethresh import svg

CASES = {
    # the CLI's smin histogram: 50 bins on [0, 1]
    "hist-cli": lambda: svg.histogram_svg(
        [(7 * i) % 13 for i in range(50)],
        [i / 50 for i in range(51)],
        title="sigma_min over 600 draws (n_a=1, n_b=2)",
        x_label="sigma_min",
    ),
    "hist-all-zero": lambda: svg.histogram_svg(
        [0, 0, 0], [0.0, 1.0, 2.0, 3.0], title="nothing", x_label="x"
    ),
    "hist-offset-edges": lambda: svg.histogram_svg(
        [3, 1, 4, 1, 5],
        [0.37, 0.41, 0.45, 0.49, 0.53, 0.57],
        title="offset",
        x_label="sigma_min",
        y_label="draws",
    ),
    "bars-one": lambda: svg.bars_svg([("only", 0.125)], title="one bar", y_label="v"),
    # the CLI's moment chart (smin --q) with the xi_x bars: 6 bars, plus one so the palette wraps
    "bars-seven": lambda: svg.bars_svg(
        [(f"bar {i}", 0.1 + 0.37 * i) for i in range(7)],
        title="moment roots vs bounds (q=8, trials=10000)",
        y_label="moment root",
    ),
    # at 200 bars a value label placed at the tick's x, not at x + w / 2, moves a last digit
    "bars-200": lambda: svg.bars_svg(
        [(str(i), (i * 37) % 101) for i in range(200)], title="200 bars", y_label="v"
    ),
    # the CLI's recover line chart: 2 strategies over 9 totals
    "line-cli": lambda: svg.line_chart_svg(
        list(range(9)),
        {
            "first-n": [1.0, 1.0, 1.0, 0.97, 0.9, 0.71, 0.4, 0.13, 0.02],
            "random-baseline": [1.0, 1.0, 0.99, 0.95, 0.83, 0.6, 0.31, 0.1, 0.0],
        },
        title="basis-pursuit success rate (100 trials/cell)",
        x_label="n_a + n_b",
        y_label="success rate",
    ),
    "line-one-point": lambda: svg.line_chart_svg(
        [4], {"only": [0.5]}, title="one point", x_label="k", y_label="rate"
    ),
    "line-three-series": lambda: svg.line_chart_svg(
        [2, 3, 5, 8],
        {"a": [0.1, 0.2, 0.3, 0.4], "b": [0.4, 0.3, 0.2, 0.1], "c": [0.0, 0.0, 0.0, 0.0]},
        title="three",
        x_label="k",
        y_label="rate",
    ),
    # the CLI's recover heatmap: a 5x5 grid
    "heat-cli": lambda: svg.heatmap_svg(
        [[(i * 5 + j) / 24 for j in range(5)] for i in range(5)],
        x_ticks=[0, 1, 2, 3, 4],
        y_ticks=[0, 1, 2, 3, 4],
        title="success rate, strategy first-n",
        x_label="n_b",
        y_label="n_a",
    ),
    "heat-one-cell": lambda: svg.heatmap_svg(
        [[0.5]], x_ticks=[3], y_ticks=[7], title="one cell", x_label="n_b", y_label="n_a"
    ),
    "heat-clipped": lambda: svg.heatmap_svg(
        [[-0.5, 1.5, 0.25], [2.0, -3.0, 0.75]],
        x_ticks=[0, 1, 2],
        y_ticks=[0, 1],
        title="clipped",
        x_label="n_b",
        y_label="n_a",
    ),
    "escaped-text": lambda: svg.line_chart_svg(
        [0, 1], {"<&>": [0.2, 0.8]}, title="a <&> b", x_label="x <&>", y_label="y & z"
    ),
    "escaped-ticks": lambda: svg.heatmap_svg(
        [[0.1, 0.9]], x_ticks=["<a>", "b&c"], y_ticks=["<&>"],
        title="t", x_label="x", y_label="y",
    ),
    "escaped-bar-label": lambda: svg.bars_svg([("<&>", 1.0), ("x", 2.0)], title="&", y_label=">"),
}

DIGESTS = {
    "bars-200": "18dfce5058c9d32001ae71a8df02c8791af45ab7bfb17a1e2006150488eba965",
    "bars-one": "def3c798703d834bb84864863023cdaf6e253164deaea2557c0a13caf76700b9",
    "bars-seven": "6c2d361e4bb9af51301e480b932f1525e093c4da10f26c13f06e44f149148b0b",
    "escaped-bar-label": "1deb1c3a7788962c829dc5683999590f80e38938d1f610a60d7540441a54974d",
    "escaped-text": "772ebd40b33ec11c61f10f7920abe7948edf367565da2ed4589612af2fee095f",
    "escaped-ticks": "daac2ec70c8760a6f293ff010a99baeb4880c17901ee12a7bd8c1106263d380a",
    "heat-cli": "b39ed874c8d0b96e9401a4069117b96e2352160da1e5ecd16ec1452fcd9dd5e8",
    "heat-clipped": "03775e6c07c7386183933e0892580e791553ec4f43fa490c827b1b1303ce7317",
    "heat-one-cell": "bad1397f4ef2f9447498b52c9f5d8443ae61c0e3b85ca9da1fec6e191e1d2d43",
    "hist-all-zero": "0f65fa2861f3ae1d09d7991d1425eb4c3a5653443eeb02dd90e84e7d31709c6f",
    "hist-cli": "5a193b5be9407c18879c5c08533ae63857d4710444ca66d547259b4eaef2cca1",
    "hist-offset-edges": "3d82f558c896598fd7c46008d31c2d8fed7caf5a76d8ac4914d038e52fb0774b",
    "line-cli": "a8d26e82205affb7cb3e8737bf5d58d9c3d8ed274015e2b5278da3f1a9650252",
    "line-one-point": "8b90de8b7e4476b3281ea6abf84f641c1a1dc0eae774ba0521289dd8aa5f4104",
    "line-three-series": "e0076c1c52be583aa08e9ebadee84c4552b00bae3f021becb08fd43042fb122e",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bytes_are_pinned(case):
    text = CASES[case]()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_is_one_well_formed_svg_document(case):
    text = CASES[case]()
    assert text.endswith("</svg>\n") and text.count("</svg>") == 1
    assert ET.fromstring(text).tag == "{http://www.w3.org/2000/svg}svg"
