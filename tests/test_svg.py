"""The SVG line chart: escaped text, well-formed output and the log-axis band rule."""

import re
import xml.etree.ElementTree as ET

import pytest

from ual_lab.svg import Series, line_chart

NS = {"svg": "http://www.w3.org/2000/svg"}
XS = [0.0, 1.0, 2.0, 3.0]


def _parse(doc):
    return ET.fromstring(doc.encode("utf-8"))


def _frame(root):
    # the first rect is the white background, the second the plot frame
    rect = root.findall("svg:rect", NS)[1]
    x, y = float(rect.get("x")), float(rect.get("y"))
    return x, y, x + float(rect.get("width")), y + float(rect.get("height"))


def _decades(root):
    return sorted(int(t.text[2:]) for t in root.findall("svg:text", NS)
                  if re.fullmatch(r"1e-?\d+", t.text))


def _polygon_points(root):
    [polygon] = root.findall("svg:polygon", NS)
    return [tuple(map(float, p.split(","))) for p in polygon.get("points").split()]


def test_text_is_escaped_and_the_document_well_formed():
    names = ("a & b", "<c>", "d > e")
    doc = line_chart("mse & <bias>", "x < 1 & y", "err > 0",
                     [Series(name, XS, [1.0, 0.5, 0.2, 0.1]) for name in names])
    for raw in ("& ", "<c>", "<bias>", "x < 1", "d > e", "err > 0"):
        assert raw not in doc
    assert "mse &amp; &lt;bias&gt;" in doc and "&lt;c&gt;" in doc
    texts = [t.text for t in _parse(doc).findall("svg:text", NS)]
    for label in ("mse & <bias>", "x < 1 & y", "err > 0", *names):
        assert label in texts


def test_quotes_are_left_as_they_are():
    doc = line_chart('say "hi"', "it's", "y", [Series("s", XS, [1.0, 2.0, 3.0, 4.0])])
    assert 'say "hi"' in doc and "it's" in doc
    _parse(doc)


def test_no_series_raises():
    with pytest.raises(ValueError, match="at least one series"):
        line_chart("t", "x", "y", [])


def test_a_band_at_or_below_zero_does_not_stretch_the_axis():
    # a mean minus one std at or below zero has no log; the ticks stay
    # within the data and that band point sits on the frame's bottom edge
    ys = [1e1, 1e0, 1e-1, 1e-3]
    low = [5.0, -0.5, 0.0, 5e-4]
    high = [15.0, 2.0, 0.3, 2e-3]
    root = _parse(line_chart("t", "x", "y", [Series("s", XS, ys, low, high)]))
    assert _decades(root) == [-3, -2, -1, 0, 1]
    left, top, right, bottom = _frame(root)
    points = _polygon_points(root)
    assert len(points) == 2 * len(XS)
    for x, y in points:
        assert left <= x <= right and top <= y <= bottom
    # the low band runs backward: points 4 to 7 are its entries for x = 3 to 0;
    # its smallest positive value, 5e-4, sets the axis minimum
    assert [y for _, y in points[4:]] == pytest.approx([bottom, bottom, bottom, points[7][1]],
                                                        abs=0.01)
    assert points[7][1] < bottom


def test_a_positive_band_sets_the_range():
    ys = [1e0, 1e-1, 1e-2, 1e-2]
    root = _parse(line_chart("t", "x", "y",
                             [Series("s", XS, ys, [1e-5, 1e-2, 1e-3, 1e-3], [1e1] * 4)]))
    assert _decades(root) == [-5, -4, -3, -2, -1, 0, 1]
    left, top, right, bottom = _frame(root)
    ys_px = sorted(y for _, y in _polygon_points(root))
    assert ys_px[0] == pytest.approx(top, abs=0.01)
    assert ys_px[-1] == pytest.approx(bottom, abs=0.01)


def test_one_point_gets_unit_spans():
    # a budget-0 run's chart: one step and one value set both axis ranges to one unit
    root = _parse(line_chart("t", "x", "y", [Series("s", [0.0], [10.0])]))
    assert _decades(root) == [1, 2]
    left, _, _, bottom = _frame(root)
    [polyline] = root.findall("svg:polyline", NS)
    assert tuple(map(float, polyline.get("points").split(","))) == (left, bottom)
