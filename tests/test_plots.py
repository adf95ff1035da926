"""SVG rendering tests: determinism, structure, well-formed XML."""

import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from statnn.effects import PceCurve, PcePoint
from statnn.exceptions import DataError
from statnn.model import Architecture
from statnn.plots import (HEIGHT, WIDTH, pce_plot_svg, power_plot_svg,
                          selection_plot_svg)
from statnn.selection import SelectionSweep, SweepEntry
from statnn.simgen import SimReport, SimScenario


def _curve(label=None, shift=0.0, covariate="age"):
    pts = tuple(PcePoint(x=float(x), beta_hat=0.5 * x + shift, se=0.1,
                         lo=0.5 * x + shift - 0.196,
                         hi=0.5 * x + shift + 0.196)
                for x in (-2, -1, 0, 1, 2))
    return PceCurve(covariate=covariate, j=1, d=1.0, level=0.95,
                    scale="standardized", points=pts, condition_label=label)


def _power():
    """Three effect cells of a power grid, with known rates."""
    arch = Architecture(p=6, q=2)
    blank = np.full(arch.r, np.nan)
    cells = []
    for effect, sp, mp, n_pd in ((0.0, 0.04, 0.05, 100),
                                 (0.3, 0.35, 0.55, 100),
                                 (0.6, 0.88, 0.99, 98)):
        true_values = np.zeros(arch.r)
        true_values[arch.omega_index(2, 1)] = effect
        sp_rejection = np.zeros(arch.r)
        sp_rejection[arch.omega_index(2, 1)] = sp
        cells.append(SimReport(
            scenario=SimScenario(q=2, nz_pattern="5-1", n=100,
                                 replicates=100),
            true_values=true_values, n_total=100, n_fit_failed=0, n_pd=n_pd,
            n_converged=100, iterations=0, mean_estimate=blank,
            emp_se=blank, see=blank, coverage=blank,
            sp_rejection=sp_rejection,
            mp_rejection=np.array([0.0, mp, 0.0, 0.0, 0.0, 0.0])))
    return tuple(cells)


def _sweep():
    return SelectionSweep(entries=(
        SweepEntry(q=0, bic=300.0, cv_rmse=5.1, cv_se=0.4),
        SweepEntry(q=1, bic=260.0, cv_rmse=4.7, cv_se=0.35),
        SweepEntry(q=2, bic=255.0, cv_rmse=4.6, cv_se=0.3),
        SweepEntry(q=3, bic=262.0, cv_rmse=4.8, cv_se=0.5),
    ))


def _is_svg(text):
    return text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_pce_plot_structure():
    text = pce_plot_svg((_curve(),))
    assert _is_svg(text)
    assert f'width="{WIDTH:g}"' in text
    assert f'height="{HEIGHT:g}"' in text
    assert "age" in text
    assert "<polygon" in text       # confidence band
    assert "<polyline" in text      # center line
    assert "1-unit increase" in text


def test_pce_plot_byte_stable():
    a = pce_plot_svg((_curve(),))
    b = pce_plot_svg((_curve(),))
    assert a == b


def test_pce_plot_coordinates_quantized():
    """All emitted coordinates use two decimals, the byte-stability unit."""
    text = pce_plot_svg((_curve(),))
    for m in re.finditer(r'points="([^"]+)"', text):
        for pair in m.group(1).split():
            x, y = pair.split(",")
            for v in (x, y):
                assert re.fullmatch(r"-?\d+\.\d{2}", v), v


def test_pce_plot_single_point_has_marker_no_band():
    pts = (PcePoint(x=0.0, beta_hat=1.0, se=0.2, lo=0.6, hi=1.4),)
    curve = PceCurve(covariate="smoker.yes", j=2, d=1.0, level=0.95,
                     scale="standardized", points=pts)
    text = pce_plot_svg((curve,))
    assert "<polygon" not in text
    assert "<circle" in text


def test_pce_plot_reference_line_and_legend():
    text = pce_plot_svg((_curve(),), linear_beta=0.25)
    assert "linear model" in text
    plain = pce_plot_svg((_curve(),))
    assert "linear model" not in plain
    assert len(text) > len(plain)


def test_pce_plot_conditioned_curves_legend():
    curves = (_curve(label="flag=0"), _curve(label="flag=1", shift=0.4))
    text = pce_plot_svg(curves)
    assert "flag=0" in text and "flag=1" in text
    # two bands, two series
    assert text.count("<polygon") == 2


def test_pce_plot_empty_rejected():
    with pytest.raises(DataError):
        pce_plot_svg(())


def test_power_plot_structure():
    text = power_plot_svg(_power())
    assert _is_svg(text)
    assert "rejection rate" in text
    assert "single-parameter" in text
    assert "multiple-parameter" in text
    assert 'stroke-dasharray="7 3"' in text   # MP drawn dashed
    assert 'stroke-dasharray="2 4"' in text   # 0.05 guide line
    assert power_plot_svg(_power()) == text


def test_power_plot_empty_rejected():
    with pytest.raises(DataError):
        power_plot_svg(())


def test_selection_plot_structure():
    text = selection_plot_svg(_sweep())
    assert _is_svg(text)
    assert "BIC" in text
    assert "CV RMSE" in text
    assert "hidden nodes (0 = linear)" in text
    # error whiskers: one vertical line per CV point
    assert text.count("<line") >= 4
    assert selection_plot_svg(_sweep()) == text


def test_selection_plot_bic_only():
    sweep = SelectionSweep(entries=(
        SweepEntry(q=0, bic=300.0, cv_rmse=None, cv_se=None),
        SweepEntry(q=1, bic=280.0, cv_rmse=None, cv_se=None),
    ))
    text = selection_plot_svg(sweep)
    assert "BIC" in text
    assert "CV RMSE" not in text


def test_selection_plot_unscored_rejected():
    sweep = SelectionSweep(entries=(
        SweepEntry(q=0, bic=None, cv_rmse=None, cv_se=None, error="x"),
    ))
    with pytest.raises(DataError):
        selection_plot_svg(sweep)


def test_pce_plot_escapes_names_from_the_data():
    """Covariate names (also in the title) and condition labels come from
    CSV headers and levels; markup characters in them must not break the
    XML."""
    curves = (_curve(label="x<1 & y>2", covariate="a<b&c"),
              _curve(label="x>=1", shift=0.4, covariate="a<b&c"))
    root = ET.fromstring(pce_plot_svg(curves, linear_beta=0.1))
    texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "partial effect: a<b&c" in texts
    assert "a<b&c (standardized scale)" in texts
    assert "x<1 & y>2" in texts and "x>=1" in texts


def test_golden_pce_plot(tmp_path):
    """Pin the exact bytes of a small deterministic render.

    Guards against silent drift in the geometry or formatting; the file
    lives next to the tests and is regenerated by deleting it and
    running this test once.
    """
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "pce_small.svg"
    text = pce_plot_svg((_curve(),), linear_beta=0.25)
    if not golden.exists():
        golden.parent.mkdir(exist_ok=True)
        golden.write_text(text, encoding="utf-8")
    assert text == golden.read_text(encoding="utf-8")
