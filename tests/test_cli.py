"""End-to-end checks of the command-line front end.

Commands run in-process through ``main`` (argv in, exit code out,
stdout/stderr via capsys); one subprocess smoke test covers the real
interpreter entry.  The emphasis is on contract properties: exit codes,
byte determinism, column schemas, and agreement between the emitted
numbers and the library calls they wrap.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from kdvorbits import bands, cli
from kdvorbits.asymptotics import K_asymptotes, V_near_m1
from kdvorbits.bands import band_edges
from kdvorbits.cli import main
from kdvorbits.errors import NumericalError
from kdvorbits.orbits import cnoidal_profile, orbit_data
from kdvorbits.shoaling import WaveTrain, critical_depth, wavelength
from kdvorbits.weierstrass import lattice

T_SEA = 8.0
RHO_SEA = 1025.0
G_SEA = 9.81
F_SEA = WaveTrain(5.0, wavelength(5.0, T_SEA, G_SEA), 0.5,
                  T_SEA, RHO_SEA, G_SEA).F


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def write_bed(tmp_path, depths):
    bed = tmp_path / "bed.csv"
    lines = ["X,h"] + ["%.17g,%.17g" % (50.0 * i, h) for i, h in enumerate(depths)]
    bed.write_text("\n".join(lines) + "\n")
    return bed


def uneven_bed(tmp_path, top, bottom, n):
    # n stations from top h* to bottom h* with uneven steps
    h_star = critical_depth(T_SEA, F_SEA, RHO_SEA, G_SEA)
    depths = [top * h_star * (bottom / top) ** ((i + 0.3 * math.sin(i)) / (n - 1))
              for i in range(n)]
    return write_bed(tmp_path, depths)


def shoal_args(bed):
    return ("shoal", "--bathymetry", bed, "--T", T_SEA, "--F", F_SEA,
            "--rho", RHO_SEA, "--g", G_SEA)


# Pinned bytes: the argvs whose stdout a test pins by its sha256, and the digests.
#
# Diagram digests recorded when diagram still called orbit_data once per cell.
# The first grid steps m by 1/16 from 0 and V by 1/48, so every row has cells on
# its corners e1, e2 and e3 (the double corner at m = 0), and it covers all four
# regions; the second reaches |V| = 1e6, where the cosh traces are inf.
DIAGRAM_PINNED = [
    (("--m-range", 0, 0.9375, "--V-range", -3, 3, "--grid", 16, 289),
     "11c70cfc986116d4e3838d317dc86da1f9bee9fee7b58d6d817e17fba280c42e"),
    (("--m-range", 0, 0.99, "--V-range", -1e6, 1e6, "--grid", 12, 41, "--json"),
     "e6f8418d416cda4bcffddde9cac7d5bfe92d52279458ef8027b43ea2e1de0a16"),
]
# Level-curve digests recorded when level-curve still solved one m per call: both
# regions, the corner levels -1/24, 0 and 1e-40, the m = 0 closed form, m up to
# 1 - 1e-7, and the band split by its two snap bands at the end.
_M_UP_TO = ("--m-min", 0, "--m-max", 0.9999999)
LEVEL_CURVE_PINNED = [
    (("--kc", -1.0 / 24.0, "--region", "below_wedge", "--m-samples", 9, *_M_UP_TO),
     "fa92337bd03c1a7642e6a0c548343c131237c62302882cbda1c06fadd2c5a2f4"),
    (("--kc", -1.0 / 24.0, "--region", "above_wedge", "--m-samples", 9, *_M_UP_TO),
     "811f8392746bcd0ea3457c38241bd5c2233deac80a6a2e1c483b351a8ad46f41"),
    (("--kc", 0, "--region", "above_wedge", "--m-samples", 9, *_M_UP_TO),
     "9c9eccd74e2a2be4e55d18791b0fa123c2a1a4862dd2f1def03ee57d6ed283f3"),
    (("--kc", 1e-40, "--region", "above_wedge", "--m-samples", 9, *_M_UP_TO),
     "9c9eccd74e2a2be4e55d18791b0fa123c2a1a4862dd2f1def03ee57d6ed283f3"),
    (("--kc", -0.3, "--region", "below_wedge", "--m-samples", 64, *_M_UP_TO),
     "4f11078a6b49cc226a3e6bbcafa0dde3e3b240e43bfd2543fe7b263ce692a930"),
    (("--kc", -12.5, "--region", "below_wedge", "--m-samples", 33, *_M_UP_TO),
     "a32d5b6a766386ecf5b8995dbafa1578a932b5f6c0c8fe8305542e3da15296ca"),
    (("--kc", 0.2, "--region", "above_wedge", "--m-samples", 64, *_M_UP_TO),
     "3dd372fe7a979f61b060a6675a84137aa269adf37525ed103b5e67d27fe0fe55"),
    (("--kc", -0.03, "--region", "above_wedge", "--m-samples", 64, "--json", *_M_UP_TO),
     "79e3c03170e02ffb4bc943d38ef517be322a395f28966fc23bcb95447f64573f"),
    (("--kc", -0.03, "--region", "above_wedge", "--m-samples", 9,
      "--m-min", 0.99999999999, "--m-max", 0.9999999999999),
     "b12f97d307ecb6ac7868f0f5bc7aa8c0142927b5a021c3bc5762cc910a376ea0"),
]
# Band digests of the benchmark's seed-7 band scan (2048 rows, CSV and JSON), the
# narrow lowest band of N = 3 at m = 0.95 and the N = 2 grid through the edges
# 1.5, 3 and 4.5, recorded when kappa_ell became the abelian integral (E, in_gap
# and winding as when the rows were built one energy at a time), and of the N = 1
# closed form (CSV and JSON).
BAND_PINNED = [
    (("--m", "0.47001263198085785", "--N", 2, "--E-max", "7.026116068127824",
      "--samples", 2048),
     "d665af9cff83ae39ad0cb700b22ef842c926fd225d072c4aa41d97d02cfabaee"),
    (("--m", "0.47001263198085785", "--N", 2, "--E-max", "7.026116068127824",
      "--samples", 2048, "--json"),
     "fce69975608abb1ff77300e243ce20ac95899df8505df1d072a00bd4432a488c"),
    (("--m", 0.95, "--N", 3, "--E-max", 13),
     "4a616ccfc5b1c5b514dcec3460a7fb9ca38b10aa609e083ee9aced737acdb47a"),
    (("--m", 0.5, "--N", 2, "--E-max", 6.0, "--samples", 121),
     "2ea5eee57abad286505aa56bed655a32ddebc78e5a5fe20f9b906fb7ac13564c"),
    (("--m", 0.6, "--E-max", 3.0, "--samples", 60),
     "1c14be6c32f5ba34f7edcf172b28c9e6771614b6f8aea2be7e41e9d8fefbd61b"),
    (("--m", 0.6, "--E-max", 3.0, "--samples", 60, "--json"),
     "ae0275644ccd869524f50e3a346e135562d0bbc90d8ff1d68d3b3186f10aa188"),
]
# At m = 1 - 1e-6 the lowest bands are narrower than band_edges resolves, so
# kappa_ell comes from the Magnus trace.
MAGNUS_ARGV = ("band", "--N", "3", "--m", "0.999999", "--E-max", "20", "--samples", "64")
# Shoal digests recorded while tables were still encoded by json.dumps: the beach
# of TestShoal.test_json_bytes_are_pinned as CSV, and a deep beach whose
# entry_index and crossing_depth are null.
SHOAL_PINNED = [
    (4.0, 0.4, 1001, (), "0dbd8ae26a04525c000d310355f2f6386b2ff70b8c9f93f997c13bc8b70afa11"),
    (6.0, 1.2, 40, ("--json",), "3d1dfd96684f1acfc0e3145082ca47b2ee801854b077c9edf9d9db691c1bc3c5"),
]
# Help and usage digests of Python 3.11's argparse at COLUMNS=80, recorded while
# every run still built the subparsers of all eight commands: the stdout of each
# --help, and the stderr of three usage errors.
TEXT_PINNED = [
    (("--help",), "0e81beeb725206fff6ecc33704ef39a7f745ddee9de1c163f4b213eeac0d4f47"),
    (("classify", "--help"), "2cb2a99020ccf1d37aa9a08ed009b7ddac92522c43b212f743c5b8ac365a2b99"),
    (("diagram", "--help"), "61f01fc414cd0d288ceb5a6d0f46169462c9f2e0fc1c39a0a2a131ab3fbc3dca"),
    (("level-curve", "--help"), "8ea301f98fcf2a1826a94b875d9e7b0401f1566cd1781fab32fd030d33d8ea4e"),
    (("band", "--help"), "500de55788f23810174c24d83b7d518aba57d024d990ee1b5a75494dccab8d03"),
    (("shoal", "--help"), "346551d99dbcaf88e2d63066624800c72e47e450eb3243e9255f7472ed61e357"),
    (("check-asymptotics", "--help"),
     "6f8e3f26b5c8b7b4eaab41c3c9a5a64bd5ff6baf29533cd523c20ea2b4fee949"),
    (("profile", "--help"), "eeb8abf234c6e0e02b87079386d9b0c0f644acbe9a6f84ef051dc92957a1d27e"),
    (("oracle", "--help"), "68813c612820d50f3dbd7a62473befbfd85a1486ca101b050119b027b1ca7b71"),
    ((), "21278ceb5e25a15c08467520f425e1327d6b853aea155c55c536d171493d5eca"),
    (("nosuch",), "df93cdb41b03df1117e1a0cbecb904c82aef0843c12420eeb2404ab045da0834"),
    (("diagram", "--grid", "3"), "c9c36d6c7cba2c4d96818455c48ec002a53b0036b1ec85b2a257be9ad431de47"),
]
PROFILE_ARGV = ("profile", "--m", 0.9, "--V", -0.5, "--c", -32, "--samples", 96, "--json")
# Every pinned argv, the band scans first; a shoal beach (top, bottom, n) is
# written as the bed of uneven_bed when the argv runs.
PINNED_ARGVS = [
    *(("band", *argv) for argv, _ in BAND_PINNED), MAGNUS_ARGV,
    *(("diagram", *argv) for argv, _ in DIAGRAM_PINNED),
    *(("level-curve", *argv) for argv, _ in LEVEL_CURVE_PINNED),
    shoal_args((4.0, 0.4, 1001)) + ("--json",),
    *(shoal_args((top, bottom, n)) + flags for top, bottom, n, flags, _ in SHOAL_PINNED),
    PROFILE_ARGV,
]


class TestClassify:
    def test_wedge_point(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--m", 0.5, "--V", -0.2)
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["class"] == "Hyperbolic"
        assert record["winding"] == 1
        assert record["trace"] < -2.0
        assert record["has_rest_frame"] is False
        assert record["kc_imag"] < 0.0

    def test_parabolic_point(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--m", 0.5, "--V", 0.5)
        record = json.loads(out)
        assert code == 0
        assert record["class"] == "Parabolic"
        assert record["kc_real"] == 0.0 and record["kc_imag"] == 0.0
        assert record["trace"] == 2.0

    def test_huge_V_gives_an_infinite_trace(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--m", 0.5, "--V", 1e8)
        assert code == 0 and err == ""
        record = json.loads(out)
        assert record["class"] == "Hyperbolic"
        assert record["winding"] == 0
        assert record["trace"] == math.inf

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--m", 2, "--V", 0)
        assert code == 2
        assert out == ""
        report = json.loads(err)
        assert report["error"] == "DomainError"
        assert "m" in report["message"]

    def test_numerical_error_exit_code(self, capsys, monkeypatch):
        def blow_up(m, V):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr("kdvorbits.cli.orbit_data", blow_up)
        code, _, err = run_cli(capsys, "classify", "--m", 0.5, "--V", 0.0)
        assert code == 3
        assert json.loads(err)["error"] == "NumericalError"


class TestDiagram:
    def run_grid(self, capsys, m_hi, n=24):
        code, out, _ = run_cli(capsys, "diagram", "--m-range", 0, m_hi,
                               "--V-range", -1.5, 1.5, "--grid", n, n)
        assert code == 0
        return parse_csv(out)

    def test_wedge_cells_are_exactly_the_deep_traces(self, capsys):
        header, rows = self.run_grid(capsys, 0.9)
        assert header == ["m", "V", "trace", "kc_real", "kc_imag",
                          "class", "winding"]
        for row in rows:
            in_wedge = row[5] == "Hyperbolic" and row[6] == "1"
            assert in_wedge == (float(row[2]) < -2.0)

    def test_wedge_fraction_grows_with_m(self, capsys):
        def fraction(m_hi):
            _, rows = self.run_grid(capsys, m_hi)
            hits = sum(r[5] == "Hyperbolic" and r[6] == "1" for r in rows)
            return hits / len(rows)

        assert fraction(0.9) > fraction(0.45)

    def test_row_major_order(self, capsys):
        code, out, _ = run_cli(capsys, "diagram", "--m-range", 0, 0.5,
                               "--V-range", -1, 1, "--grid", 2, 3)
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["0"] * 3 + ["0.5"] * 3
        assert [r[1] for r in rows] == ["-1", "0", "1"] * 2

    def test_empty_range_is_header_only(self, capsys):
        code, out, _ = run_cli(capsys, "diagram", "--m-range", 0, 0.5,
                               "--V-range", -1, 1, "--grid", 0, 16)
        assert code == 0
        assert out == "m,V,trace,kc_real,kc_imag,class,winding\n"

    def test_oversized_grid_rejected(self, capsys):
        code, _, err = run_cli(capsys, "diagram", "--m-range", 0, 0.5,
                               "--V-range", -1, 1, "--grid", 5000, 2)
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"

    def test_byte_determinism(self, capsys):
        first = run_cli(capsys, "diagram", "--m-range", 0, 0.8, "--V-range",
                        -1, 1, "--grid", 7, 7, "--json")
        second = run_cli(capsys, "diagram", "--m-range", 0, 0.8, "--V-range",
                         -1, 1, "--grid", 7, 7, "--json")
        assert first == second

    @pytest.mark.parametrize("argv, digest", DIAGRAM_PINNED)
    def test_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "diagram", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1.0, exclude_max=True),
           st.floats(-1e7, 1e7), st.floats(-1e7, 1e7),
           st.integers(1, 5), st.integers(1, 7))
    def test_rows_are_the_cells_own_orbit_data(self, m_lo, m_hi, v_lo, v_hi, nm, nv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([str(a) for a in ("diagram", "--m-range", repr(m_lo), repr(m_hi),
                                          "--V-range", repr(v_lo), repr(v_hi),
                                          "--grid", nm, nv)])
        assert code == 0
        expected = ["m,V,trace,kc_real,kc_imag,class,winding"]
        for m in (np.linspace(m_lo, m_hi, nm) if nm > 1 else [m_lo]):
            for V in (np.linspace(v_lo, v_hi, nv) if nv > 1 else [v_lo]):
                d = orbit_data(float(m), float(V))
                expected.append("%.17g,%.17g,%.17g,%.17g,%.17g,%s,%d" % (
                    m, V, d.trace, d.kc.real, d.kc.imag, d.orbit.kind.value,
                    d.orbit.winding))
        assert out.getvalue() == "\n".join(expected) + "\n"


class TestLevelCurve:
    def test_wedge_boundary_is_a_straight_line(self, capsys):
        code, out, _ = run_cli(capsys, "level-curve", "--kc", -1.0 / 24.0,
                               "--region", "above_wedge", "--m-samples", 9,
                               "--m-min", 0.05, "--m-max", 0.85)
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            m, v = float(row[0]), float(row[1])
            assert abs(v - (2.0 * m - 1.0) / 3.0) < 1e-12

    def test_zero_kc_is_the_parabolic_line(self, capsys):
        _, out, _ = run_cli(capsys, "level-curve", "--kc", 0, "--region",
                            "above_wedge", "--m-samples", 7)
        _, rows = parse_csv(out)
        for row in rows:
            m, v = float(row[0]), float(row[1])
            assert abs(v - (2.0 - m) / 3.0) < 1e-9

    def test_matches_near_one_asymptote(self, capsys):
        _, out, _ = run_cli(capsys, "level-curve", "--kc", 0.05, "--region",
                            "above_wedge", "--m-samples", 5,
                            "--m-min", 0.9995, "--m-max", 0.99995)
        _, rows = parse_csv(out)
        for row in rows:
            m, v = float(row[0]), float(row[1])
            assert abs(v - V_near_m1(0.05, m).value) < 1e-3

    def test_slope_near_one_asymptote(self, capsys):
        # The emitted curve's slope dV/dm converges linearly in 1 - m to
        # the asymptote's constant; a two-point stencil this deep gets
        # within 1e-3 of it.
        _, out, _ = run_cli(capsys, "level-curve", "--kc", 0.05, "--region",
                            "above_wedge", "--m-samples", 2,
                            "--m-min", 0.999999, "--m-max", 0.9999999)
        _, rows = parse_csv(out)
        (m0, v0), (m1, v1) = [(float(r[0]), float(r[1])) for r in rows]
        s = math.sqrt(6.0 * math.pi**2 * 0.05)
        slope = -(math.cosh(s) ** 2 - 2.0 / 3.0)
        assert abs((v1 - v0) / (m1 - m0) - slope) < 1e-3

    def test_json_container(self, capsys):
        _, out, _ = run_cli(capsys, "level-curve", "--kc", 0, "--region",
                            "above_wedge", "--m-samples", 3, "--json")
        payload = json.loads(out)
        assert payload["columns"] == ["m", "V"]
        assert len(payload["rows"]) == 3

    def test_infinite_kc_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "level-curve", "--kc", "inf",
                                 "--region", "above_wedge", "--m-samples", 3)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("argv, digest", LEVEL_CURVE_PINNED)
    def test_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "level-curve", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, message", [
        (("--kc", -1e307, "--region", "below_wedge", "--m-min", 0),
         "no finite V has kc = -1e+307 at m = 0"),
        (("--kc", -1e307, "--region", "below_wedge", "--m-min", 0.25),
         "no finite V has kc = -1e+307 at m = 0.25"),
        (("--kc", -0.3, "--region", "below_wedge", "--m-min", 0.5, "--m-max", 1.5),
         "lattice requires 0 <= m < 1, got 1.0"),
        (("--kc", 0.3, "--region", "below_wedge", "--m-min", -0.5),
         "lattice requires 0 <= m < 1, got -0.5"),
    ])
    def test_first_failing_m_reports(self, capsys, argv, message):
        # the rows fail for different reasons; the first in row order reports
        if "--m-max" not in argv:
            argv += ("--m-max", 0.5)
        code, out, err = run_cli(capsys, "level-curve", *argv, "--m-samples", 3)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "DomainError", "message": message}

    def test_tiny_kc_above_the_wedge(self, capsys):
        code, out, err = run_cli(capsys, "level-curve", "--kc", 1e-40,
                                 "--region", "above_wedge", "--m-samples", 3)
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        for row in rows:
            m, v = float(row[0]), float(row[1])
            assert abs(v - (2.0 - m) / 3.0) < 1e-15


def _avx512_dispatch() -> bool:
    """Whether numpy runs AVX-512 loops on this CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return any(__cpu_features__.get(name) for name in ("AVX512_SKX", "AVX512_ICL", "AVX512_SPR"))


class TestBand:
    def test_closed_form_scan_marks_the_gap(self, capsys):
        code, out, _ = run_cli(capsys, "band", "--m", 0.6, "--E-max", 3.0,
                               "--samples", 60)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["E", "kappa_ell", "in_gap", "winding"]
        lo, mid, hi = band_edges(0.6)
        for row in rows:
            e = float(row[0])
            if min(abs(e - edge) for edge in (lo, mid, hi)) < 1e-9:
                continue
            expected = e < lo or mid < e < hi
            assert (row[2] == "true") == expected
            assert float(row[1]) <= math.pi + 1e-12
            if e < lo:
                assert row[3] == "0"
            elif mid < e < hi:
                assert row[3] == "1"

    def test_winding_labels_bands(self, capsys):
        _, out, _ = run_cli(capsys, "band", "--m", 0.6, "--E-max", 3.0,
                            "--samples", 60)
        _, rows = parse_csv(out)
        lo, mid, hi = band_edges(0.6)
        for row in rows:
            e = float(row[0])
            if lo + 1e-6 < e < mid - 1e-6:
                assert row[3] == "0"      # valence band
            elif e > hi + 1e-6:
                assert row[3] == "1"      # conduction band

    def test_scanned_route_for_higher_index(self, capsys):
        # Lame N = 2 at m = 0.5: gaps at (1.5, 3.0) and (4.5, 3 + sqrt 3).
        code, out, _ = run_cli(capsys, "band", "--m", 0.5, "--N", 2,
                               "--E-max", 6.0, "--samples", 121)
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            e = float(row[0])
            if 1.6 < e < 2.9:
                assert row[2] == "true" and row[3] == "1"
            elif 3.1 < e < 4.4:
                assert row[2] == "false" and row[3] == "1"
            elif 4.6 < e < 4.7:
                assert row[2] == "true" and row[3] == "2"
            elif 4.8 < e < 6.0:
                assert row[2] == "false" and row[3] == "2"

    def test_scanned_columns_follow_the_band_edges(self, capsys):
        # the lowest band [2.923775, 2.923821] is narrower than the grid step
        m = 0.95
        code, out, _ = run_cli(capsys, "band", "--m", m, "--N", 3, "--E-max", 13)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 512
        edges = band_edges(m, 3)
        gaps = list(zip(edges[1::2], edges[2::2]))
        judged = 0
        for row in rows:
            e = float(row[0])
            if min(abs(e - edge) for edge in edges) <= 1e-6:
                continue
            judged += 1
            in_gap = e < edges[0] or any(lo < e < hi for lo, hi in gaps)
            assert (row[2] == "true") == in_gap, row
            assert int(row[3]) == sum(lo < e for lo, _ in gaps), row
        assert judged == 512

    @pytest.mark.parametrize("argv, digest", BAND_PINNED)
    def test_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "band", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_closed_gaps_at_m0_match_the_free_dispersion(self, capsys):
        # at m = 0 the gaps close onto E = 1, 4, 9: no row is forbidden and
        # the winding is the N = 1 closed form's, edges included
        flags = ("--m", 0.0, "--E-max", 10.0, "--samples", 11)
        _, scanned, _ = run_cli(capsys, "band", "--N", 3, *flags)
        _, closed, _ = run_cli(capsys, "band", "--N", 1, *flags)
        scanned_rows, closed_rows = parse_csv(scanned)[1], parse_csv(closed)[1]
        assert [r[2:] for r in scanned_rows] == [r[2:] for r in closed_rows]
        assert {r[2] for r in scanned_rows} == {"false"}

    @pytest.mark.parametrize("flags", [
        ("--m", "0.5", "--N", "0", "--E-max", "3"),
        ("--m", "0.5", "--E-max", "-1"),
        ("--m", "1.5", "--E-max", "3"),
        ("--m", "0.5", "--N", str(10**200), "--E-max", "3"),
    ])
    def test_rejects_bad_arguments(self, capsys, flags):
        code, out, err = run_cli(capsys, "band", *flags)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err)["error"] == "DomainError"

    def test_edge_rows_read_zero_or_pi(self, capsys):
        # Lame N = 2 at m = 0.5: the grid hits the edges 1.5 = 1 + m and
        # 3 = 1 + 4m of the first gap (Tr = -2) and 4.5 = 4 + m (Tr = +2)
        code, out, _ = run_cli(capsys, "band", "--m", 0.5, "--N", 2,
                               "--E-max", 6.0, "--samples", 121)
        assert code == 0
        kappa = {float(row[0]): float(row[1]) for row in parse_csv(out)[1]}
        assert [kappa[E] for E in (1.5, 3.0, 4.5)] == [math.pi, math.pi, 0.0]

    # Every pinned argv, not only band's: numpy's sin, cos, sqrt and arithmetic
    # are the only ufuncs on a printed path that it dispatches (test_layering),
    # and no BLAS kernel moves a printed value.
    @pytest.mark.parametrize("argv", PINNED_ARGVS)
    @pytest.mark.parametrize("env", [
        {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
        {"OPENBLAS_CORETYPE": "Prescott"},
    ], ids=["without-avx512", "openblas-prescott"])
    def test_bytes_do_not_depend_on_the_cpu_dispatch(self, capsys, tmp_path, argv, env):
        if "NPY_DISABLE_CPU_FEATURES" in env and not _avx512_dispatch():
            pytest.skip("numpy dispatches no AVX-512 loop on this CPU")
        argv = [str(uneven_bed(tmp_path, *a) if isinstance(a, tuple) else a) for a in argv]
        _, out, _ = run_cli(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "kdvorbits.cli", *argv],
                              capture_output=True, text=True, env={**os.environ, **env})
        assert proc.returncode == 0 and proc.stdout == out

    def test_unresolved_bands_print_the_magnus_bytes(self, capsys):
        # the sixth-order Magnus scheme's bytes, kappa_ell = math.acos(Tr / 2)
        code, out, _ = run_cli(capsys, *MAGNUS_ARGV)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "872ea4bafbdeab076d8f5796bd3bd8a7d3638bf678f2f2f63945b81f8c27980e")

    def test_a_failed_band_check_falls_back_to_the_magnus_trace(self, capsys, monkeypatch):
        # one edge moved by 1e-6 where kappa_ell_extended reads them: the
        # band check fails, and the rows off the edges take acos(Tr / 2)
        m, energies = 0.5, np.linspace(0.0, 6.0, 121)
        moved = list(band_edges(m, 2))
        moved[3] += 1e-6
        monkeypatch.setattr(bands, "band_edges", lambda *args: tuple(moved))
        _, out, _ = run_cli(capsys, "band", "--m", m, "--N", 2, "--E-max", 6.0,
                            "--samples", 121)
        traces = bands.floquet_traces(energies, m, 2)
        edges = band_edges(m, 2)
        for row, trace in zip(parse_csv(out)[1], traces):
            if min(abs(float(row[0]) - e) for e in edges) > 1e-6:
                assert float(row[1]) == math.acos(min(1.0, max(-1.0, trace / 2.0))), row

    def test_abelian_route_answers_past_the_scan_resolution(self, capsys):
        code, out, _ = run_cli(capsys, "band", "--m", 0.5, "--N", 2, "--E-max", 1e6,
                               "--samples", 3)
        assert code == 0
        row = parse_csv(out)[1][-1]
        kappa = bands.kappa_ell_extended([1e6], 0.5, 2)[0]
        assert row[0] == "1000000" and row[2:] == ["false", "2"]
        assert abs(float(row[1]) - abs(kappa - 2.0 * math.pi * round(kappa / (2.0 * math.pi)))) < 1e-9

    def test_energy_beyond_the_scan_resolution(self, capsys):
        # where the bands are unresolved, the Magnus scan answers, and it
        # refuses energies past its step phase
        code, out, err = run_cli(capsys, "band", "--m", 0.999999, "--N", 3,
                                 "--E-max", 1e6)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        report = json.loads(err)
        assert report["error"] == "DomainError"
        assert "resolves energies in" in report["message"]

    def test_strength_beyond_the_scan_resolution(self, capsys):
        # past about twice (2560 / K)^2 no energy is resolved at the ceiling
        code, out, err = run_cli(capsys, "band", "--m", 0.5, "--N", 3000,
                                 "--E-max", 5.0)
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["error"] == "DomainError"
        assert report["message"].startswith(
            "the Magnus scan of at most 2560 steps resolves no energy at strength "
            "N(N+1)m = 4501500.0 ")


@pytest.mark.parametrize("argv", [
    ("band", "--m", "0.5", "--N", "2", "--E-max", "inf", "--samples", "3"),
    ("diagram", "--m-range", "0.1", "0.5", "--V-range", "-inf", "1",
     "--grid", "2", "2"),
    ("level-curve", "--kc", "0.1", "--region", "below_wedge",
     "--m-samples", "3", "--m-max", "nan"),
])
def test_nonfinite_axis_end_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "DomainError"
    assert "must be finite" in report["message"]


class TestShoal:
    def straddling_depths(self):
        h_star = critical_depth(T_SEA, F_SEA, RHO_SEA, G_SEA)
        return np.linspace(5.0, 0.6 * h_star, 7), h_star

    def test_path_schema_and_flags(self, capsys, tmp_path):
        depths, _ = self.straddling_depths()
        bed = write_bed(tmp_path, depths)
        code, out, _ = run_cli(capsys, *shoal_args(bed))
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["X", "h", "lambda", "m", "V", "kc_real", "kc_imag",
                          "class", "winding", "in_wedge", "epsilon", "speed"]
        assert len(rows) == len(depths)
        for row in rows:
            wedge = row[9] == "true"
            assert wedge == (row[7] == "Hyperbolic" and row[8] == "1")
            assert (float(row[6]) < 0.0) == wedge
        assert [float(r[0]) for r in rows] == [50.0 * i
                                               for i in range(len(depths))]

    def test_crossing_depth_in_json(self, capsys, tmp_path):
        depths, h_star = self.straddling_depths()
        bed = write_bed(tmp_path, depths)
        code, out, _ = run_cli(capsys, *shoal_args(bed), "--json")
        payload = json.loads(out)
        assert payload["entry_index"] is not None
        assert_allclose(payload["crossing_depth"], h_star, rtol=1e-15)

    def test_deep_path_reports_no_crossing(self, capsys, tmp_path):
        bed = write_bed(tmp_path, [5.0, 4.8, 4.6])
        _, out, _ = run_cli(capsys, *shoal_args(bed), "--json")
        payload = json.loads(out)
        assert payload["entry_index"] is None
        assert payload["crossing_depth"] is None

    def test_rising_bed_rejected(self, capsys, tmp_path):
        bed = write_bed(tmp_path, [4.0, 4.5])
        code, _, err = run_cli(capsys, *shoal_args(bed))
        assert code == 2
        assert json.loads(err)["error"] == "DomainError"

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, *shoal_args(tmp_path / "no.csv"))
        assert code == 2
        assert "message" in json.loads(err)

    def test_overflowing_train_rejected(self, capsys, tmp_path):
        bed = write_bed(tmp_path, [5.0, 4.0])
        code, out, err = run_cli(capsys, "shoal", "--bathymetry", bed,
                                 "--T", "1e200", "--F", "1e4")
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err)["error"] == "DomainError"
        assert "T = 1e+200" in json.loads(err)["message"]

    def test_json_bytes_are_pinned(self, capsys, tmp_path):
        # 1001 stations from 4 h* to 0.4 h* with uneven steps; the digest was
        # recorded when m_from_depth still inverted one station per call
        code, out, _ = run_cli(capsys, *shoal_args(uneven_bed(tmp_path, 4.0, 0.4, 1001)), "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0e35c31a2f10f495a2085518a1e48a51290ae28ac590218b7108d4137e681ed3")

    @pytest.mark.parametrize("top, bottom, n, flags, digest", SHOAL_PINNED)
    def test_more_bytes_are_pinned(self, capsys, tmp_path, top, bottom, n, flags, digest):
        bed = uneven_bed(tmp_path, top, bottom, n)
        code, out, _ = run_cli(capsys, *shoal_args(bed), *flags)
        assert code == 0
        if "--json" in flags:
            payload = json.loads(out)
            assert payload["entry_index"] is None and payload["crossing_depth"] is None
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestProfile:
    def test_matches_library_samples(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--m", 0.5, "--V", 0.4,
                               "--c", 1, "--samples", 16)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 16
        expected = cnoidal_profile(0.5, 0.4, 1.0, n=16)
        xs = np.array([float(r[0]) for r in rows])
        ps = np.array([float(r[1]) for r in rows])
        assert_allclose(xs, 2.0 * math.pi * np.arange(16) / 16, rtol=1e-16)
        assert_allclose(ps, expected.samples, rtol=1e-16)

    def test_json_bytes_are_pinned(self, capsys):
        # recorded when jacobi became Bulirsch's ascent
        code, out, _ = run_cli(capsys, *PROFILE_ARGV)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e22f0ee276531d9f678a9a321dd1079d96b5902c26009235630924599419fe37")

    @pytest.mark.parametrize("n", [0, 5000])
    def test_rejects_bad_sample_counts(self, capsys, n):
        code, _, _ = run_cli(capsys, "profile", "--m", 0.5, "--V", 0.4,
                             "--c", 1, "--samples", n)
        assert code == 2


class TestOracle:
    def oracle(self, capsys, m, V, c):
        code, out, _ = run_cli(capsys, "oracle", "--m", m, "--V", V, "--c", c)
        assert code == 0
        return json.loads(out)

    def test_wedge_wave(self, capsys):
        record = self.oracle(capsys, 0.5, -0.2, 1.0)
        assert abs(record["closed_trace"] - record["floquet_trace"]) < 1e-6
        assert record["winding_closed"] == 1
        assert record["winding_numeric"] == 1
        assert record["kdv_translation_error"] < 1e-6

    def test_shallow_water_charge(self, capsys):
        record = self.oracle(capsys, 0.5, 1.0, -32.0 * math.pi**3)
        assert record["winding_closed"] == 0
        assert record["winding_numeric"] == 0
        assert abs(record["closed_trace"] - record["floquet_trace"]) < 1e-6

    def test_parabolic_line(self, capsys):
        record = self.oracle(capsys, 0.5, 0.5, 1.0)
        assert abs(record["closed_trace"] - 2.0) < 1e-6

    def test_integrates_once(self, capsys, monkeypatch):
        # trace and winding come from one RK4 sweep per step count, the
        # 1024-step sweep and the 512- and 256-step sweeps of its Richardson
        # estimate, and one pass down the accepted sweep's products
        from kdvorbits import hill

        sweep, running, steps = hill._sweep, hill._running, []

        def counted(q, h):
            levels = sweep(q, h)
            steps.append(levels[0].shape[0])
            return levels

        def down(levels):
            steps.append(("down", levels[0].shape[0]))
            return running(levels)

        monkeypatch.setattr(hill, "_sweep", counted)
        monkeypatch.setattr(hill, "_running", down)
        record = self.oracle(capsys, 0.5, -0.2, 1.0)
        assert steps == [256, 512, 1024, ("down", 1024)]
        assert record["winding_numeric"] == 1

    def test_a_charge_past_the_step_ceiling_is_refused_at_once(self, capsys):
        # the KdV half would take 127,380 steps, seconds of work, at c = 1e8
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "oracle", "--m", 0.5, "--V", 0.2, "--c", 1e8)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        report = json.loads(err)
        assert report["error"] == "DomainError" and "127380 KdV steps" in report["message"]


@pytest.mark.parametrize("command", ["oracle", "profile"])
@pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
def test_nonfinite_central_charge_is_refused(capsys, command, c):
    code, out, err = run_cli(capsys, command, "--m", 0.5, "--V", 0.2, "--c", c)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    report = json.loads(err)
    assert report["error"] == "DomainError"
    assert "must be finite" in report["message"]


class TestCheckAsymptotics:
    def test_battery_is_green(self, capsys):
        code, out, _ = run_cli(capsys, "check-asymptotics")
        assert code == 0
        report = json.loads(out)
        assert report["all_ok"] is True
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names)) == 9
        for check in report["checks"]:
            assert check["ok"] is True, check["name"]
            if check["criterion"] == "ratio_in_window":
                lo, hi = check["window"]
                assert lo <= check["ratio"] <= hi

    def test_K_references_within_four_ulp(self, capsys):
        # the K rows measure |asymptote - reference K| at g = 2^-17 and 2^-18;
        # with 40-digit K(1 - g) and K(g) in place of the references each
        # measured error may move by at most 4 ulp of that K
        _, out, _ = run_cli(capsys, "check-asymptotics")
        measured = {c["name"]: c["measured"] for c in json.loads(out)["checks"]}
        for i, g in enumerate((2.0 ** -17, 2.0 ** -18)):
            big, small = K_asymptotes(1.0 - g)
            with mp.workdps(40):
                rows = [("K_log_branch_first_order", big.value, mp.ellipk(1 - mp.mpf(g))),
                        ("K_complement_second_order", small.value, mp.ellipk(mp.mpf(g)))]
                for name, value, K in rows:
                    exact = float(abs(value - K))
                    assert abs(measured[name][i] - exact) <= 4.0 * math.ulp(float(K)), name

    @pytest.mark.parametrize("q2", [1e-4, 5e-5, 2.5e-5, 6.25e-6, 1e-8])
    def test_nome_round_trip(self, q2):
        # the battery's m for a given nome square, from the theta quotient
        lat = lattice(cli._m_for_nome_sq(q2))
        assert_allclose(math.exp(-2.0 * math.pi * lat.Kc / lat.K), q2, rtol=1e-13)


class TestOutputPlumbing:
    def test_out_flag_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run_cli(capsys, "classify", "--m", 0.3,
                                    "--V", -0.9)
        target = tmp_path / "record.json"
        code, out, _ = run_cli(capsys, "classify", "--m", 0.3, "--V", -0.9,
                               "--out", target)
        assert code == 0 and out == ""
        assert target.read_text() == stdout_text

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(capsys, "profile", "--m", 0.5, "--V", 0.4,
                            "--c", 1, "--samples", 16)
        _, rows = parse_csv(out)
        assert rows[1][0] == "%.17g" % (2.0 * math.pi / 16.0)

    def test_repeated_runs_identical(self, capsys):
        runs = [run_cli(capsys, "band", "--m", 0.6, "--E-max", 2.0,
                        "--samples", 40) for _ in range(2)]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("argv", [
        ("classify", "--m", "0.5"),
        ("classify", "--m", "abc", "--V", "1"),
        ("classify", "--m", "0.5", "--V", "0.1", "--bogus"),
        ("diagram", "--grid", "3"),
        ("nosuch",),
        (),
    ])
    def test_usage_error_is_one_json_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err)["error"] == "ArgumentError"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--help"])
        assert exc.value.code == 0
        assert "--V" in capsys.readouterr().out

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        # a usage error and a domain error leave the process-wide parsers as
        # a fresh interpreter would find them
        calls = [("classify", "--m", "0.5"),
                 ("band", "--m", "0.5", "--N", "0", "--E-max", "1"),
                 ("classify", "--m", "0.3", "--V", "-0.9"),
                 ("diagram", "--m-range", "0.2", "0.6", "--V-range", "-1", "1",
                  "--grid", "3", "2")]
        fresh = [subprocess.run([sys.executable, "-m", "kdvorbits.cli", *argv],
                                capture_output=True) for argv in calls]
        used, parse_args = [], cli._Parser.parse_args
        built, init = [], cli._Parser.__init__

        def recorded(parser, *args, **kwargs):
            used.append(parser)
            return parse_args(parser, *args, **kwargs)

        def constructed(parser, *args, **kwargs):
            built.append(kwargs["prog"])
            init(parser, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_args", recorded)
        monkeypatch.setattr(cli._Parser, "__init__", constructed)
        cli._parser.cache_clear()
        for argv, proc in zip(calls, fresh):
            code = main(list(argv))
            captured = capsys.readouterr()
            assert (code, captured.out.encode(), captured.err.encode()) == (
                proc.returncode, proc.stdout, proc.stderr), argv
        assert [proc.returncode for proc in fresh] == [2, 2, 0, 0]
        # each command's parser is built once, with that command's subparser
        # alone, and serves every later call of the command
        assert used[0] is used[2]
        assert [prog for prog in built if prog != "kdvorbits"] == [
            "kdvorbits classify", "kdvorbits band", "kdvorbits diagram"]

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="argparse lays out its text differently in other Python versions")
    @pytest.mark.parametrize("argv, digest", TEXT_PINNED)
    def test_help_and_usage_bytes_are_pinned(self, capsys, monkeypatch, argv, digest):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        text = captured.out if code == 0 else captured.err
        assert (code, hashlib.sha256(text.encode()).hexdigest()) == (0 if "--help" in argv else 2,
                                                                      digest)

    def test_a_run_builds_only_its_command(self):
        script = ("import contextlib, io\n"
                  "from kdvorbits import cli\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    assert cli.main(['classify', '--m', '0.5', '--V', '0.1']) == 0\n"
                  "print(cli._parser.cache_info().currsize, cli._parser('classify').format_usage())")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "COLUMNS": "80"})
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "1 usage: kdvorbits [-h] {classify} ...\n\n"

    def test_subprocess_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kdvorbits.cli", "classify",
             "--m", "0.5", "--V", "-0.2"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["class"] == "Hyperbolic"



def _dumps_table(columns, rows, extra):
    """What json.dumps makes of a table; in_gap and in_wedge cells hold
    booleans as cli._BOOLEAN prints them."""
    rows = [[cell == "true" if name in ("in_gap", "in_wedge") else cell
             for name, cell in zip(columns, row)] for row in rows]
    return json.dumps({"columns": list(columns), "rows": rows, **extra}, indent=2) + "\n"


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_CELLS = {"class": st.sampled_from(["Elliptic", "Hyperbolic", "Parabolic", "Exceptional"]),
          "winding": st.integers(0, 10**40), "in_gap": st.sampled_from(cli._BOOLEAN),
          "in_wedge": st.sampled_from(cli._BOOLEAN)}
_NONFINITE = [math.inf, -math.inf, math.nan]
_TEXT = st.text(max_size=6)


@st.composite
def _tables(draw):
    """(columns, rows, extra) of one of the CLI's table schemas, with at
    least one non-finite float cell and any extra keys and values."""
    columns = draw(st.sampled_from(sorted(cli._JSON_ROW_FORMATS)))
    cells = [_CELLS.get(name, _ANY_FLOAT) for name in columns]
    rows = draw(st.lists(st.tuples(*cells).map(list), min_size=1, max_size=6))
    rows[draw(st.integers(0, len(rows) - 1))][draw(st.sampled_from(
        [i for i, cell in enumerate(cells) if cell is _ANY_FLOAT]))] = draw(
        st.sampled_from(_NONFINITE))
    extra = draw(st.dictionaries(_TEXT.filter(lambda k: k not in ("columns", "rows")), st.one_of(
        st.none(), st.booleans(), _ANY_FLOAT, st.integers(-2**80, 2**80), _TEXT), max_size=3))
    return columns, rows, extra


class TestJsonTable:
    """The row writer of --json tables prints json.dumps(payload, indent=2)."""

    @pytest.mark.parametrize("columns, rows", [
        (cli._DIAGRAM_COLUMNS,
         [[0.5, -0.2, -math.inf, 0.0, -0.0, "Hyperbolic", 1],
          [5e-324, 1e6, math.inf, 1.7e308, -5e-324, "Hyperbolic", 0],
          [0.1, 2.0, math.nan, -1.0 / 24.0, 0.0, "Elliptic", 10**30]]),
        (cli._PROFILE_COLUMNS, [[0.0, math.nan], [-0.0, -math.inf], [1.7e308, math.inf]]),
        (cli._LEVEL_CURVE_COLUMNS, [[0.25, -math.inf]]),
        (cli._BAND_COLUMNS, [[0.5, math.nan, "true", 2], [math.inf, 0.0, "false", 2**70]]),
        (cli._SHOAL_COLUMNS,
         [[0.0, 4.0, 50.0, 0.3, 0.1, -0.0, 0.0, "Elliptic", 0, "false", 1e-3, 6.2],
          [40.0, 1.0, 1.7e308, 0.99, -0.6, math.inf, -math.inf, "Hyperbolic", 1, "true",
           5e-324, math.nan]]),
    ])
    @pytest.mark.parametrize("extra", [
        {}, {"entry_index": None, "crossing_depth": None},
        {"entry_index": 2**64, "crossing_depth": -math.inf, "naïve €": 'say "hi"',
         "back\\slash": "ünïcode\n\"q\"", "flags": True, "off": False, "nan": math.nan},
    ])
    def test_explicit_tables(self, columns, rows, extra):
        for some in (rows, rows[:0]):
            assert cli._json_table(columns, some, extra) == _dumps_table(columns, some, extra)

    @settings(max_examples=150, deadline=None)
    @given(_tables())
    def test_random_tables(self, table):
        assert cli._json_table(*table) == _dumps_table(*table)


# The argv vocabulary: every subcommand's flags with values that work, and
# for every flag the bad ones too (non-finite, out of range, not a number,
# empty).  Counts stay small, so no drawn call computes for long; --help is
# left out, as it exits through SystemExit by design.
_BAD = ["nan", "inf", "-inf", "-1e300", "abc", ""]
_M = ["0", "0.3", "0.95", "1e-300", "1", "-0.1"] + _BAD
_V = ["-0.9", "0", "0.2", "1e6", "-1e6"] + _BAD
_COUNT = ["0", "1", "5", "-1", "5000", "2.5"] + _BAD
_POSITIVE = ["1", "8", "2e4", "1025", "9.81", "0", "-2"] + _BAD
_BED, _NO_BED, _BAD_BED, _DIR, _OUT, _NO_DIR = (
    "bed.csv", "missing.csv", "garbage.csv", ".", "out.txt", "missing/out.txt")
_ARGV = {
    "classify": {"--m": (1, _M), "--V": (1, _V)},
    "diagram": {"--m-range": (2, _M), "--V-range": (2, _V), "--grid": (2, _COUNT)},
    "level-curve": {"--kc": (1, ["-0.3", "0", "0.2", "-12.5"] + _V),
                    "--region": (1, ["below_wedge", "above_wedge", "inside"]),
                    "--m-samples": (1, _COUNT), "--m-min": (1, _M), "--m-max": (1, _M)},
    "band": {"--m": (1, _M), "--N": (1, ["1", "2", "3", "0", "5000", "x"]),
             "--E-max": (1, ["3", "7", "0", "-1", "1e6"] + _BAD), "--samples": (1, _COUNT)},
    "shoal": {"--bathymetry": (1, [_BED, _NO_BED, _BAD_BED, _DIR]), "--T": (1, _POSITIVE),
              "--F": (1, _POSITIVE), "--rho": (1, _POSITIVE), "--g": (1, _POSITIVE)},
    "check-asymptotics": {},
    "profile": {"--m": (1, _M), "--V": (1, _V), "--c": (1, _POSITIVE), "--samples": (1, _COUNT)},
    "oracle": {"--m": (1, _M), "--V": (1, _V), "--c": (1, _POSITIVE)},
}
_EXTRAS = [("--json",), ("--out", _OUT), ("--out", _DIR), ("--out", _NO_DIR),
           ("--bogus",), ("stray",), ("--m",)]


def _assert_the_contract(argv):
    """Exit code 0, 2 or 3, nothing raised; stderr is empty on success and
    one JSON line otherwise, with nothing on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), argv
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert out.getvalue() == "", argv
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
        assert sorted(json.loads(err.getvalue())) == ["error", "message"], argv


class TestArgvContract:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("argv")
        h_star = critical_depth(T_SEA, F_SEA, RHO_SEA, G_SEA)
        depths = np.linspace(5.0, 0.6 * h_star, 5)
        (root / _BED).write_text("X,h\n" + "".join(
            "%.17g,%.17g\n" % (50.0 * i, h) for i, h in enumerate(depths)))
        (root / _BAD_BED).write_text("X,h\n0,abc\n1\n")
        return root

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_every_argv_gets_an_exit_code_and_at_most_one_json_line(self, workdir, data):
        command = data.draw(st.sampled_from(sorted(_ARGV) + ["nosuch"]), label="command")
        groups = []
        for flag, (arity, values) in _ARGV.get(command, {}).items():
            if data.draw(st.integers(0, 7), label=f"keep {flag}"):
                size = data.draw(st.sampled_from([arity] * 3 + [arity - 1]), label=f"{flag} arity")
                groups.append((flag, *data.draw(
                    st.lists(st.sampled_from(values), min_size=size, max_size=size), label=flag)))
        groups += data.draw(st.lists(st.sampled_from(_EXTRAS), max_size=2), label="extras")
        argv = [command] + [token for group in data.draw(st.permutations(groups), label="order")
                            for token in group]
        argv = [str(workdir / t) if t in (_BED, _NO_BED, _BAD_BED, _DIR, _OUT, _NO_DIR) else t
                for t in argv]
        _assert_the_contract(argv)

    # calls that broke the contract: an --out that cannot be opened raised
    # out of main, and the oracle's sweeps printed numpy overflow warnings
    @pytest.mark.parametrize("argv", [
        ("check-asymptotics", "--out", _DIR),
        ("classify", "--m", "0.5", "--V", "0", "--out", _NO_DIR),
        ("oracle", "--m", "0.95", "--V", "-1e6", "--c", "1"),
        ("oracle", "--m", "1e-300", "--V", "1e6", "--c", "1"),
        ("oracle", "--m", "0.95", "--V", "1e300", "--c", "1"),
        ("oracle", "--m", "0", "--V", "-0.9", "--c", "1e300"),
    ])
    def test_calls_that_broke_it(self, workdir, argv):
        _assert_the_contract([str(workdir / t) if t in (_DIR, _NO_DIR) else t for t in argv])

