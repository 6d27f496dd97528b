import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cgm.cli import (
    ScanSpec,
    _scan,
    main,
    parse_number,
    parse_range,
    run_scan,
    write_scan_csv,
    write_scan_svg,
)
from cgm import cli, regions, verify
from cgm.regions import cell_value, classify
from cgm.scalars import Params
from cgm.verify import CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _cell_value(spec: ScanSpec, p: float, q: float) -> float:
    return cell_value(spec.predicate, p, q, spec.n, spec.c)


def per_cell_scan(spec: ScanSpec) -> list:
    """The scan cells from the per-cell rule alone, in run_scan's order."""
    ps = [float(v) for v in spec.axis("p")]
    qs = [float(v) for v in spec.axis("q")]
    return [(p, q, _cell_value(spec, p, q)) for p in ps for q in qs]


class TestFlagParsing:
    def test_rationals(self):
        assert parse_number("16/3") == Fraction(16, 3)
        assert parse_number("0.05") == Fraction(1, 20)
        assert parse_number("-2") == -2
        assert isinstance(parse_number("-2"), int)

    def test_ranges(self):
        lo, hi, step = parse_range("-9:3:0.05")
        assert (lo, hi, step) == (-9, 3, Fraction(1, 20))
        with pytest.raises(Exception):
            parse_range("1:2")
        with pytest.raises(Exception):
            parse_range("3:1:0.5")


class TestClassifyCommand:
    def test_cheeger_gromoll_with_curvature(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--p", "1", "--q", "1", "--n", "3", "--c", "1")
        assert code == 0
        payload = last_json(out)
        assert payload["in_gamma"] is True
        assert payload["scalar_at_zero"] == 24.0

    def test_sasaki_all_false(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--p", "0", "--q", "0", "--n", "3")
        assert code == 0
        payload = last_json(out)
        assert payload["in_gamma"] is False and payload["in_gamma_prime"] is False

    def test_exact_rational_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--p", "2", "--q", "-1", "--n", "3", "--c", "16/3"
        )
        assert code == 0
        assert last_json(out)["in_delta"] is True

    def test_case_e_on_the_exact_line(self, capsys):
        # p + q = 1 exactly, although float(7/5) + float(-2/5) rounds below 1
        code, out, _ = run_cli(capsys, "classify", "--p", "7/5", "--q=-2/5", "--n", "2", "--c", "1")
        assert code == 0
        assert "scalar_condition = e\n" in out

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--p", "1", "--n", "3"])  # missing --q
        assert exc.value.code == 2
        assert main(["classify", "--p", "1", "--q", "1", "--n", "1"]) == 2


USAGE_ERRORS = [
    (("find-params", "--n", "2", "--c", "1/0"), "zero denominator"),
    (("scan", "--p-range=0:1:1/0", "--q-range=0:1:1", "--n", "2", "--predicate", "gamma", "--csv", "x.csv"),
     "zero denominator"),
    (("scan", "--p-range=0:1:0", "--q-range=0:1:1", "--n", "2", "--predicate", "gamma", "--csv", "x.csv"),
     "--p-range: step must be positive"),
    (("find-params", "--n", "3", "--c", "1e400"), "outside the float range"),
    (("curvature", "--p", "1", "--q", "1", "--n", "3", "--c", "1", "--samples=-1"), "--samples must be >= 0"),
    (("verify", "--tol-scale", "1"), "unrecognized arguments: --tol-scale"),
    (("verify", "--seed=-1"), "--seed must be >= 0"),
    # refused before any array is built, so this allocates nothing large
    (("curvature", "--p", "1", "--q", "1", "--n", "3", "--c", "1", f"--samples={cli.MAX_GRID_CELLS + 1}"),
     "--samples exceeds the 1e7 sample limit"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=["zero_denominator", "zero_denominator_in_range", "zero_step", "past_float_range",
                              "negative_samples", "removed_flag", "negative_seed", "samples_past_the_limit"])
def test_usage_errors_exit_2(argv, message, capsys):
    # argparse exits 2 from inside main; the other usage errors return 2
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


# flags the parser accepts whose evaluations pass the float range: answered with inf or nan, exit 0
FLOAT_RANGE_EDGES = [
    (("classify", "--p", "1e308", "--q", "1e308", "--n", "2", "--c", "1"), "scalar_at_zero = inf\n"),
    (("classify", "--p=-1e308", "--q=-1e308", "--n", "2", "--c=-1"), "scalar_at_zero = -inf\n"),
    (("curvature", "--p", "3", "--q", "1e200", "--n", "3", "--c", "1", "--samples", "2"), "\n0,1,0,1e+200,1e+200,nan\n"),
    (("curvature", "--p", "1/3", "--q", "1e160", "--n", "3", "--c", "1", "--samples", "2"), "\n0,1,0,1e+160,1e+160,nan\n"),
    (("curvature", "--p", "1e200", "--q", "0", "--n", "3", "--c", "1", "--samples", "2"), "\n0,1,0,nan,nan,nan\n"),
]


@pytest.mark.parametrize("argv, row", FLOAT_RANGE_EDGES,
                         ids=["classify_inf", "classify_minus_inf", "curvature_q_1e200", "curvature_rational_p",
                              "curvature_p_1e200"])
def test_float_range_edges_exit_0(argv, row, capsys):
    with np.errstate(all="ignore"):
        code, out, err = run_cli(capsys, *argv)
    assert code == 0 and row in out and "Traceback" not in err


def test_curvature_io_error_exit_3(tmp_path, capsys):
    code, out, err = run_cli(capsys, "curvature", "--p", "1", "--q", "1", "--n", "3", "--c", "1",
                             "--csv", str(tmp_path / "missing" / "x.csv"))
    assert (code, out) == (3, "") and err.startswith("I/O error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (("classify", "--p", "1e308", "--q", "1e308", "--n", "2", "--c", "1"), 0, "scalar_at_zero = inf\n", ""),
    (("classify", "--p", "1", "--q", "1", "--n", "1"), 2, "", "error: n >= 2 required\n"),
], ids=["answer", "refusal"])
def test_module_entry(argv, code, stdout, stderr):
    # the exit code as a shell sees it, through the interpreter's own exit path; stderr holds no traceback
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "cgm.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (code, stderr) and stdout in proc.stdout


class TestScanCommand:
    def test_gamma_scan_golden_cells(self, tmp_path, capsys):
        csv = tmp_path / "gamma.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--p-range=-1:3:0.5", "--q-range=-1:2:0.5",
            "--n", "3", "--predicate", "gamma", "--csv", str(csv),
        )
        assert code == 0
        raw = csv.read_bytes()
        assert b"\r" not in raw  # LF endings
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == "p,q,predicate,value"
        table = {(row.split(",")[0], row.split(",")[1]): row.split(",")[3] for row in lines[1:]}
        assert table[("1", "1")] == "1"
        assert table[("2", "0")] == "1"
        assert table[("0", "0")] == "0"

    def test_delta_scan_c6_has_no_axis_cells(self, tmp_path, capsys):
        csv = tmp_path / "delta.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--p-range", "0:3:0.25", "--q-range", "0:0:1",
            "--n", "3", "--c", "6", "--predicate", "delta", "--csv", str(csv),
        )
        assert code == 0
        rows = csv.read_text().splitlines()[1:]
        assert all(row.split(",")[3] == "0" for row in rows)

    def test_predicate_requires_c(self, tmp_path, capsys):
        csv = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "scan", "--p-range", "0:1:1", "--q-range", "0:1:1",
            "--n", "3", "--predicate", "delta", "--csv", str(csv),
        )
        assert (code, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1
        assert "base curvature c" in err and not csv.exists()

    def test_byte_identical_to_per_cell_rule(self, tmp_path, capsys):
        # the CLI's column kernel against the per-cell rule, written by the same writers
        csv, svg = tmp_path / "scan.csv", tmp_path / "scan.svg"
        code, _, err = run_cli(
            capsys, "scan", "--p-range=-9:3:0.5", "--q-range=-3:3:0.5",
            "--n", "2", "--predicate", "gamma_prime", "--csv", str(csv), "--svg", str(svg),
        )
        assert code == 0 and re.search(r", csv \d+\.\d{3} s, svg \d+\.\d{3} s\n\Z", err)
        spec = ScanSpec((-9, 3, Fraction(1, 2)), (-3, 3, Fraction(1, 2)), 2, None, "gamma_prime")
        cells = per_cell_scan(spec)
        write_scan_csv(str(tmp_path / "cell.csv"), spec, cells)
        write_scan_svg(str(tmp_path / "cell.svg"), spec, cells)
        outputs = [(csv.read_bytes(), svg.read_bytes())]
        outputs.append(((tmp_path / "cell.csv").read_bytes(), (tmp_path / "cell.svg").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_reports_exact_path_count(self, tmp_path, capsys):
        csv = tmp_path / "gamma.csv"
        code, out, err = run_cli(
            capsys, "scan", *TestByteIdentity.GRID, "--predicate", "gamma", "--csv", str(csv),
        )
        assert code == 0
        assert out == f"wrote 425 cells to {csv}\n"
        match = re.fullmatch(
            r"scan: 425 cells, (\d+) on the exact per-cell path\n"
            r"scan: columns with ties \d+\.\d{3} s, csv \d+\.\d{3} s\n", err)
        assert match and int(match.group(1)) > 0  # the cells on p + q = 1 are ties

    def test_csv_round_trip(self, tmp_path, capsys):
        csv = tmp_path / "round.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--p-range=-2:2:0.35", "--q-range=-1:1:0.3",
            "--n", "3", "--c", "1", "--predicate", "scalar_sufficient", "--csv", str(csv),
        )
        assert code == 0
        spec = ScanSpec((-2, 2, Fraction(35, 100)), (-1, 1, Fraction(3, 10)), 3, 1, "scalar_sufficient")
        rows = csv.read_text().splitlines()[1:]
        for row in rows[:: max(len(rows) // 20, 1)]:
            p_s, q_s, _, v_s = row.split(",")
            again = _cell_value(spec, float(p_s), float(q_s))
            assert abs(again - float(v_s)) <= 1e-10

    @pytest.mark.parametrize("predicate", ["omega", "gama", "scalar_condition"])
    def test_unknown_predicate_raises(self, predicate):
        # in_omega and scalar_condition are verdict fields, but not scan predicates
        spec = ScanSpec((0, 1, 1), (0, 1, 1), 3, 1, predicate)
        with pytest.raises(ValueError, match=predicate):
            _cell_value(spec, 0.5, 0.5)
        with pytest.raises(ValueError, match=predicate):
            run_scan(spec)

    def test_svg_shape(self, tmp_path, capsys):
        svg = tmp_path / "img.svg"
        run_cli(
            capsys, "scan", "--p-range", "0:2:1", "--q-range", "0:2:1",
            "--n", "3", "--predicate", "gamma", "--csv", str(tmp_path / "img.csv"),
            "--svg", str(svg),
        )
        text = svg.read_text()
        assert text.startswith("<svg")
        assert 'xmlns="http://www.w3.org/2000/svg"' in text
        assert text.count("<rect") >= 9 + 3  # cells plus legend entries
        assert "hatch" in text

    def test_io_error_exit_3(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--p-range", "0:1:1", "--q-range", "0:1:1",
            "--n", "3", "--predicate", "gamma",
            "--csv", str(tmp_path / "missing" / "dir" / "x.csv"),
        )
        assert code == 3 and "I/O" in err

    def test_grid_limit_guard(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--p-range", "0:10000:0.001", "--q-range", "0:10000:0.001",
            "--n", "3", "--predicate", "gamma", "--csv", str(tmp_path / "x.csv"),
        )
        assert code == 2 and "cell limit" in err


class TestScanKernel:
    """run_scan's column kernel gives the per-cell rule's value on every cell.

    The grids put nodes on the lines p + q = 1 and 2p + q = 0, on the axis
    q = 0, on the p cuts and on the hyperbola q = lambda(p).  At (-3, 32/5),
    (-26/7, 44/5), (-20/7, 6) and (-16/7, 23/5) the float q equals the
    rounded lambda(p) but not lambda(p): only the exact tie path gets the
    cells in the sevenths grid right.
    """

    GRIDS = {
        "sevenths_fifths": ((Fraction(-26, 7), -2, Fraction(1, 7)), (4, 9, Fraction(1, 5))),
        "thirds": ((-3, 3, Fraction(1, 3)), (-2, 3, Fraction(1, 3))),
        "twentieths": ((1, Fraction(5, 2), Fraction(1, 20)), (Fraction(-3, 10), 0, Fraction(1, 20))),
        "dyadic": ((-8, 3, Fraction(1, 2)), (-2, 10, 1)),
        # q = float(nu(3/2)) = float(-2/7) != nu(3/2) at n = 2 cases (d) and (e); p + q = 1 at q < 0
        "nu_fourteenths": ((1, 2, Fraction(1, 2)), (-1, 0, Fraction(1, 14))),
    }

    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_kernel_matches_per_cell_rule(self, grid):
        p_range, q_range = self.GRIDS[grid]
        specs = [
            ScanSpec(p_range, q_range, n, None, predicate)
            for n in (2, 3) for predicate in ("gamma", "gamma_prime", "vertical_positive")
        ]
        specs += [
            ScanSpec(p_range, q_range, n, c, predicate)
            for n in (2, 3) for c in (-1, 0, Fraction(1, 3), 1, Fraction(16, 3), 6)
            for predicate in ("delta", "delta_prime", "scalar_sufficient")
        ]
        for spec in specs:
            got, want = [tuple(row) for row in run_scan(spec).tolist()], per_cell_scan(spec)
            bad = [(g, w) for g, w in zip(got, want) if repr(g) != repr(w)]
            assert len(got) == len(want) and not bad, (spec, bad[:3])

    ATLAS_GAMMA = ScanSpec((-9, 3, Fraction(1, 20)), (-3, 3, Fraction(1, 20)), 3, None, "gamma")

    def test_run_scan_returns_one_float_array(self):
        cells = run_scan(self.ATLAS_GAMMA)
        assert isinstance(cells, np.ndarray) and cells.dtype == np.float64 and cells.flags.c_contiguous
        assert cells.shape == (29161, 3)

    def test_run_scan_holds_no_cell_objects(self):
        # the (N, 3) float array, 0.70 MB on the atlas grid; one tuple per cell held 1.99 MB
        run_scan(self.ATLAS_GAMMA)  # first-call caches outside the measurement
        tracemalloc.start()
        try:
            cells = run_scan(self.ATLAS_GAMMA)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cells.nbytes <= held < 1_000_000

    def test_scalar_sufficient_per_cell_counts_on_atlas_grid(self):
        # the cells the kernel leaves to the per-cell rule: the case regions and the ties (a mask
        # derived by hand from the cases sent 321 at n = 3, c = 4 and 2701 at n = 2, c = 3)
        for (n, c), want in {(3, 4): 101, (2, 3): 911}.items():
            spec = ScanSpec((-9, 3, Fraction(1, 20)), (-3, 3, Fraction(1, 20)), n, c, "scalar_sufficient")
            assert _scan(spec)[1] == want

    @pytest.mark.parametrize("predicate", ["delta", "delta_prime", "scalar_sufficient"])
    def test_missing_c_is_a_value_error(self, predicate):
        # one refusal for the predicates that need c; classify still reports Delta as unknown
        spec = ScanSpec((0, 2, Fraction(1, 2)), (-1, 1, Fraction(1, 2)), 3, None, predicate)
        with pytest.raises(ValueError, match="base curvature c"):
            run_scan(spec)
        with pytest.raises(ValueError, match="base curvature c"):
            cell_value(predicate, 0.5, 0.5, 3)
        verdict = classify(Params(0.5, 0.5), 3)
        assert (verdict.in_delta, verdict.in_delta_prime, verdict.delta_reason) == (
            None, None, "no base curvature supplied")

    def test_tie_counts_on_atlas_grid(self):
        # the cells the column kernel leaves to the per-cell rule (classify's verdict) on the atlas grid
        spec = ScanSpec((-9, 3, Fraction(1, 20)), (-3, 3, Fraction(1, 20)), 3, None, "gamma")
        q = np.array([float(v) for v in spec.axis("q")])
        cases = [("gamma", 3, None), ("gamma_prime", 2, None)]
        cases += [(predicate, 3, c) for c in (0, 1, Fraction(16, 3), 6) for predicate in ("delta", "delta_prime")]
        for predicate, n, c in cases:
            ties = sum(regions.column_values(predicate, float(p), q, n, c)[1] for p in spec.axis("p"))
            assert ties == (103 if c in (None, 0) else 74), (predicate, c)

    ATLAS_LINES = (
        "gamma_n3: 2190/29161 cells inside, 103 on the exact per-cell path\n"
        "gamma_prime_n2: 3000/29161 cells inside, 103 on the exact per-cell path\n"
        "delta_c0: 2221/29161 cells inside, 103 on the exact per-cell path\n"
        "delta_c1: 101/29161 cells inside, 74 on the exact per-cell path\n"
        "delta_c5.33333: 14/29161 cells inside, 74 on the exact per-cell path\n"
        "delta_c6: 10/29161 cells inside, 74 on the exact per-cell path\n"
        "scalar_sufficient_c4: 101/29161 cells inside, 101 on the exact per-cell path\n"
        "vertical_positive_n2: 3000/29161 cells inside, 103 on the exact per-cell path\n"
    )

    def test_region_atlas_script(self, tmp_path, capsys, monkeypatch):
        # scripts/region_atlas.py writes the eight rasters and prints their inside and tie counts
        path = Path(__file__).resolve().parents[1] / "scripts" / "region_atlas.py"
        loader = importlib.util.spec_from_file_location("region_atlas", path)
        script = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(script)
        monkeypatch.setattr(sys, "argv", [str(path), str(tmp_path / "atlas")])
        assert script.main() == 0
        assert capsys.readouterr().out == self.ATLAS_LINES
        names = [line.split(":")[0] for line in self.ATLAS_LINES.splitlines()]
        files = sorted(f.name for f in (tmp_path / "atlas").iterdir())
        assert files == sorted(f"{name}.{ext}" for name in names for ext in ("csv", "svg"))


class TestCurvatureCommand:
    def header_and_rows(self, out):
        lines = out.strip().splitlines()
        assert lines[0] == "t,K_hh_max_e,K_hv_max_e,K_vv_min,K_vv_U,scalar"
        return [line.split(",") for line in lines[1:]]

    def test_flat_sasaki_all_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "--p", "0", "--q", "0", "--n", "3", "--c", "0",
            "--t-max", "4", "--samples", "20",
        )
        assert code == 0
        for row in self.header_and_rows(out):
            assert all(float(v) == 0.0 for v in row[1:])

    def test_zero_section_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "curvature", "--p", "1", "--q", "1", "--n", "3", "--c", "0",
            "--t-max", "2", "--samples", "5",
        )
        rows = self.header_and_rows(out)
        assert float(rows[0][3]) == 3.0  # K_vv at the zero section is 2p+q
        assert float(rows[0][5]) == 18.0

    def test_ball_bundle_clip_and_boundary_value(self, capsys):
        code, out, err = run_cli(
            capsys, "curvature", "--p", "2", "--q", "-1", "--n", "3", "--c", "0",
            "--t-max", "5", "--samples", "400",
        )
        assert code == 0
        assert "clipped" in err
        rows = self.header_and_rows(out)
        assert abs(float(rows[-1][3]) - 4.0) < 1e-3  # K_vv (orthogonal) -> mu(2)

    def test_negative_t_max_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "curvature", "--p", "1", "--q", "1", "--n", "3", "--c", "1", "--t-max=-1",
        )
        assert code == 2 and out == "" and "--t-max" in err

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "curv.csv"
        code, _, _ = run_cli(
            capsys, "curvature", "--p", "1", "--q", "1", "--n", "2", "--c", "1",
            "--csv", str(path),
        )
        assert code == 0 and path.read_text().startswith("t,")


def find_params_timing(route: str) -> str:
    """The stderr line of find-params: the route, then the seconds of the search and of the certificate."""
    return rf"find-params: {route}, search \d+\.\d{{3}} s, certificate \d+\.\d{{3}} s\n"


class TestFindParamsCommand:
    def test_surface_route(self, capsys):
        code, out, err = run_cli(capsys, "find-params", "--n", "2", "--c", "-1")
        assert code == 0
        assert re.fullmatch(find_params_timing("minimal-mu grid search"), err)
        payload = last_json(out)
        assert (payload["p"], payload["q"]) == (2.0, 0.0)
        assert payload["min_scalar_on_grid"] > 0

    def test_ball_bundle_route_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "find-params", "--n", "3", "--c", "1")
        assert code == 0
        assert "ball-bundle metric: q < 0" in out
        payload = last_json(out)
        assert (payload["p"], payload["q"]) == (2.0, -1.0)

    def test_large_p_route_exit_0(self, capsys):
        # mu(p) for p past ~143 used to overflow the float path
        code, out, _ = run_cli(capsys, "find-params", "--n", "3", "--c", "-100")
        assert code == 0
        payload = last_json(out)
        assert payload["p"] > 143 and payload["min_scalar_on_grid"] > 0

    def test_c_past_the_bound_on_p_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "find-params", "--n", "3", "--c", "1e9")
        assert code == 2 and out == ""
        assert err.startswith("error: no p <= 13109.2") and err.count("\n") == 1

    def test_c_past_the_float_range_of_mu_prints_c_short(self, capsys):
        code, out, err = run_cli(capsys, "find-params", "--n", "2", "--c", "1e300")
        assert (code, out, err) == (2, "", "error: no p <= 13109.2 on the grid has mu(p) > 1e+300 (c = 1e+300)\n")

    def test_thm3_no_candidate_prints_c_short(self, capsys, monkeypatch):
        monkeypatch.setattr(regions, "_thm3_candidates", lambda n, cf: iter(()))
        code, out, err = run_cli(capsys, "find-params", "--nonneg-q", "--n", "2", "--c=-1e300")
        assert (code, out) == (1, "")
        assert err == "error: coefficient search found no candidate with all G coefficients positive (n=2, c=-1e+300)\n"

    def test_thm3_c_past_the_bound_on_p_exit_2(self, capsys):
        code, out, err = run_cli(capsys, "find-params", "--nonneg-q", "--n", "3", "--c", "1e5")
        assert code == 2 and out == ""
        assert err.startswith("error: no starting p <= ") and err.count("\n") == 1

    @pytest.mark.parametrize("n, c, message", [
        ("3", "-1e300", "error: the starting p for c < 0 passes 514 (n = 3, c = -1e+300)"),
        ("3", "-1e5", "error: the starting p for c < 0 passes 514 (n = 3, c = -100000)"),
        ("5", "-450", "error: G at p = 508, q = 128694 has coefficients past the float range"),
    ], ids=["n3-c-1e300", "n3-c-1e5", "n5-c-450"])
    def test_thm3_negative_c_past_the_float_range_exit_2(self, capsys, n, c, message):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "find-params", "--nonneg-q", "--n", n, f"--c={c}")
        assert (code, out, err) == (2, "", message + "\n")
        assert time.perf_counter() - start < 1.0

    def test_no_certified_candidate_exit_1(self, capsys, monkeypatch):
        def no_candidate(n, c):
            raise RuntimeError("coefficient-positivity search found no candidate")

        monkeypatch.setattr(cli, "find_params_thm3", no_candidate)
        code, out, err = run_cli(capsys, "find-params", "--n", "3", "--c", "700", "--nonneg-q")
        assert (code, out, err) == (1, "", "error: coefficient-positivity search found no candidate\n")

    @pytest.mark.parametrize("flags, p, q, path", [
        (("--n", "2", "--c=-1e-400"), 2.0, 0.0, "grid p=2.0+0.1k, 0 rejections, mu(p)=4 > 0"),
        (("--n", "2", "--c=1e-400"), 2.0, 0.0, "grid p=2.0+0.1k, 0 rejections, mu(p)=4 > 0"),
        (("--nonneg-q", "--n", "2", "--c=-1e-400"), 2.0, 0.0, "q=0, integer p ascent: accepted p=2 (1 rejections)"),
        (("--n", "3", "--c=-1e-400"), 2.0, -1.0, "grid p=2.0+0.1k, 0 rejections, mu(p)=4 > 0"),
        (("--nonneg-q", "--n", "3", "--c=-1e-400"), 1.0, 1.0, "c rounds to 0: Cheeger-Gromoll point"),
    ], ids=["mu_n2_neg", "mu_n2_pos", "nonneg_n2_neg", "mu_n3_neg", "nonneg_n3_neg"])
    def test_c_that_rounds_to_zero_is_not_zero(self, capsys, flags, p, q, path):
        # float(c) == 0, but the searches decide c = 0 exactly: over (1, 0), n = 2, S tends to 2c - c^2/2 < 0
        code, out, _ = run_cli(capsys, "find-params", *flags)
        assert code == 0 and "c=0" not in out
        payload = last_json(out)
        assert (payload["p"], payload["q"], payload["path"]) == (p, q, path)
        assert payload["min_scalar_on_grid"] > 0

    def test_nonneg_route(self, capsys):
        code, out, err = run_cli(capsys, "find-params", "--n", "3", "--c", "-1", "--nonneg-q")
        assert code == 0
        assert re.fullmatch(find_params_timing("nonnegative-q coefficient search"), err)
        payload = last_json(out)
        assert payload["q"] >= 0
        assert all(v > 0 for v in payload["G_coefficients"])


class TestByteIdentity:
    """sha256 of the bytes the CLI writes, for fixed flags.

    The digests pin the CSV/SVG bytes of every scan predicate and of the
    curvature profile; a refactor that changes any value or format fails here.
    """

    GRID = ("--p-range=-3:3:1/4", "--q-range=-2:2:1/4", "--n", "3")
    SCANS = {
        "gamma": ((), "184e85feeead2f2c4472761c99816990a8403847751a2799c4e62286d83db6ad"),
        "gamma_prime": ((), "ef24de12875ab47f4f056df11ab14ce62673d3d0eafa42f9dc9d6d7f43d2b41d"),
        "vertical_positive": ((), "ac12daa35901ddacb1d39194fe4637206a94014ccd6cf87184d4b85625c3edfd"),
        "delta": (("--c", "16/3"), "9ad018596b7349f8aa310856a4156cec7dba33cc3c6e5011970f4a6dee423293"),
        "delta_prime": (("--c", "16/3"), "484e9fe7fe482f5a2e6591912a223085c644777bf6c3ab214c45fe7d40226b06"),
        "scalar_sufficient": (("--c", "1"), "ae82ddccfbbc8d6e12348c87e32b5ae37276f078bf2990b91ac626f7aea7f796"),
    }
    CURVATURE = [
        (("--p", "1", "--q", "1", "--n", "3", "--c", "1", "--samples", "50"),
         "a02a2a67645d475c6439c8b772709e564debe5540a24d13619c27d74c3525d10"),
        (("--p", "2", "--q=-1/2", "--n", "2", "--c", "16/3", "--t-max", "5", "--samples", "60"),
         "1ace6480cb100ab8f9cd35b0f846d9aedd4e00a37eca8aff9e8df0de01f0c817"),
    ]

    @pytest.mark.parametrize("predicate", list(SCANS))
    def test_scan_digest(self, predicate, tmp_path, capsys):
        extra, digest = self.SCANS[predicate]
        csv, svg = tmp_path / "s.csv", tmp_path / "s.svg"
        code, _, _ = run_cli(
            capsys, "scan", *self.GRID, *extra, "--predicate", predicate,
            "--csv", str(csv), "--svg", str(svg),
        )
        assert code == 0
        assert hashlib.sha256(csv.read_bytes() + svg.read_bytes()).hexdigest() == digest

    ATLAS = {  # the benchmark's atlas grid, 29,161 cells
        "gamma": (3, None, "65ba6072c597d136733a41ad1b914b9325ddbb703d5f5f2e25e39de780e1306f"),
        "delta": (3, Fraction(16, 3), "02b13b8df0125a724ef1e0643538bdb68b4781ecc94d4cedb46d66732389fb57"),
    }

    @pytest.mark.parametrize("predicate", list(ATLAS))
    def test_atlas_grid_digest(self, predicate, tmp_path):
        n, c, digest = self.ATLAS[predicate]
        spec = ScanSpec((-9, 3, Fraction(1, 20)), (-3, 3, Fraction(1, 20)), n, c, predicate)
        cells = run_scan(spec)
        csv, svg = tmp_path / "a.csv", tmp_path / "a.svg"
        write_scan_csv(str(csv), spec, cells)
        write_scan_svg(str(svg), spec, cells)
        assert hashlib.sha256(csv.read_bytes() + svg.read_bytes()).hexdigest() == digest

    EDGE_CSV = (
        "p,q,predicate,value\n"
        "-0,0.5,gamma,1\n-0,0,gamma,nan\n-0,-0.5,gamma,0.25\n"
        "0,-0.5,gamma,-0\n0,-0,gamma,0\n0,0.5,gamma,1\n"
        "1e-13,-0.5,gamma,0.25\n1e-13,0,gamma,1\n1e-13,0.5,gamma,nan\n"
        "0.5,0.5,gamma,0\n0.5,-0,gamma,0.25\n0.5,-0.5,gamma,-0\n"
    )
    SVG_HEAD = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
        '<defs><pattern id="hatch" width="4" height="4" patternUnits="userSpaceOnUse">'
        '<path d="M0,4 L4,0" stroke="#8a8a8a" stroke-width="1"/></pattern></defs>\n'
    )
    SVG_LEGEND = (
        '<rect x="2" y="{y}" width="10" height="10" fill="#1f3a6e"/>\n<text x="16" y="{t}" font-size="9">gamma</text>\n'
        '<rect x="90" y="{y}" width="10" height="10" fill="#e8ecf4"/>\n<text x="104" y="{t}" font-size="9">outside</text>\n'
        '<rect x="160" y="{y}" width="10" height="10" fill="url(#hatch)"/>\n<text x="174" y="{t}" font-size="9">n/a</text>\n'
        "</svg>\n"
    )
    EDGE_RECTS = [  # (x, y, fill) per cell; -0.0 and 0.0 share a column and a row
        (1, 1, "#1f3a6e"), (1, 7, "url(#hatch)"), (1, 13, "#e8ecf4"),
        (1, 13, "#e8ecf4"), (1, 7, "#e8ecf4"), (1, 1, "#1f3a6e"),
        (7, 13, "#e8ecf4"), (7, 7, "#1f3a6e"), (7, 1, "url(#hatch)"),
        (13, 1, "#e8ecf4"), (13, 7, "#e8ecf4"), (13, 13, "#e8ecf4"),
    ]

    def test_writer_edge_cases(self, tmp_path):
        """Signed zeros, NaN, 0.25, a tiny p, equal p of distinct objects, q running down a column:
        the same bytes from the cells as a list of tuples and as one float array."""
        nan = float("nan")
        cells = [
            (-0.0, 0.5, 1.0), (-0.0, 0.0, nan), (-0.0, -0.5, 0.25),
            (0.0, -0.5, -0.0), (0.0, -0.0, 0.0), (0.0, 0.5, 1.0),
            (1e-13, -0.5, 0.25), (1e-13, 0.0, 1.0), (1e-13, 0.5, nan),
            (float("0.5"), 0.5, 0.0), (float("0.5"), -0.0, 0.25), (float("0.5"), -0.5, -0.0),
        ]
        assert cells[9][0] is not cells[10][0]
        rects = "".join(f'<rect x="{x}" y="{y}" width="6" height="6" fill="{f}"/>\n' for x, y, f in self.EDGE_RECTS)
        spec = ScanSpec((0, 1, 1), (0, 1, 1), 3, None, "gamma")
        csv, svg = tmp_path / "e.csv", tmp_path / "e.svg"
        edge_svg = self.SVG_HEAD.format(w=20, h=44) + rects + self.SVG_LEGEND.format(y=24, t=33)
        empty_svg = self.SVG_HEAD.format(w=2, h=26) + self.SVG_LEGEND.format(y=6, t=15)
        for given, want_csv, want_svg in (
            (cells, self.EDGE_CSV, edge_svg),
            (np.array(cells), self.EDGE_CSV, edge_svg),
            ([], "p,q,predicate,value\n", empty_svg),
            (np.empty((0, 3)), "p,q,predicate,value\n", empty_svg),
        ):
            write_scan_csv(str(csv), spec, given)
            write_scan_svg(str(svg), spec, given)
            assert csv.read_bytes().decode() == want_csv
            assert svg.read_bytes().decode() == want_svg
        for axis, cell in (("p", (nan, 0.5, 1.0)), ("q", (0.0, nan, 1.0))):
            for given in ([(0.0, 0.5, 0.0), cell], np.array([(0.0, 0.5, 0.0), cell])):
                with pytest.raises(ValueError, match=f"NaN {axis}"):
                    write_scan_svg(str(svg), spec, given)

    @pytest.mark.parametrize("flags, digest", CURVATURE, ids=["h11_n3", "ball_bundle_n2"])
    def test_curvature_digest(self, flags, digest, capsys):
        code, out, _ = run_cli(capsys, "curvature", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    FIND_PARAMS = [
        (("--nonneg-q", "--n", "3", "--c=-20"), "e4b4089bdf88b93a0fda738d54406b72ec7f6efb0a4f5762f1e61599e606efde"),
        (("--nonneg-q", "--n", "4", "--c=-7/3"), "b8cb7321c5cc4b39930b5025715b399ff676eb79e303d08a0a67a1b97a04daac"),
        (("--n", "2", "--c=16/3"), "d44968eb33f9002d3af76fe86b614d93128912971db400860d5c9b7a7b2447cc"),
        # q = -45 < 0: the certificate's grid text describes the ball-bundle grid [0, 1/45), 10,000 radii
        (("--n", "5", "--c=-20"), "707b913b410e979b86a1816ff743186b469adef49ba1e24df206357a9bd2bc5e"),
    ]

    @pytest.mark.parametrize("flags, digest", FIND_PARAMS, ids=["nonneg_n3", "nonneg_n4", "mu_n2", "mu_n5"])
    def test_find_params_digest(self, flags, digest, capsys):
        code, out, _ = run_cli(capsys, "find-params", *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyCommand:
    @pytest.fixture(scope="class")
    def identities_run(self):
        """One `cgm verify --suite identities` run: exit code, stdout and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", "--suite", "identities"])
        return code, out.getvalue(), err.getvalue()

    def test_identities_pass_exit_0(self, identities_run):
        code, out, _ = identities_run
        assert code == 0
        for line in out.strip().splitlines():
            record = json.loads(line)
            assert record["status"] == "pass"
            assert set(record) >= {"name", "status", "max_err"}
            if record["max_err"] is None:  # boolean checks carry no tolerance
                assert "tol" not in record and "headroom" not in record
            elif record["max_err"] == 0:
                assert record["headroom"] is None and record["tol"] >= 0
            else:
                assert record["headroom"] == record["tol"] / record["max_err"] >= 1

    def test_extra_keys_come_before_detail(self):
        record = CheckResult("c", "pass", 1e-3, "d", extra={"headroom": 1.5, "worst": "w"}).as_dict()
        assert list(record) == ["name", "status", "max_err", "headroom", "worst", "detail"]

    def test_checks_are_built_in_one_place(self):
        # every check of cgm.verify goes through its one constructor, _result
        text = Path(verify.__file__).read_text()
        tree = ast.parse(text)
        calls = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and ast.unparse(node.func) == "CheckResult"]
        result = next(f for f in tree.body if getattr(f, "name", "") == "_result")
        assert text.count("CheckResult(") == len(calls) == 1 and result.lineno <= calls[0] <= result.end_lineno

    def test_forced_failure_exit_1(self, capsys, monkeypatch):
        monkeypatch.setitem(verify.SUITES, "identities", lambda seed: [CheckResult("forced", "fail", 1.0, tol=0.5)])
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities")
        assert code == 1
        assert [json.loads(l)["status"] for l in out.strip().splitlines()] == ["fail"]

    def test_interval_pass_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "interval")
        assert code == 0
        records = {r["name"]: r for r in map(json.loads, out.strip().splitlines())}
        assert all(r["status"] == "pass" for r in records.values())
        assert "C_2 >= 40" in records["interval_h11_n2_upper_reported"]["detail"]
        assert "C_3 > 60" in records["interval_h11_n3_upper_reported"]["detail"]

    def test_suite_timing_on_stderr(self, identities_run):
        code, out, err = identities_run
        assert code == 0 and len(out.strip().splitlines()) == 10
        assert re.fullmatch(r"verify: identities 10 checks in \d+\.\d s\n", err)

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run_cli(capsys, "verify", "--suite", "identities", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "verify", "--suite", "identities", "--seed", "7")
        assert (code1, code2) == (0, 0) and out1 == out2


def test_console_entry_point():
    exe = shutil.which("cgm")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "classify", "--p", "1", "--q", "1", "--n", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "in_gamma = True" in proc.stdout
