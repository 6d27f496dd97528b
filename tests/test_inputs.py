"""One rule per input: the dimension n, exact values, the sign of c and the fibre point."""

import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cgm import curvature as cv
from cgm import regions as rg
from cgm import scalars
from cgm.cli import main
from cgm.oracle import Chart
from cgm.scalars import Params

SRC = Path(scalars.__file__).resolve().parent
E = cv.FiberPoint(np.array([0.3, 0.4]))
X, Y = np.array([1.0, 0.0]), np.array([0.0, 1.0])

# every public entry that takes n, called with an admissible rest
N_ENTRIES = {
    "coefficients": lambda n: scalars.coefficients(Params(1, 1), 0.5, n),
    "poly_C": lambda n: scalars.poly_C(Params(1, 1), n),
    "scalar_parts": lambda n: scalars.scalar_parts(Params(1, 1), n, 0.5),
    "classify": lambda n: rg.classify(Params(1, 1), n, 1),
    "vertical_positivity": lambda n: rg.vertical_positivity(Params(1, 1), n),
    "nonneg_sectional": lambda n: rg.nonneg_sectional(Params(1, 1), n, 1),
    "scalar_pos_sufficient": lambda n: rg.scalar_pos_sufficient(Params(1, 1), n, 1),
    "cell_value": lambda n: rg.cell_value("gamma", 1.0, 1.0, n),
    "column_values": lambda n: rg.column_values("delta", 1.0, np.array([0.0, 1.0]), n, 1),
    "find_params_thm1": lambda n: rg.find_params_thm1(n, 1),
    "find_params_thm3": lambda n: rg.find_params_thm3(n, 1),
    "find_params_general": lambda n: rg.find_params_general(n, 0, 0),
    "ricci": lambda n: cv.ricci(Params(1, 1), n, E, "hh", X, Y, cv.BaseCurvature.space_form(1.0)),
    "scalar": lambda n: cv.scalar(Params(1, 1), n, E, cv.BaseCurvature.space_form(1.0)),
}


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("entry", list(N_ENTRIES))
def test_every_entry_refuses_n_below_2(entry, n):
    with pytest.raises(ValueError, match=r"^n >= 2 required$"):
        N_ENTRIES[entry](n)


@pytest.mark.parametrize("c", [-1, Fraction(-1, 3), -1e-300])
@pytest.mark.parametrize("n", [2, 3])
def test_negative_c_is_outside_delta_everywhere(c, n):
    # a grid through Delta_0, Delta'_0 and Delta_c for small c > 0: c < 0 alone puts every point outside
    q = np.array([-1.0, 0.0, 0.5, 1.0])
    for p in (-1.0, 0.0, 1.0, 2.0):
        values = {d: rg.column_values(d, p, q, n, c) for d in ("delta", "delta_prime")}
        for j, qj in enumerate(q.tolist()):
            verdict = rg.classify(Params(p, qj), n, c)
            assert (verdict.in_delta, verdict.in_delta_prime) == (False, False)
            assert verdict.delta_reason == "nonnegative sectional curvature requires c >= 0"
            assert rg.nonneg_sectional(Params(p, qj), n, c) is False
            for d in ("delta", "delta_prime"):
                assert rg.cell_value(d, p, qj, n, c) == values[d][0][j] == 0.0
        assert values["delta"][1] == values["delta_prime"][1] == 0  # no tie: the rule stops at c < 0


EQUAL_VALUES = [(2, Fraction(2), 2.0), (0, Fraction(0), 0.0), (-3, Fraction(-3), -3.0),
                (Fraction(1, 2), 0.5, Fraction(1, 2)), (Fraction(5, 4), Fraction(5, 4), 1.25), (1, Fraction(1), 1.0)]


@pytest.mark.parametrize("n", [2, 3])
def test_int_fraction_and_float_of_equal_value_agree(n):
    qs = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    for c_forms in EQUAL_VALUES[:5] + [(6, Fraction(6), 6.0), (-1, Fraction(-1), -1.0)]:
        for p_forms in EQUAL_VALUES:
            for q_forms in EQUAL_VALUES:
                verdicts = {repr(rg.classify(Params(p, q), n, c)) for p, q, c in zip(p_forms, q_forms, c_forms)}
                assert len(verdicts) == 1, (p_forms, q_forms, c_forms)
            for d in ("delta", "delta_prime", "scalar_sufficient"):
                columns = {repr(rg.column_values(d, p, qs, n, c)) for p, c in zip(p_forms, c_forms)}
                assert len(columns) == 1, (d, p_forms, c_forms)


def test_mu_cut_holds_at_the_edge_of_the_float_range():
    # on the axis q = 0, Delta'_c (n = 2) at p > 2 is the cut mu(p) >= 3c/4 alone; mu(3e307) ~ 8.2e307 < 3c/4
    # at c = 1.5e308 (horizontal planes fail K >= 0), although 4 mu(p) overflows to inf in floats
    params, c = Params(3e307, 0), 1.5e308
    assert 4 * float(scalars.mu(params.p)) == math.inf
    assert not rg.nonneg_sectional(params, 2, c) and not rg.classify(params, 3, c).in_delta_prime
    assert rg.nonneg_sectional(params, 2, 1e307) and rg.classify(params, 3, 1e307).in_delta_prime


NONFINITE_C_ENTRIES = {
    "as_exact": lambda c: scalars.as_exact(c),
    "classify": lambda c: rg.classify(Params(1, 1), 3, c),
    "nonneg_sectional": lambda c: rg.nonneg_sectional(Params(1, 1), 3, c),
    "scalar_pos_sufficient": lambda c: rg.scalar_pos_sufficient(Params(1, 1), 3, c),
    "cell_value": lambda c: rg.cell_value("delta", 1.0, 1.0, 3, c),
    "column_values": lambda c: rg.column_values("scalar_sufficient", 1.0, np.array([0.0, 1.0]), 3, c),
    "poly_G": lambda c: scalars.poly_G(Params(2, 1), 3, c),
    "find_params_thm1": lambda c: rg.find_params_thm1(3, c),
    "find_params_thm3": lambda c: rg.find_params_thm3(3, c),
    "find_params_general": lambda c: rg.find_params_general(3, -abs(c), 0),
}


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan], ids=["inf", "minus_inf", "nan"])
@pytest.mark.parametrize("entry", list(NONFINITE_C_ENTRIES))
def test_nonfinite_c_is_refused_naming_it(entry, c):
    # find_params_general refuses its a = -inf or nan, naming it
    named = str(-abs(c)) if entry == "find_params_general" else str(c)
    with pytest.raises(ValueError, match=rf"^{re.escape(named)} has no exact value"):
        NONFINITE_C_ENTRIES[entry](c)


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan], ids=["inf", "minus_inf", "nan"])
def test_float_evaluations_answer_nonfinite_c(c):
    with np.errstate(all="ignore"):
        s = scalars.scalar_curvature_spaceform(Params(1, 1), 3, c, np.array([0.0, 0.5]))
        m, _ = rg.scalar_grid_min(Params(1, 1), 3, c)
    assert not np.isfinite(s).any() and not math.isfinite(m)


PAST_FLOAT_C_ENTRIES = {
    "classify": lambda c: rg.classify(Params(1, 1), 3, c),
    "scalar_pos_sufficient": lambda c: rg.scalar_pos_sufficient(Params(1, 1), 3, c),
    "cell_value": lambda c: rg.cell_value("scalar_sufficient", 1.0, 1.0, 3, c),
    "column_values": lambda c: rg.column_values("delta", 1.0, np.array([0.0, 1.0]), 3, c),
    "find_params_thm1": lambda c: rg.find_params_thm1(3, c),
    "find_params_thm3": lambda c: rg.find_params_thm3(3, c),
    "scalar_curvature_spaceform": lambda c: scalars.scalar_curvature_spaceform(Params(1, 1), 3, c, 0.5),
    "scalar_grid_min": lambda c: rg.scalar_grid_min(Params(1, 1), 3, c),
    "sectional_witness_min": lambda c: rg.sectional_witness_min(Params(1, 1), 3, c),
    "radial_planes": lambda c: rg.radial_planes(Params(1, 1), c, np.array([0.5])),
    "BaseCurvature.space_form": lambda c: cv.BaseCurvature.space_form(c),
    "Chart.space_form": lambda c: Chart.space_form(3, c),
}


@pytest.mark.parametrize("c", [10**400, -10**400, Fraction(10**400, 3)], ids=["1e400", "minus_1e400", "1e400_thirds"])
@pytest.mark.parametrize("entry", list(PAST_FLOAT_C_ENTRIES))
def test_c_past_the_float_range_is_refused_naming_it(entry, c):
    # as Params refuses such a p or q; nonneg_sectional takes no float of c and answers exactly
    with pytest.raises(ValueError, match=r"^c is outside the float range$"):
        PAST_FLOAT_C_ENTRIES[entry](c)
    assert rg.nonneg_sectional(Params(1, 1), 3, c) is False


def test_scalar_bounds_past_the_float_range_are_refused_naming_them():
    for a, b, name in ((-10**400, 0, "a"), (0, 10**400, "b")):
        with pytest.raises(ValueError, match=rf"^{name} is outside the float range$"):
            rg.find_params_general(3, a, b)


@pytest.mark.parametrize("a, b, named", [
    (0, math.nan, "nan has no exact value: a finite b"),
    (math.inf, 0, "inf has no exact value: a finite a"),
    (math.nan, 0, "nan has no exact value: a finite a"),
    (-math.inf, 0, "-inf has no exact value: a finite a"),
    (0, math.inf, "inf has no exact value: a finite b"),
], ids=["b_nan", "a_inf", "a_nan", "a_minus_inf", "b_inf"])
def test_nonfinite_scalar_bounds_are_refused_naming_them(a, b, named):
    # before any arithmetic: min(0.0, nan) is 0.0, and a = inf gave c_used = -1 with a certificate for it
    with pytest.raises(ValueError, match=rf"^{re.escape(named)} is required$"):
        rg.find_params_general(3, a, b)


@pytest.mark.parametrize("argv, first_row", [
    (("--p", "1e200", "--q", "0", "--n", "3", "--c", "1", "--samples", "2"), "0,1,0,nan,nan,nan"),
    (("--p=-400", "--q", "1", "--n", "3", "--c", "1", "--samples", "3", "--t-max", "1e6"), "0,1,0,-799,-799,-4788"),
], ids=["p_1e200", "p_minus_400"])
def test_curvature_at_the_float_edge_writes_no_warning(argv, first_row, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["curvature", *argv])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "") and out.splitlines()[1] == first_row


def test_each_input_rule_is_written_once():
    text = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert not [name for name, body in text.items() if "as_fraction" in body]
    assert sum(body.count("n >= 2 required") for body in text.values()) == 1
    assert text["curvature.py"].count("check_fiber_radius(") <= 1
