import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overparam.losses import (LossSpec, builtin_loss, check_loss_assumptions,
                              default_grid)

LOG2 = 0.6931471805599453


class TestBuiltins:
    def test_logistic_at_zero(self):
        loss = builtin_loss("logistic")
        assert loss.value(0.0) == pytest.approx(LOG2, rel=1e-15)
        assert loss.deriv(0.0) == pytest.approx(-0.5, rel=1e-15)
        assert loss.second_deriv(0.0) == pytest.approx(0.25, rel=1e-15)

    def test_exponential_derivative_identity(self):
        loss = builtin_loss("exponential")
        x = np.linspace(-8, 8, 101)
        # -l'(x) == l(x) exactly, which is the p=1 bound with unit constants
        assert np.array_equal(-loss.deriv(x), loss.value(x))

    def test_logistic_curvature_peak(self):
        loss = builtin_loss("logistic")
        x = np.linspace(-20, 20, 4001)
        sec = loss.second_deriv(x)
        assert np.max(np.abs(sec)) <= 0.25 + 1e-15
        assert x[np.argmax(sec)] == pytest.approx(0.0, abs=1e-2)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_loss("hinge")


class TestAssumptionChecker:
    def test_logistic_passes_default_grid(self):
        report = check_loss_assumptions(builtin_loss("logistic"))
        assert report.passed, report.as_dict()

    def test_exponential_passes_with_zero_margin(self):
        report = check_loss_assumptions(builtin_loss("exponential"),
                                        np.linspace(-5, 5, 501))
        assert report.passed
        # -deriv == value: the p-bound inequalities are tight
        assert report.check("deriv_lower_bound").margin == pytest.approx(0.0, abs=1e-12)
        assert report.check("deriv_upper_bound").margin == pytest.approx(0.0, abs=1e-12)

    def test_broken_smoothness_is_flagged(self):
        base = builtin_loss("logistic")
        broken = LossSpec(name="broken", value=base.value, deriv=base.deriv,
                          second_deriv=base.second_deriv, p=1.0, alpha0=0.5,
                          alpha1=0.5, rho0=1.0, rho1=1.0, lam=0.1)
        report = check_loss_assumptions(broken)
        check = report.check("smoothness")
        assert not check.passed
        assert check.margin == pytest.approx(0.1 - 0.25, abs=1e-12)
        assert check.worst_x == pytest.approx(0.0, abs=1e-2)
        assert not report.passed

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            check_loss_assumptions(builtin_loss("logistic"), np.array([]))


GRIDS = st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=40)
POINTWISE = ("deriv_nonpositive", "deriv_lower_bound", "deriv_upper_bound",
             "smoothness")


class TestAssumptionCheckerOnRandomGrids:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid=GRIDS, data=st.data())
    def test_report_ignores_grid_order(self, grid, data):
        shuffled = data.draw(st.permutations(grid))
        for name in ("logistic", "exponential"):
            loss = builtin_loss(name)
            a = check_loss_assumptions(loss, np.array(shuffled))
            b = check_loss_assumptions(loss, np.array(grid))
            assert a.passed == b.passed
            # nan worst_x (the grid-free check) equals itself, 0.0 equals -0.0
            np.testing.assert_array_equal([(c.margin, c.worst_x) for c in a.checks],
                                          [(c.margin, c.worst_x) for c in b.checks])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid=GRIDS)
    def test_builtins_pass_pointwise_checks_on_any_grid(self, grid):
        # the declared constants hold at every point of [-20, 20]; the worst
        # point is a grid point
        for name in ("logistic", "exponential"):
            report = check_loss_assumptions(builtin_loss(name), np.array(grid))
            for check in POINTWISE:
                assert report.check(check).passed, (name, report.as_dict())
                assert report.check(check).worst_x in grid

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid=GRIDS, extra=GRIDS)
    def test_more_points_never_raise_a_margin(self, grid, extra):
        loss = builtin_loss("logistic")
        small = check_loss_assumptions(loss, np.array(grid))
        large = check_loss_assumptions(loss, np.array(grid + extra))
        for check in POINTWISE:
            assert large.check(check).margin <= small.check(check).margin

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid=GRIDS)
    def test_exponential_p_bounds_are_tight_everywhere(self, grid):
        # -l' == l exactly, so both p-bound margins are exactly 0
        report = check_loss_assumptions(builtin_loss("exponential"), np.array(grid))
        assert report.check("deriv_lower_bound").margin == 0.0
        assert report.check("deriv_upper_bound").margin == 0.0


class TestDerivativeConsistency:
    # finite differences lose accuracy in the flat tail, so audit on [-10, 10]
    GRID = np.linspace(-10.0, 10.0, 201)
    H = 1e-6

    @pytest.mark.parametrize("name", ["logistic", "exponential"])
    def test_deriv_matches_finite_difference(self, name):
        loss = builtin_loss(name)
        fd = (loss.value(self.GRID + self.H) - loss.value(self.GRID - self.H)) / (2 * self.H)
        exact = loss.deriv(self.GRID)
        assert np.max(np.abs(fd - exact) / np.abs(exact)) <= 1e-6

    @pytest.mark.parametrize("name", ["logistic", "exponential"])
    def test_second_deriv_matches_finite_difference(self, name):
        # narrower interval: the FD of deriv is cancellation-limited where
        # second_deriv is tiny relative to deriv
        grid = np.linspace(-6.0, 6.0, 121)
        loss = builtin_loss(name)
        fd = (loss.deriv(grid + self.H) - loss.deriv(grid - self.H)) / (2 * self.H)
        exact = loss.second_deriv(grid)
        assert np.max(np.abs(fd - exact) / np.abs(exact)) <= 1e-6

    @pytest.mark.parametrize("name", ["logistic", "exponential"])
    def test_strictly_decreasing_where_deriv_negative(self, name):
        loss = builtin_loss(name)
        vals = loss.value(default_grid())
        ders = loss.deriv(default_grid())
        decreasing = np.diff(vals) < 0
        assert np.all(decreasing[ders[:-1] < -1e-12])
