"""Property-based invariants of the composition engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import check_design
from repro.core.composer import compose_design
from repro.ilp import scipy_available, solve_set_partition_scipy
from repro.geometry import Point, Rect
from repro.library import default_library
from repro.sta import Timer

from tests.conftest import compose_recording_specs, make_flop_row

LIB = default_library()


def _errors(design):
    return check_design(design)


class TestCompositionInvariants:
    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(2, 12),
        spacing=st.floats(min_value=2.0, max_value=8.0),
        period=st.floats(min_value=0.2, max_value=5.0),
    )
    def test_random_rows_compose_validly(self, n, spacing, period):
        d = make_flop_row(
            LIB, n_flops=n, spacing=spacing, die=Rect(0, 0, 150, 100), name="prop"
        )
        bits = d.total_register_bits()
        timer = Timer(d, clock_period=period)
        res = compose_design(d, timer)
        # Structural invariants hold for every seedable configuration:
        assert not _errors(d)
        assert d.total_register_bits() == bits
        assert res.registers_after <= res.registers_before
        assert res.registers_after == d.total_register_count()

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(2, 10))
    def test_composition_is_idempotent_at_fixed_point(self, n):
        d = make_flop_row(LIB, n_flops=n, spacing=2.0, die=Rect(0, 0, 150, 100), name="fp")
        timer = Timer(d, clock_period=10.0)
        compose_design(d, timer)
        first = d.total_register_count()
        res2 = compose_design(d, timer)
        # The incremental engine converges: a re-run finds nothing new.
        assert res2.registers_after == first

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(3, 10), dt=st.integers(0, 2))
    def test_dont_touch_subset_survives(self, n, dt):
        d = make_flop_row(LIB, n_flops=n, spacing=2.0, die=Rect(0, 0, 150, 100), name="dts")
        protected = [f"ff{i}" for i in range(min(dt, n))]
        for name in protected:
            d.cell(name).dont_touch = True
        timer = Timer(d, clock_period=10.0)
        compose_design(d, timer)
        for name in protected:
            assert name in d.cells

    @settings(max_examples=6, deadline=None)
    @given(n=st.integers(4, 10))
    @pytest.mark.skipif(not scipy_available(), reason="SciPy not installed")
    def test_solver_backends_agree_on_objective(self, n):
        # Every ILP the composer solved has HiGHS's optimum.
        d = make_flop_row(LIB, n_flops=n, spacing=2.0, die=Rect(0, 0, 150, 100), name="s1")
        _, solved = compose_recording_specs(d, Timer(d, 10.0))
        assert solved
        for spec, res in solved:
            ref = solve_set_partition_scipy(spec.to_problem())
            assert ref.objective == pytest.approx(res.objective, abs=1e-9)


class TestTimerInvariants:
    @settings(max_examples=10, deadline=None)
    @given(dx=st.floats(min_value=0.0, max_value=80.0))
    def test_arrival_monotone_in_distance(self, dx):
        d = make_flop_row(LIB, n_flops=1, die=Rect(0, 0, 200, 100), name="mono")
        timer = Timer(d, clock_period=5.0)
        base = timer.arrival_at(d.cell("ff0").pin("D"))
        d.cell("obuf0").move_to(Point(12.0 + dx, 50.0))
        timer.dirty()
        # Moving the *output* buffer does not change the D arrival ...
        assert timer.arrival_at(d.cell("ff0").pin("D")) == pytest.approx(base)
        # ... but stretches the launch path monotonically.
        q_slack = timer.register_slack(d.cell("ff0")).q_slack
        d.cell("obuf0").move_to(Point(12.0 + dx + 10.0, 50.0))
        timer.dirty()
        assert timer.register_slack(d.cell("ff0")).q_slack <= q_slack + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(period=st.floats(min_value=0.1, max_value=10.0))
    def test_slack_shifts_linearly_with_period(self, period):
        d = make_flop_row(LIB, n_flops=2, die=Rect(0, 0, 100, 100), name="per")
        s1 = Timer(d, clock_period=period).summary()
        s2 = Timer(d, clock_period=period + 1.0).summary()
        assert s2.wns == pytest.approx(s1.wns + 1.0, abs=1e-9)
