"""Consumption/harvest models and battery bookkeeping."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solarnav import (BatteryDepleted, BatteryState, ConsumptionParams, EnergyModel,
                      HarvestModel, HarvestParams, battery_step, harvest_power_altitude,
                      harvest_power_clear, harvest_power_cloud, incidence_cosine)

from oracles import reference_move

CRUISE = ConsumptionParams(p_level=30.0, p_up=34.0, p_down=26.0,
                           v=12.0, v_up=3.0, v_down=3.0)
PANEL = HarvestParams(eta=0.2, g=380.0, s=0.3)


# ---------------------------------------------------------------- consumption

def test_level_energy_from_table_constants():
    e_out, _ = CRUISE.move(120.0, 0.0)
    assert e_out == pytest.approx(300.0)


def test_climb_energy():
    e_out, _ = CRUISE.move(0.0, 12.0)
    assert e_out == pytest.approx(136.0)


def test_zero_descent_costs_nothing():
    e_out, duration = CRUISE.move(0.0, 0.0)
    assert duration == 0.0
    assert e_out == 0.0


def test_descent_uses_down_power():
    e_out, duration = CRUISE.move(0.0, -9.0)
    assert duration == pytest.approx(9.0 / 3.0)
    assert e_out == pytest.approx(26.0 * 9.0 / 3.0)


def test_diagonal_sums_level_and_vertical_terms():
    e_out, duration = CRUISE.move(60.0, 9.0)
    level, _ = CRUISE.move(60.0, 0.0)
    climb, _ = CRUISE.move(0.0, 9.0)
    assert e_out == pytest.approx(level + climb)
    assert duration == pytest.approx(max(60.0 / 12.0, 9.0 / 3.0))


@given(st.floats(0.0, 500.0), st.floats(0.0, 500.0), st.floats(-80.0, 80.0))
@settings(max_examples=200)
def test_consumption_additive_over_concatenation(d1, d2, dz):
    """Splitting a move into two legs conserves total energy."""
    whole, _ = CRUISE.move(d1 + d2, dz)
    a, _ = CRUISE.move(d1, dz)
    b, _ = CRUISE.move(d2, 0.0)
    assert whole == pytest.approx(a + b, rel=1e-12, abs=1e-9)


@given(st.floats(0.1, 400.0), st.floats(0.1, 10.0))
@settings(max_examples=200)
def test_consumption_homogeneous_in_distance(d, k):
    one, _ = CRUISE.move(d, 0.0)
    scaled, _ = CRUISE.move(k * d, 0.0)
    assert scaled == pytest.approx(k * one, rel=1e-12)


@st.composite
def consumption_params(draw):
    powers = sorted(draw(st.floats(0.1, 500.0)) for _ in range(3))
    speeds = [draw(st.floats(0.1, 50.0)) for _ in range(3)]
    return ConsumptionParams(p_level=powers[1], p_up=powers[2], p_down=powers[0],
                             v=speeds[0], v_up=speeds[1], v_down=speeds[2])


@given(consumption_params(),
       st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e4)),
       st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3)))
@settings(max_examples=400)
@example(CRUISE, 0.0, -0.0)
@example(CRUISE, -0.0, 0.0)
@example(CRUISE, 3.0, -30.0)
def test_move_equals_reference(params, distance, dz):
    """`move` prices a move exactly as the two-pass classify-then-price
    reference does, signed zeros included."""
    got = params.move(distance, dz)
    want = reference_move(distance, dz, params)
    assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]
    assert got == want


def test_consumption_params_ordering_enforced():
    with pytest.raises(ValueError):
        ConsumptionParams(p_level=30.0, p_up=28.0, p_down=26.0)


# -------------------------------------------------------------------- harvest

def test_incidence_level_panel_sun_overhead():
    assert incidence_cosine(0.0, 0.3, 1.1, math.pi / 2) == pytest.approx(1.0)


def test_incidence_level_panel_thirty_degrees():
    assert incidence_cosine(0.0, 0.0, 0.0, math.pi / 6) == pytest.approx(0.5)


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(0.0, math.pi / 2))
@settings(max_examples=400)
def test_level_panel_incidence_ignores_heading_and_azimuth(heading, azimuth, elevation):
    """With zero bank the panel faces straight up, so the incidence cosine is
    sin(elevation) exactly whatever the heading and azimuth; `EnergyModel.gain`
    relies on this."""
    assert (incidence_cosine(0.0, heading, azimuth, elevation)
            == incidence_cosine(0.0, 0.0, 0.0, elevation))


def test_incidence_banked_horizon_sun():
    got = incidence_cosine(math.pi / 2, math.pi / 2, 0.0, 0.0)
    assert got == pytest.approx(1.0)


def test_clear_sky_peak_power():
    assert harvest_power_clear(1.0, False, PANEL) == pytest.approx(22.8)


def test_clear_sky_shadow_gate():
    assert harvest_power_clear(1.0, True, PANEL) == 0.0
    assert harvest_power_clear(0.4, True, PANEL) == 0.0


def test_clear_sky_backlit_panel_guard():
    assert harvest_power_clear(-0.5, False, PANEL) == 0.0


@given(st.floats(-1.0, 1.0))
def test_clear_sky_within_bounds(cos_theta):
    p = harvest_power_clear(cos_theta, False, PANEL)
    assert 0.0 <= p <= PANEL.peak_power


def test_cloud_top_value():
    hp = HarvestParams(eta=0.2, g=380.0, s=0.3, h_up=1000.0, h_down=700.0,
                       beta_c=0.01)
    assert harvest_power_cloud(1000.0, hp) == pytest.approx(22.8)


def test_cloud_bottom_value():
    hp = HarvestParams(eta=0.2, g=380.0, s=0.3, h_up=1000.0, h_down=700.0,
                       beta_c=0.01)
    assert harvest_power_cloud(700.0, hp) == pytest.approx(22.8 * math.exp(-3.0))


def test_cloud_continuous_at_boundaries():
    hp = HarvestParams(h_up=1000.0, h_down=700.0, beta_c=0.013)
    # One-sided branch expressions evaluated exactly at each boundary.
    top_branch = hp.peak_power
    mid_at_up = hp.peak_power * math.exp(-hp.beta_c * (hp.h_up - hp.h_up))
    assert abs(top_branch - mid_at_up) < 1e-12
    mid_at_down = hp.peak_power * math.exp(-hp.beta_c * (hp.h_up - hp.h_down))
    low_branch = hp.peak_power * math.exp(-hp.beta_c * (hp.h_up - hp.h_down))
    assert abs(mid_at_down - low_branch) < 1e-12
    assert abs(harvest_power_cloud(hp.h_up, hp) - top_branch) < 1e-12
    assert abs(harvest_power_cloud(hp.h_down, hp) - mid_at_down) < 1e-12


def test_cloud_within_bounds():
    hp = HarvestParams(h_up=1000.0, h_down=700.0, beta_c=0.01)
    floor = hp.peak_power * math.exp(-hp.beta_c * (hp.h_up - hp.h_down))
    for z in (0.0, 400.0, 750.0, 999.0, 1500.0):
        p = harvest_power_cloud(z, hp)
        assert floor - 1e-12 <= p <= hp.peak_power + 1e-12


def test_altitude_limits():
    hp = HarvestParams(alpha_c=0.9, beta_c=0.3, delta_c=8000.0)
    assert harvest_power_altitude(1e9, hp) == pytest.approx(
        hp.peak_power * math.exp(hp.alpha_c))
    assert harvest_power_altitude(0.0, hp) == pytest.approx(
        hp.peak_power * math.exp(hp.alpha_c - hp.beta_c))


def test_altitude_monotone_dense_sampling():
    hp = HarvestParams(alpha_c=0.7, beta_c=0.45, delta_c=8500.0)
    prev = -1.0
    for i in range(1000):
        z = i * 10.0
        p = harvest_power_altitude(z, hp)
        assert p >= prev
        prev = p


def test_harvest_model_dispatch_gates_on_shadow():
    model = EnergyModel(CRUISE, PANEL, HarvestModel.CLOUD)
    assert model.harvest_power(1.0, True, 1200.0) == 0.0
    assert model.harvest_power(1.0, False, 1200.0) == pytest.approx(22.8)


def test_gain_is_level_panel_power_times_duration():
    model = EnergyModel(CRUISE, PANEL, HarvestModel.CLEAR)
    assert model.gain(math.pi / 6, False, 0.0, 2.0) == pytest.approx(22.8 * 0.5 * 2.0)
    assert model.gain(math.pi / 6, True, 0.0, 2.0) == 0.0


# -------------------------------------------------------------------- battery

def test_battery_clamps_at_capacity():
    b = BatteryState(660.0, 670.0, 50.0)
    assert battery_step(b, 5.0, 20.0).energy == pytest.approx(670.0)


def test_battery_identity_step():
    b = BatteryState(100.0, 670.0, 50.0)
    assert battery_step(b, 0.0, 0.0).energy == 100.0


def test_battery_floor_breach_raises():
    b = BatteryState(60.0, 670.0, 50.0)
    with pytest.raises(BatteryDepleted):
        battery_step(b, 20.0, 0.0)


def test_battery_state_invariant():
    with pytest.raises(ValueError):
        BatteryState(700.0, 670.0, 50.0)
    with pytest.raises(ValueError):
        BatteryState(40.0, 670.0, 50.0)


@given(st.floats(50.0, 670.0), st.floats(0.0, 100.0), st.floats(0.0, 100.0))
@settings(max_examples=300)
def test_battery_never_exceeds_capacity(e0, out, gain):
    b = BatteryState(e0, 670.0, 50.0)
    try:
        nxt = battery_step(b, out, gain)
    except BatteryDepleted:
        return
    assert nxt.energy <= 670.0
    assert nxt.energy >= 50.0


def test_battery_zero_flow_idempotent():
    b = BatteryState(300.0, 670.0, 50.0)
    for _ in range(5):
        b = battery_step(b, 0.0, 0.0)
    assert b.energy == 300.0
