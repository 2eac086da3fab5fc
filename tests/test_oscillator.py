import math

import pytest

from operadyn.oscillator import (BranchError, OscillatorState, exact_flow,
                                 integrate_rk4, quasi_coords,
                                 quasi_coords_derivative)


def test_exact_flow_initial_condition():
    s = exact_flow(2.0, 3.0, 0.0)
    assert s.q == 0.0 and s.p == 3.0
    assert s.energy == pytest.approx(4.5, abs=1e-15)


def test_exact_flow_quarter_period():
    # at omega*t = pi/2: q = p0/omega, p = 0
    s = exact_flow(2.0, 1.0, math.pi / 4)
    assert s.q == pytest.approx(0.5, abs=1e-15)
    assert s.p == pytest.approx(0.0, abs=1e-15)


def test_parameters_validated():
    with pytest.raises(ValueError):
        exact_flow(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        exact_flow(1.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_rk4(1.0, 1.0, 1.0, 0)


def test_rk4_tracks_exact_flow():
    steps = 1000
    T = 2 * math.pi
    states = integrate_rk4(1.0, 1.0, T, steps)
    assert len(states) == steps + 1
    worst = 0.0
    for n, s in enumerate(states):
        e = exact_flow(1.0, 1.0, T * n / steps)
        worst = max(worst, abs(s.q - e.q), abs(s.p - e.p))
    assert worst < 1e-10


def test_rk4_energy_drift():
    states = integrate_rk4(1.0, 1.0, 2 * math.pi, 1000)
    drift = max(abs(s.energy - 0.5) for s in states)
    assert drift < 1e-10


def test_quasi_coords_relations_along_flow():
    omega, p0 = 1.0, 2.0
    for n in range(1, 100):
        t = (n / 100) * (math.pi / omega) * 0.999
        s = exact_flow(omega, p0, t)
        c = quasi_coords(s)
        assert abs(c.a_plus ** 2 - c.a_minus ** 2 - 2 * s.p) < 1e-12
        assert abs(c.a_plus * c.a_minus - omega * s.q) < 1e-12
        assert abs(c.a_plus ** 2 + c.a_minus ** 2 - 2 * p0) < 1e-12


def test_quasi_coords_closed_form():
    # Ap = sqrt(2 p0) cos(omega t / 2), Am = sqrt(2 p0) sin(omega t / 2)
    omega, p0 = 2.0, 0.5
    for t in (0.0, 0.3, 1.2):
        c = quasi_coords(exact_flow(omega, p0, t))
        assert c.a_plus == pytest.approx(math.sqrt(2 * p0) * math.cos(omega * t / 2), abs=1e-14)
        assert c.a_minus == pytest.approx(math.sqrt(2 * p0) * math.sin(omega * t / 2), abs=1e-14)


def test_quasi_coords_branch_error():
    bottom = OscillatorState(q=0.0, p=-1.0, omega=1.0, p0=1.0)
    with pytest.raises(BranchError):
        quasi_coords(bottom)


def test_quasi_coords_shell_check():
    off_shell = OscillatorState(q=5.0, p=5.0, omega=1.0, p0=1.0)
    with pytest.raises(ValueError):
        quasi_coords(off_shell)
    # energy and shell both overflow to inf; the NaN comparison must not pass
    overflowed = OscillatorState(q=0.0, p=1e200, omega=1.0, p0=2e200)
    with pytest.raises(ValueError):
        quasi_coords(overflowed)


def test_derivative_matches_finite_differences():
    omega, p0 = 1.0, 2.0
    h = 1e-6
    for t in (0.1, 0.9, 2.0):
        c = quasi_coords(exact_flow(omega, p0, t))
        da, db = quasi_coords_derivative(c, omega)
        cp = quasi_coords(exact_flow(omega, p0, t + h))
        cm = quasi_coords(exact_flow(omega, p0, t - h))
        assert da == pytest.approx((cp.a_plus - cm.a_plus) / (2 * h), abs=1e-6)
        assert db == pytest.approx((cp.a_minus - cm.a_minus) / (2 * h), abs=1e-6)
