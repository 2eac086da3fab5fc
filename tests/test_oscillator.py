import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from operadyn.cli import main
from operadyn.oscillator import (BranchError, OscillatorState, QuasiCoords,
                                 exact_flow, integrate_rk4, quasi_coords,
                                 quasi_coords_derivative, sample_flow)
from reference_trace import reference_flow


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


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_exact_flow_rejects_non_finite_time(t):
    # sin(inf) was a bare "math domain error", and a nan time a nan state
    with pytest.raises(ValueError, match=rf"^time {t} is not finite$"):
        exact_flow(1.0, 2.0, t)


def test_exact_flow_takes_any_finite_time():
    # no chart window here: the flow is defined at every finite time
    for t in (-1e300, 1e300, 7.5, 0):
        s = exact_flow(1.0, 2.0, t)
        assert math.isfinite(s.q) and math.isfinite(s.p)


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


def test_huge_omega_stays_on_shell():
    # omega**2 overflows, but omega*q is about 0.1: the state is on the shell
    state = exact_flow(1e200, 1.0, 1e-201)
    assert state.energy == pytest.approx(0.5, rel=1e-15)
    c = quasi_coords(state)
    assert c.a_plus ** 2 + c.a_minus ** 2 == pytest.approx(2.0, rel=1e-15)
    # at t = 0, q = 0, where omega**2 * q**2 would be inf * 0 = nan
    q, p, ap, am = sample_flow(1e200, 1.0, [0.0, 1e-201])
    assert (q[0], p[0], ap[0], am[0]) == (0.0, 1.0, math.sqrt(2.0), 0.0)
    assert am[1] == pytest.approx(math.sqrt(2.0) * math.sin(0.05), rel=1e-14)


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


# ---------------------------------------------------------------------------
# sample_flow against the per-sample reference loop


def _outcome(f, *args):
    """The four columns as reprs (so -0.0 shows), or the exception's type and text."""
    try:
        return [list(map(repr, column)) for column in f(*args)]
    except ValueError as exc:
        return type(exc), str(exc)


def _grid(omega, n):
    """The `trace` command's time grid: n times on [0, pi/omega)."""
    return [(k * math.pi / omega) / n for k in range(n)]


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestSampleFlow:
    @settings(max_examples=300, deadline=None)
    @given(_POSITIVE, _POSITIVE, st.one_of(st.integers(1, 50), st.just(2000)))
    def test_matches_reference_bitwise(self, omega, p0, n):
        times = _grid(omega, n)
        got = _outcome(sample_flow, omega, p0, times)
        expected = _outcome(reference_flow, omega, p0, times)
        outside = [t for t in times if not abs(omega * t) < math.pi]
        if outside and not isinstance(expected, list):
            # the window is checked for every time before any other check, so
            # the first time outside it is named even if an earlier sample of
            # the reference failed a different check
            assert got == (BranchError,
                           f"time {outside[0]} leaves the chart window |omega*t| < pi")
        else:
            assert got == expected

    @settings(max_examples=300, deadline=None)
    @given(st.floats(), st.floats(),
           st.lists(st.floats(min_value=-4.0, max_value=4.0) | st.floats(), max_size=6))
    def test_never_returns_where_reference_raises(self, omega, p0, times):
        got = _outcome(sample_flow, omega, p0, times)
        expected = _outcome(reference_flow, omega, p0, times)
        if isinstance(expected, list) and (times or (omega > 0 and p0 > 0)):
            assert got == expected
        else:
            # a ValueError (BranchError is one) where the reference raised,
            # and for bad parameters with no times, which the reference
            # never checked
            assert not isinstance(got, list)

    def test_2000_samples(self):
        times = _grid(1.0, 2000)
        assert _outcome(sample_flow, 1.0, 2.0, times) == \
            _outcome(reference_flow, 1.0, 2.0, times)

    @pytest.mark.parametrize("omega, p0, times", [
        (1.0, 2.0, [math.inf]),
        (1.0, 2.0, [0.0, 0.5, -math.inf]),
        (1.0, 2.0, [math.nan]),
        (1.0, 2.0, [0.0, math.nan]),
        (1.0, 2.0, [0.0, 1.0, 3.0, 3.2, 1.0]),     # past the window after good ones
        (2.0, 2.0, [0.0, -1.5, -1.6]),
        (1.0, 2.0, [0.0, math.nextafter(math.pi, 0.0)]),  # in the window, p = -p0
        (0.0, 2.0, [0.0, 0.5]),
        (-0.0, 2.0, [0.0]),
        (-1.0, 2.0, [0.0, 0.5]),
        (-math.inf, 2.0, [0.0]),                    # -inf * 0 is nan: a window fault
        (math.nan, 2.0, [0.0]),
        (1.0, 0.0, [0.0, 0.5]),
        (1.0, -2.0, [0.0]),
        (1.0, math.nan, [0.0]),
        (1.0, 1e200, [0.0, 0.5]),                   # p0**2 overflows: off the shell
        (1.0, math.inf, [0.0]),
        (1e-300, 1e10, [0.0, 1.0]),                 # p0/omega overflows: q is nan at t = 0
        (1e200, 1.0, [0.0, 1e-201]),                # omega**2 overflows, on the shell
    ])
    def test_edge_inputs(self, omega, p0, times):
        expected = _outcome(reference_flow, omega, p0, times)
        assert _outcome(sample_flow, omega, p0, times) == expected

    def test_window_fault_named_first(self):
        # the reference stops at the earlier off-branch sample
        times = [math.nextafter(math.pi, 0.0), 4.0]
        kind, text = _outcome(reference_flow, 1.0, 2.0, times)
        assert kind is BranchError and "requires p > -p0" in text
        assert _outcome(sample_flow, 1.0, 2.0, times) == (
            BranchError, "time 4.0 leaves the chart window |omega*t| < pi")

    @pytest.mark.parametrize("omega, p0", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.nan, 1.0)])
    def test_bad_parameters_without_times(self, omega, p0):
        # the one input where the kernel raises and the reference does not
        assert reference_flow(omega, p0, []) == ([], [], [], [])
        with pytest.raises(ValueError, match="must be positive"):
            sample_flow(omega, p0, [])


class TestNoStateObjects:
    """`trace` samples the flow by columns: no per-sample state objects."""

    def test_trace_builds_none(self, monkeypatch, capsys):
        # the records are namedtuples, which build in __new__
        built = []
        for cls in (OscillatorState, QuasiCoords):
            def counting(record, *args, _new=cls.__new__, **kwargs):
                built.append(record.__name__)
                return _new(record, *args, **kwargs)
            monkeypatch.setattr(cls, "__new__", counting)
        quasi_coords(exact_flow(1.0, 2.0, 0.5))
        assert built == ["OscillatorState", "QuasiCoords"]   # the count works
        built.clear()
        assert main(["trace", "VIIa", "--t-samples", "500"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 501
        assert built == []
