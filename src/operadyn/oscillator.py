"""Harmonic oscillator flows and the quasi-canonical half-angle chart.

The Hamiltonian is H = (p**2 + omega**2 q**2) / 2 with equations of motion
q' = p, p' = -omega**2 q.  Trajectories are pinned to the initial condition
q(0) = 0, p(0) = p0 > 0, so the energy shell is H = p0**2 / 2 throughout.

The quasi-canonical coordinates are Ap = sqrt(p0 + p) >= 0 and
Am = omega*q / Ap, defined on the branch p > -p0.  Along the flow they obey
Ap' = -(omega/2) Am and Am' = (omega/2) Ap, i.e. they rotate at half the
oscillator frequency.

The flow and the chart are computed by columns (`flow_columns`,
`quasi_columns`, `sample_flow`); `exact_flow` and `quasi_coords` are
one-element calls into them, so every formula and every check is written
once.
"""

from __future__ import annotations

import math
from collections import namedtuple


# relative tolerance of the energy-shell check in `quasi_columns`
SHELL_TOL = 1e-8


class BranchError(ValueError):
    """The quasi-canonical chart is not defined at the requested point."""


class OscillatorState(namedtuple("OscillatorState", "q p omega p0")):
    __slots__ = ()

    @property
    def energy(self):
        return _energy(self.q, self.p, self.omega)


QuasiCoords = namedtuple("QuasiCoords", "a_plus a_minus")


def _check_params(omega, p0):
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not p0 > 0:
        raise ValueError(f"p0 must be positive, got {p0}")


def _energy(q, p, omega):
    """H at (q, p).  omega*q is formed first, so a huge omega times a tiny q
    gives a finite energy instead of omega**2 overflowing to inf (or to nan
    at q = 0)."""
    return 0.5 * (p * p + (omega * q) * (omega * q))


def flow_columns(omega, p0, times):
    """The closed-form flow q = (p0/omega) sin(omega t), p = p0 cos(omega t)
    at each time, as two lists q and p; the parameters are checked once."""
    _check_params(omega, p0)
    amplitude = p0 / omega
    return ([amplitude * math.sin(omega * t) for t in times],
            [p0 * math.cos(omega * t) for t in times])


def exact_flow(omega, p0, t):
    """Closed-form state at time t: q = (p0/omega) sin(omega t), p = p0 cos(omega t).

    The time must be finite (ValueError naming it otherwise): the sine of an
    infinite time is undefined, and a nan time has no state.
    """
    if not math.isfinite(t):
        raise ValueError(f"time {t} is not finite")
    (q,), (p,) = flow_columns(omega, p0, (t,))
    return OscillatorState(q=q, p=p, omega=omega, p0=p0)


def integrate_rk4(omega, p0, t_end, steps):
    """Classical fourth-order Runge-Kutta from (0, p0), returning all states.

    The result has steps + 1 entries, including the initial state.
    """
    _check_params(omega, p0)
    if not isinstance(steps, int) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    h = t_end / steps
    w2 = omega * omega
    q, p = 0.0, float(p0)
    out = [OscillatorState(q, p, omega, p0)]
    for _ in range(steps):
        k1q, k1p = p, -w2 * q
        k2q, k2p = p + 0.5 * h * k1p, -w2 * (q + 0.5 * h * k1q)
        k3q, k3p = p + 0.5 * h * k2p, -w2 * (q + 0.5 * h * k2q)
        k4q, k4p = p + h * k3p, -w2 * (q + h * k3q)
        q += (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        p += (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        out.append(OscillatorState(q, p, omega, p0))
    return out


def quasi_columns(omega, p0, qs, ps):
    """Quasi-canonical coordinates of on-shell samples, as two lists Ap and Am.

    The parameters are checked once.  Every sample must lie on the energy
    shell H = p0**2 / 2 to within SHELL_TOL relative error (ValueError
    otherwise) and on the chart's branch p > -p0 (BranchError otherwise);
    both are checked sample by sample, in order, before any square root.
    """
    _check_params(omega, p0)
    shell = 0.5 * p0 * p0
    tol = SHELL_TOL * max(shell, 1.0)
    for q, p in zip(qs, ps):
        energy = _energy(q, p, omega)
        # written so that a NaN comparison (inf - inf) counts as off the shell
        if not abs(energy - shell) <= tol:
            raise ValueError(
                f"state is off the energy shell: H = {energy}, expected {shell}")
        if p <= -p0:
            raise BranchError(
                f"quasi-canonical chart requires p > -p0, got p = {p}, p0 = {p0}")
    a_plus = [math.sqrt(p0 + p) for p in ps]
    return a_plus, [omega * q / a for q, a in zip(qs, a_plus)]


def quasi_coords(state):
    """Quasi-canonical coordinates of an on-shell state (see `quasi_columns`)."""
    (a_plus,), (a_minus,) = quasi_columns(state.omega, state.p0, (state.q,), (state.p,))
    return QuasiCoords(a_plus=a_plus, a_minus=a_minus)


def sample_flow(omega, p0, times):
    """The exact flow and its chart at each time, as four lists: q, p, Ap, Am.

    Every time must satisfy |omega*t| < pi, the window where the half-angle
    chart is single-valued (BranchError otherwise), checked for every time
    before any sine is taken; then `flow_columns` and `quasi_columns` check
    the parameters, the shell and the branch.  So a call with bad parameters
    raises even when `times` is empty, and a call with several faults names
    a time outside the window first.  `times` is a sequence, read twice.
    """
    for t in times:
        if not abs(omega * t) < math.pi:
            raise BranchError(f"time {t} leaves the chart window |omega*t| < pi")
    q, p = flow_columns(omega, p0, times)
    return (q, p, *quasi_columns(omega, p0, q, p))


def quasi_coords_derivative(coords, omega):
    """Time derivatives (Ap', Am') = (-(omega/2) Am, (omega/2) Ap)."""
    return (-0.5 * omega * coords.a_minus, 0.5 * omega * coords.a_plus)
