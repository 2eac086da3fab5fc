"""Harmonic oscillator flows and the quasi-canonical half-angle chart.

The Hamiltonian is H = (p**2 + omega**2 q**2) / 2 with equations of motion
q' = p, p' = -omega**2 q.  Trajectories are pinned to the initial condition
q(0) = 0, p(0) = p0 > 0, so the energy shell is H = p0**2 / 2 throughout.

The quasi-canonical coordinates are Ap = sqrt(p0 + p) >= 0 and
Am = omega*q / Ap, defined on the branch p > -p0.  Along the flow they obey
Ap' = -(omega/2) Am and Am' = (omega/2) Ap, i.e. they rotate at half the
oscillator frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# relative tolerance of the energy-shell check in `quasi_coords`
SHELL_TOL = 1e-8


class BranchError(ValueError):
    """The quasi-canonical chart is not defined at the requested point."""


@dataclass(frozen=True)
class OscillatorState:
    q: float
    p: float
    omega: float
    p0: float

    @property
    def energy(self):
        return 0.5 * (self.p * self.p + self.omega * self.omega * self.q * self.q)


@dataclass(frozen=True)
class QuasiCoords:
    a_plus: float
    a_minus: float


def _check_params(omega, p0):
    if not omega > 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if not p0 > 0:
        raise ValueError(f"p0 must be positive, got {p0}")


def exact_flow(omega, p0, t):
    """Closed-form state at time t: q = (p0/omega) sin(omega t), p = p0 cos(omega t)."""
    _check_params(omega, p0)
    return OscillatorState(
        q=(p0 / omega) * math.sin(omega * t),
        p=p0 * math.cos(omega * t),
        omega=omega,
        p0=p0,
    )


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


def quasi_coords(state):
    """Quasi-canonical coordinates of an on-shell state.

    Requires p > -p0 (the chart's branch) and checks that the state lies on
    the energy shell H = p0**2 / 2 to within SHELL_TOL relative error.
    """
    _check_params(state.omega, state.p0)
    shell = 0.5 * state.p0 * state.p0
    # written so that a NaN comparison (inf - inf) counts as off the shell
    if not abs(state.energy - shell) <= SHELL_TOL * max(shell, 1.0):
        raise ValueError(
            f"state is off the energy shell: H = {state.energy}, expected {shell}")
    if state.p <= -state.p0:
        raise BranchError(
            f"quasi-canonical chart requires p > -p0, got p = {state.p}, p0 = {state.p0}")
    a_plus = math.sqrt(state.p0 + state.p)
    return QuasiCoords(a_plus=a_plus, a_minus=state.omega * state.q / a_plus)


def quasi_coords_derivative(coords, omega):
    """Time derivatives (Ap', Am') = (-(omega/2) Am, (omega/2) Ap)."""
    return (-0.5 * omega * coords.a_minus, 0.5 * omega * coords.a_plus)
