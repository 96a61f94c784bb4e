"""Space-time transformations of localization labels and limiting densities.

Discrete operations and translations/rotations act directly on the
label (a, v):

    translation by b : (a + b, v)
    rotation by R    : (R a, R v)
    parity           : (-a, -v)
    time reversal    : (a, -v)

The spin label is carried through unchanged; how it should transform is
deliberately left open (see the module-level notes in the README).

Boosts along the 3-axis act on the *limit* data of a sequence.  With
rapidity s and c = 1, a point a with velocity v on the instant t = 0
maps to the event (t' = a3 sinh s, x' = (a1, a2, a3 cosh s)) on the
hyperplane t' = x'_3 tanh s, with velocity

    v' = (v1, v2, v3 cosh s + sinh s) / (cosh s + v3 sinh s),

and the limiting (rho, j) pair, a four-vector density, becomes

    (cosh s + v3 sinh s, v1, v2, sinh s + v3 cosh s) * cosh s
        * delta(x'_1 - a1) delta(x'_2 - a2) delta(x'_3 - a3 cosh s);

the overall cosh s is the Jacobian of the delta rescaling.  Storing the
event time makes boost composition exact: rapidities add along a fixed
axis.  General boost directions are obtained by conjugating with
rotations.  At finite n the boosted density's weight follows from
momentum space alone (``verify_boost_against_field``), since int j3 /
int rho is <xdot_3>; no check reads it, and ``verify``'s
``rn_convergence`` already bounds how <xdot_3> = R_n(0; alpha3) nears v3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .observables import momentum_moments
from .states import LocalizationLabel, MomentumState


def translate(label: LocalizationLabel, b) -> LocalizationLabel:
    b = np.asarray(b, dtype=float)
    return replace(label, a=tuple(np.asarray(label.a) + b))


def rotate(label: LocalizationLabel, rotation) -> LocalizationLabel:
    r = np.asarray(rotation, dtype=float)
    if r.shape != (3, 3):
        raise ValueError("rotation must be a 3 x 3 matrix")
    if not np.allclose(r.T @ r, np.eye(3), atol=1e-10) or not np.isclose(
        np.linalg.det(r), 1.0, atol=1e-10
    ):
        raise ValueError("rotation must be proper orthogonal (R^T R = I, det R = 1)")
    return replace(
        label, a=tuple(r @ np.asarray(label.a)), v=tuple(r @ np.asarray(label.v))
    )


def parity(label: LocalizationLabel) -> LocalizationLabel:
    return replace(
        label, a=tuple(-np.asarray(label.a)), v=tuple(-np.asarray(label.v))
    )


def time_reverse(label: LocalizationLabel) -> LocalizationLabel:
    return replace(label, v=tuple(-np.asarray(label.v)))


@dataclass(frozen=True)
class BoostParams:
    """Boost along the 3-axis with the given rapidity."""

    rapidity: float

    def __post_init__(self):
        if not np.isfinite(self.rapidity):
            raise ValueError("rapidity must be finite")


@dataclass(frozen=True)
class PointDensityLimit:
    """Limit data of a localizing sequence: a weighted moving point.

    ``time`` is the c t coordinate of the labelled event in the current
    frame (0 before any boost); ``rapidity`` accumulates the boosts
    applied so far, so the data lives on the hyperplane
    c t' = x'_3 tanh(rapidity).  ``rho_weight``/``j_weight`` are the
    delta-function weights of the limiting (rho, j) pair, including the
    cosh-factor Jacobian.
    """

    point: tuple[float, float, float]
    velocity: tuple[float, float, float]
    time: float = 0.0
    rapidity: float = 0.0
    rho_weight: float = 1.0
    j_weight: tuple[float, float, float] = (0.0, 0.0, 0.0)

    @classmethod
    def from_label(cls, label: LocalizationLabel) -> "PointDensityLimit":
        return cls(point=label.a, velocity=label.v, j_weight=label.v)


def boost_label(limit: PointDensityLimit, boost: BoostParams) -> PointDensityLimit:
    """Apply a 3-axis boost to the limit data of a localizing sequence."""
    s = boost.rapidity
    ch, sh = np.cosh(s), np.sinh(s)
    a = np.asarray(limit.point)
    v = np.asarray(limit.velocity)
    t_new = limit.time * ch + a[2] * sh
    x3_new = a[2] * ch + limit.time * sh
    gamma_factor = ch + v[2] * sh
    v_new = np.array([v[0], v[1], v[2] * ch + sh]) / gamma_factor
    # four-vector transform of the (rho, j) weights; the delta-function
    # Jacobian updates cosh(r) -> cosh(r + s)
    rho_w = limit.rho_weight * ch + limit.j_weight[2] * sh
    j_w = np.array(
        [
            limit.j_weight[0],
            limit.j_weight[1],
            limit.j_weight[2] * ch + limit.rho_weight * sh,
        ]
    )
    jac = np.cosh(limit.rapidity + s) / np.cosh(limit.rapidity)
    return PointDensityLimit(
        point=(a[0], a[1], float(x3_new)),
        velocity=tuple(v_new),
        time=float(t_new),
        rapidity=limit.rapidity + s,
        rho_weight=float(rho_w * jac),
        j_weight=tuple(j_w * jac),
    )


def velocity_addition(v3: float, boost: BoostParams) -> float:
    """Longitudinal relativistic velocity addition v3 (+) tanh(rapidity)."""
    lim = PointDensityLimit(point=(0, 0, 0), velocity=(0, 0, v3), j_weight=(0, 0, v3))
    return boost_label(lim, boost).velocity[2]


def verify_boost_against_field(state: MomentumState, boost: BoostParams) -> tuple[float, float]:
    """(weight ratio, predicted weight ratio) of the boosted density of ``state``.

    The pointwise four-vector transform rho' = rho cosh s + j3 sinh s is
    linear, so at t = 0 its weight over all space is cosh s int rho +
    sinh s int j3, and by Parseval int j = int (p/E) |phi|^2 d^3p, so

        int rho' / int rho = cosh s + sinh s <xdot_3>

    exactly, with <xdot> from ``observables.momentum_moments``.  For a
    localizing sequence it tends to cosh s + v3 sinh s, the transform of
    the limit's weights (1, v); at finite n that is a trend statement,
    not an equality.
    """
    s = boost.rapidity
    ch, sh = np.cosh(s), np.sinh(s)
    velocity = momentum_moments(state).mean_velocity[2]
    return float(ch + sh * velocity), float(ch + sh * state.label.v[2])
