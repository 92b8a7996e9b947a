import math

import numpy as np
import pytest

from parrondo_maps import Angle, CylPoint, apply_f0, default_profiles
from parrondo_maps.profiles import (
    DEFAULT_A,
    DEFAULT_D,
    DEFAULT_W,
    TWO_PI,
    AngularShape,
    make_angular_profile,
    make_radial_profile,
)


@pytest.fixture(scope="session")
def profiles():
    """Default validated profile pair (a=5, w=1/8, d=1/4)."""
    return default_profiles()


@pytest.fixture(scope="session")
def profiles_by_shape():
    """The default parameters paired with each angular drift shape."""
    rp = make_radial_profile(DEFAULT_A, DEFAULT_W)
    return {
        shape: (rp, make_angular_profile(DEFAULT_D, w_ref=DEFAULT_W, shape=shape))
        for shape in AngularShape
    }


@pytest.fixture(scope="session")
def tent_profiles(profiles_by_shape):
    """The default parameters with the piecewise-linear drift."""
    return profiles_by_shape[AngularShape.PIECEWISE_LINEAR]


@pytest.fixture(scope="session")
def f0_cartesian(profiles):
    """The default first map on the plane, through cylinder coordinates; the origin is fixed."""
    rp, ap = profiles

    def step(x):
        x = np.asarray(x, dtype=float)
        rho = math.hypot(x[0], x[1])
        if rho == 0.0:
            return np.zeros(2)
        q = apply_f0(rp, ap, CylPoint(math.log(rho), Angle(math.atan2(x[1], x[0]) / TWO_PI)))
        t = TWO_PI * q.theta.value
        return math.exp(q.r) * np.array([math.cos(t), math.sin(t)])

    return step
