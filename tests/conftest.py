import numpy as np
import pytest
from hypothesis import assume, strategies as st

from wolct import OlctParams, UniformGrid


def random_valid_params(rng, n, min_abs_b=0.5, with_offsets=True):
    """Draw n parameter sets satisfying a*d - b*c = 1 with |b| >= min_abs_b."""
    out = []
    while len(out) < n:
        a = rng.uniform(-2.0, 2.0)
        if abs(a) < 0.1:
            continue
        b = rng.choice([-1.0, 1.0]) * rng.uniform(min_abs_b, 3.0)
        c = rng.uniform(-2.0, 2.0)
        d = (1.0 + b * c) / a
        if abs(d) > 10.0:
            continue
        u0 = rng.uniform(-2.0, 2.0) if with_offsets else 0.0
        w0 = rng.uniform(-2.0, 2.0) if with_offsets else 0.0
        out.append(OlctParams(a, b, c, d, u0, w0))
    return out


@st.composite
def valid_params(draw):
    """Parameters with a*d - b*c = 1, either sign of b, |b| in [0.5, 3]."""
    sign = st.sampled_from([-1.0, 1.0])
    a = draw(sign) * draw(st.floats(0.1, 2.0))
    b = draw(sign) * draw(st.floats(0.5, 3.0))
    c = draw(st.floats(-2.0, 2.0))
    d = (1.0 + b * c) / a
    assume(abs(d) <= 10.0)
    return OlctParams(a, b, c, d, draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))


@st.composite
def uniform_grids(draw, min_count=16, max_count=257):
    """Grids of either count parity, not necessarily symmetric about 0."""
    n = draw(st.integers(min_count, max_count))
    step = draw(st.floats(0.02, 0.2))
    return UniformGrid(-draw(st.floats(0.0, 1.0)) * (n - 1) * step, step, n)


def random_complex(seed, n):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def grid1025():
    """Symmetric odd-count grid spanning [-12.8, 12.8] with step 0.025."""
    return UniformGrid.symmetric(0.025, 1025)


@pytest.fixture
def grid513():
    """Symmetric odd-count grid spanning [-12.8, 12.8] with step 0.05."""
    return UniformGrid.symmetric(0.05, 513)
