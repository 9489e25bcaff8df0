import numpy as np
import pytest

from gowersff import prime_field


def euler_legendre(a: int, p: int) -> int:
    """Independent Legendre-symbol oracle via the Euler criterion."""
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def random_unit_vector(p: int, rng) -> np.ndarray:
    """Uniform unit-modulus values, the standard engine-agreement input."""
    return np.exp(2j * np.pi * rng.random(p))


def poly_phase(coeffs, p: int) -> np.ndarray:
    """e(P(x)/p) for ascending integer coefficients."""
    x = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return np.exp(2j * np.pi * acc / p)


class SmallPowersOnly(int):
    """An int whose ``**`` refuses exponents past 10^4: a p whose huge powers
    a cost estimate must not compute to refuse them."""

    def __pow__(self, exp, mod=None):
        assert exp <= 10**4, f"{int(self)} ** {exp} was computed"
        return pow(int(self), exp, mod)


@pytest.fixture(scope="session")
def field101():
    return prime_field(101)


@pytest.fixture(scope="session")
def field499():
    return prime_field(499)


@pytest.fixture(scope="session")
def field997():
    return prime_field(997)
