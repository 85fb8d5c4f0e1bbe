import numpy as np
import pytest

from sumformer.errors import ConfigError
from sumformer.targets import TARGETS, get_target


def test_registry_contents():
    names = set(TARGETS)
    assert {"cubic_coupling", "quadratic_sum", "sine_gauss", "softplus_mix"} <= names


def test_cubic_coupling_componentwise_d2():
    g = get_target("cubic_coupling").g
    x = np.array([0.5, 0.2])
    rest = np.array([[0.1, 0.3], [0.2, 0.4]])
    s = rest.sum(axis=0)
    expected = x + 7 * x**2 + 3 * x * s**3
    assert np.allclose(g(x, rest), expected, atol=1e-15)


def test_sine_gauss_values():
    g = get_target("sine_gauss").g
    x = np.array([0.5])
    rest = np.array([[0.0], [0.0]])
    assert g(x, rest)[0] == pytest.approx(1.0)  # sin(pi/2) * exp(0)


def test_softplus_mix_is_smooth_positive():
    g = get_target("softplus_mix").g
    rng = np.random.default_rng(0)
    for _ in range(10):
        out = g(rng.uniform(size=2), rng.uniform(size=(3, 2)))
        assert np.all(np.isfinite(out)) and np.all(out > 0.0)


def test_unknown_target_raises_config_error():
    with pytest.raises(ConfigError):
        get_target("nope")


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_stacked_lift_is_bitwise_the_per_sequence_lift(name):
    # n=1 gives an empty rest, whose sum is zeros.
    f = TARGETS[name].lifted()
    rng = np.random.default_rng(9)
    for n in (1, 2, 3, 9, 17):
        for d in (1, 2, 3, 8, 33):
            xs = rng.uniform(size=(60, n, d))
            assert np.array_equal(f(xs), np.stack([f(x) for x in xs])), (n, d)
