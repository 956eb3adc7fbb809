import numpy as np

import fourierdist as fd
from fourierdist.optim import top_singular_value


def test_top_singular_value_2x2_close_singular_values():
    # equal or nearly equal singular values used to lose half the digits to
    # the cancellation in frob^4 - 4 |det|^2
    rng = np.random.default_rng(12)
    worst = 0.0
    for y in (1.0, 1e-3, 7.5, 0.3 + 0.4j, np.exp(0.7j)):
        m = np.kron(np.eye(2), np.array([[y]], dtype=complex))
        worst = max(worst, abs(top_singular_value(m) - abs(y)) / abs(y))
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-3, 3)
        m = scale * fd.haar_unitary(rng, 2)
        worst = max(worst, abs(top_singular_value(m) - scale) / scale)
    assert worst < 1e-14


def test_top_singular_value_2x2_matches_svd():
    rng = np.random.default_rng(13)
    for _ in range(500):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        exact = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(top_singular_value(m) - exact) <= 1e-14 * exact
