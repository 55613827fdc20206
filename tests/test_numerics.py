import numpy as np
import pytest

from entwitness.witness import bracketed_root, entropy_bits


def _bisect(f, lo, hi, tol=1e-15):
    """Reference: plain bisection on one bracket down to ``tol``."""
    f_lo = f(lo)
    while hi - lo > tol * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        if np.sign(f(mid)) == np.sign(f_lo):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_entropy_bits_landmarks():
    assert entropy_bits(0.5, 0.5) == 1.0
    assert entropy_bits(1.0, 0.0) == 0.0
    assert entropy_bits(0.25, 0.25, 0.25, 0.25) == 2.0
    assert entropy_bits(1.0 + 1e-17, -1e-17) == pytest.approx(0.0, abs=1e-15)
    p = np.array([0.0, 0.5, 1.0])
    assert np.array_equal(entropy_bits(p, 1.0 - p), [0.0, 1.0, 0.0])


def test_bracketed_root_solves_each_bracket():
    # one call, several brackets, each with its own root sqrt(a)
    a = np.array([0.5, 2.0, 3.0, 3.9])

    def f(x):
        return x * x - a

    lo, hi = np.zeros(4), np.full(4, 2.0)
    roots = bracketed_root(f, lo, hi, f(lo), f(hi), xtol=1e-10)
    assert np.abs(roots - np.sqrt(a)).max() < 1e-14


def test_bracketed_root_matches_bisection_on_a_transcendental():
    k = np.array([0.2, 1.0, 3.0])

    def f(x):
        return np.cos(x) - k * x

    lo, hi = np.zeros(3), np.full(3, np.pi / 2)
    roots = bracketed_root(f, lo, hi, f(lo), f(hi), xtol=1e-10)
    for i, kk in enumerate(k):
        ref = _bisect(lambda x: np.cos(x) - kk * x, 0.0, np.pi / 2)
        assert roots[i] == pytest.approx(ref, abs=1e-14)


def test_bracketed_root_returns_an_exact_end():
    def f(x):
        return x - 1.0

    roots = bracketed_root(f, [0.0, 1.0], [1.0, 2.0], [-1.0, 0.0], [0.0, 1.0], xtol=1e-10)
    assert roots.tolist() == [1.0, 1.0]


def test_bracketed_root_keeps_the_bracket_on_a_jump():
    # no interpolation helps on a sign jump: the bracket must still close
    # around it to within xtol
    def f(x):
        return np.where(x < 0.3, -1.0, 1.0)

    root = bracketed_root(f, 0.0, 1.0, -1.0, 1.0, xtol=1e-10)
    assert abs(root - 0.3) < 1e-10
    # with no absolute tolerance, a jump at x = 0 leaves only the relative
    # one, 4 eps |x|, which shrinks as fast as the bracket: never done, so
    # that bracket gets NaN while the jump at 0.3 beside it is still found
    roots = bracketed_root(lambda x: np.where(x < 0.0, -1.0, np.where(x < 0.3, 1.0, -1.0)),
                           [-1.0, 0.2], [0.1, 1.0], [-1.0, 1.0], [1.0, -1.0], xtol=0.0)
    assert np.isnan(roots[0]) and abs(roots[1] - 0.3) < 1e-15


def test_bracketed_root_halves_the_bracket_every_three_evaluations():
    # roots where the two sides follow different powers, on which the inverse
    # quadratic steps alone often keep most of the bracket; the bracket that
    # the evaluated points enclose must still halve every three evaluations
    rng = np.random.default_rng(7)
    n = 2000
    r = rng.uniform(0.01, 0.99, n)
    p_pos, p_neg = 10 ** rng.uniform(-1, 0.5, (2, n))
    scale = 10 ** rng.uniform(-3, 3, n)
    lo, hi = np.zeros(n), np.ones(n)
    widths = [hi - lo]

    def f(x):
        nonlocal lo, hi
        y = np.abs(x - r)
        v = np.where(x > r, scale * y ** p_pos, -(y ** p_neg))
        lo, hi = np.where(v < 0, np.maximum(lo, x), lo), np.where(v >= 0, np.minimum(hi, x), hi)
        widths.append(hi - lo)
        return v

    roots = bracketed_root(f, 0.0, 1.0, f(np.zeros(n)), f(np.ones(n)), xtol=1e-10)
    assert np.abs(roots - r).max() < 1e-10
    w = np.array(widths[2:])  # from the bracket [0, 1] on
    live = w[:-3] > 1e-9
    assert not (live & (w[3:] > 0.5 * w[:-3] * (1.0 + 1e-12))).any()
