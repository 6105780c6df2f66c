"""``spectrum._brentq``, the package's port of scipy's Brent solver, against
``scipy.optimize.brentq`` itself.  The port takes ``f`` at both bracket ends
from its caller; scipy evaluates them first.  After those two evaluations
both call ``f`` at the same points and return the same root, bit for bit, on
random smooth brackets, on every bracket the library solves for the three
shipped configurations, and at the edge cases."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st
from scipy import optimize

from transmon_decay import cli, resonances, spectrum
from transmon_decay.spectrum import _brentq, _resonant_offsets

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
# the library's tolerance settings: find_roots, fwhm, _resonant_offsets
LIBRARY_TOLS = ({"xtol": 1e-9}, {"rtol": 1e-8, "xtol": 1e-14}, {"xtol": 1e-13})


def solve_both(f, a, b, fa, fb, **tols):
    """Both solvers on one bracket: (root, evaluated x) for the port, given
    ``fa`` and ``fb``, then for scipy after its evaluations at ``a`` and
    ``b``, which must give ``fa`` and ``fb`` bit for bit; an exception is
    returned in place of the root."""
    runs = []
    for solve in (
        lambda g: _brentq(g, a, b, fa, fb, **tols),
        lambda g: optimize.brentq(g, a, b, **tols),
    ):
        calls = []

        def recorded(x):
            fx = f(x)
            calls.append((float(x).hex(), float(fx).hex()))
            return fx

        try:
            root = float(solve(recorded)).hex()
        except (ValueError, RuntimeError) as exc:
            root = type(exc)
        runs.append((root, calls))
    (ours, our_calls), (theirs, their_calls) = runs
    ends = [(float(a).hex(), float(fa).hex()), (float(b).hex(), float(fb).hex())]
    assert their_calls[:2] == ends[: len(their_calls)]
    return (ours, [x for x, _ in our_calls]), (theirs, [x for x, _ in their_calls[2:]])


def assert_same_as_scipy(f, a, b, fa, fb, **tols):
    ours, theirs = solve_both(f, a, b, fa, fb, **tols)
    assert ours == theirs
    return ours


@pytest.fixture()
def compared_solves(monkeypatch):
    """Replace the solver the library calls with one that also runs scipy's
    on the same bracket and asserts that the supplied end values are ``f``'s
    and the iterates identical; records the brackets."""
    brackets = []

    def checked(f, a, b, fa, fb, **tols):
        brackets.append((a, b, tols))
        root, _ = assert_same_as_scipy(f, a, b, fa, fb, **tols)
        return float.fromhex(root)

    monkeypatch.setattr(resonances, "_brentq", checked)
    monkeypatch.setattr(spectrum, "_brentq", checked)
    return brackets


SHAPES = {
    "expm1": lambda s, t: s * math.expm1(3.0 * t) + t**3,
    "atan": lambda s, t: s * math.atan(40.0 * t),  # flat tails: bisection steps
    "cubic": lambda s, t: s * (t**3 - 0.01 * t),  # three roots in wide brackets
    "tanh": lambda s, t: math.tanh(s * t) + 0.1 * math.sin(7.0 * t) * t,
    "pow5": lambda s, t: s * t**5,  # multiple root: slow interpolation
    "cbrt": lambda s, t: s * math.copysign(abs(t) ** (1 / 3), t),  # infinite slope
    "step": lambda s, t: math.tanh(1e4 * s * t),
}


class TestBitIdentity:
    @hyp_settings(max_examples=300, deadline=None)
    @given(
        shape=st.sampled_from(sorted(SHAPES)),
        scale=st.floats(min_value=1e-3, max_value=1e3),
        root=st.floats(min_value=-120.0, max_value=120.0),
        left=st.floats(min_value=1e-7, max_value=100.0),
        right=st.floats(min_value=1e-7, max_value=100.0),
        tols=st.sampled_from(LIBRARY_TOLS + ({},)),
        flip=st.booleans(),
    )
    def test_random_smooth_brackets(self, shape, scale, root, left, right, tols, flip):
        g = SHAPES[shape]

        def f(x):
            return g(scale, x - root)

        a, b = root - left, root + right
        if flip:
            a, b = b, a
        # a bracket without a sign change must fail the same way in both
        assert_same_as_scipy(f, a, b, f(a), f(b), **tols)

    @pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
    def test_every_library_bracket_of_the_shipped_configs(self, config, tmp_path, compared_solves):
        # resonances: find_roots on the scan and fwhm on both flanks of each
        # peak (for stable_l2_6, the stable doublet); sweep: find_roots per L2
        for command in ("resonances", "sweep"):
            assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
        tols = {tuple(sorted(t)) for _, _, t in compared_solves}
        assert ("xtol",) in tols and ("rtol", "xtol") in tols

    def test_resonant_offsets(self, compared_solves):
        for l1 in np.geomspace(0.26, 400, 50):
            _resonant_offsets(float(l1))
        assert len(compared_solves) == 50


class TestEdgeCases:
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 0.0), (1.0, 0.0), (0.0, -1.0)])
    def test_exact_zero_at_an_end(self, a, b):
        (root, xs), _ = solve_both(lambda x: x, a, b, a, b)
        assert root == 0.0.hex() and xs == []
        assert_same_as_scipy(lambda x: x, a, b, a, b)

    def test_same_sign_bracket_raises(self):
        f = lambda x: x * x + 1.0  # noqa: E731
        with pytest.raises(ValueError, match="different signs"):
            _brentq(f, -1.0, 1.0, f(-1.0), f(1.0))
        assert_same_as_scipy(f, -1.0, 1.0, f(-1.0), f(1.0))

    def test_nan_raises(self):
        f = lambda x: math.nan if 0.5 < x < 0.9 else x - 0.7  # noqa: E731
        with pytest.raises(ValueError, match="NaN"):
            _brentq(f, 0.0, 1.0, f(0.0), f(1.0))  # the first iterate, 0.7
        _, xs = assert_same_as_scipy(f, 0.0, 1.0, f(0.0), f(1.0))
        assert xs == [0.7.hex()]
        g = lambda x: math.nan if x > 0.5 else x - 0.7  # noqa: E731
        with pytest.raises(ValueError, match="NaN"):
            _brentq(g, 0.0, 1.0, g(0.0), g(1.0))  # an end
        assert_same_as_scipy(g, 0.0, 1.0, g(0.0), g(1.0))

    @pytest.mark.parametrize("fa, fb", [(math.nan, 1.0), (-1.0, math.nan)])
    def test_nan_end_value_raises(self, fa, fb):
        with pytest.raises(ValueError, match="NaN"):
            _brentq(lambda x: x, -1.0, 1.0, fa, fb)

    def test_maxiter_raises(self):
        f = lambda x: math.atan(1e3 * (x - 0.3))  # noqa: E731
        with pytest.raises(RuntimeError, match="after 3 iterations"):
            _brentq(f, -5.0, 7.0, f(-5.0), f(7.0), maxiter=3)
        _, xs = assert_same_as_scipy(f, -5.0, 7.0, f(-5.0), f(7.0), maxiter=3)
        assert len(xs) == 3
