import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import entwitness as ew
from entwitness import (NotDensityMatrix, QuadratureUnconverged, ReservoirParams,
                        ScenarioConfig, ValidationError, correlation_f,
                        correlation_f_quadrature, excited_population, run_scenario)
from entwitness.dynamics import (MIN_WIDTH, QUADRATURE_LADDER, SERIES_LIMIT, ReservoirColumns,
                                 _scale, _simpson_classes, correlation_integral)
from _oracles import (N_A, N_B, S_A_MINUS, S_A_PLUS, S_MINUS, S_PLUS, S_Z, bell_rho,
                      channel_states, liouvillian_apply, one_reservoir, partial_trace,
                      quadrature_direct, random_density, reservoirs, rk4_states, simpson)


def _populations(r_a, r_b, t_max, dt=1e-2, sample_every=1):
    """The sample grid of a run and the exact ``p_A``, ``p_B`` on it, of ``(lam, delta)`` pairs."""
    times = ScenarioConfig(lambda_a=r_a[0], lambda_b=r_b[0], t_max=t_max, dt=dt,
                           sample_every=sample_every).sample_times()
    return times, *(excited_population(one_reservoir(*r), times) for r in (r_a, r_b))


def _quadrature_gap(lam, delta, t):
    """``|quadrature - closed form|`` of one reservoir's ``f(t)``."""
    return abs(correlation_f_quadrature(ReservoirParams(lam, delta), t)
               - correlation_f(one_reservoir(lam, delta), t)[0])


def test_atom_operator_algebra():
    assert np.allclose(S_PLUS.conj().T, S_MINUS)
    comm = S_PLUS @ S_MINUS - S_MINUS @ S_PLUS
    assert np.allclose(comm, 2.0 * S_Z)
    # embeddings act on the advertised slots of the |00>,|01>,|10>,|11> basis
    ket10 = np.zeros(4); ket10[2] = 1.0
    assert np.allclose(S_A_MINUS @ ket10, [1, 0, 0, 0])
    assert np.allclose(S_A_PLUS @ np.array([1.0, 0, 0, 0]), ket10)


def test_reservoir_params_validation():
    # the rules and wording of ScenarioConfig's widths and detunings
    with pytest.raises(ValidationError, match=r"^lam: must be > 0, got 0\.0$"):
        ReservoirParams(lam=0.0)
    with pytest.raises(ValidationError, match=r"^delta: must be >= 0, got -0\.5$"):
        ReservoirParams(lam=1.0, delta=-0.5)
    with pytest.raises(ValidationError, match="^lam: must be a finite number, got inf$"):
        ReservoirParams(lam=np.inf)
    # an integer beyond the float range is not finite, not an OverflowError
    with pytest.raises(ValidationError, match="^lam: must be a finite number, got 1000"):
        ReservoirParams(10**400)
    # numpy's complex division by a subnormal z = i delta - lam gives NaN
    for lam in (5e-324, MIN_WIDTH / 2):
        with pytest.raises(ValidationError, match=r"^lam: must be >= 2\.2250738585072014e-308, "
                                                  "the smallest normal float, got "):
            ReservoirParams(lam)
    # a string, None or a bool is no number: each is named, not a TypeError
    # from the comparison or a width of 1
    for value in ("0.1", None, True, np.True_):
        with pytest.raises(ValidationError, match="^lam: must be a finite number"):
            ReservoirParams(value)
        with pytest.raises(ValidationError, match="^delta: must be a finite number"):
            ReservoirParams(1.0, value)
    assert ReservoirParams(np.float32(0.5), np.int64(1)) == ReservoirParams(0.5, 1.0)


def test_reservoir_params_stores_python_floats():
    # numpy scalars are stored as the floats they hold, so the quadrature of a
    # float32 width runs in float64: a Python complex, the float call's bits
    r = ReservoirParams(np.float32(5.0), np.int64(1))
    assert type(r.lam) is float and type(r.delta) is float
    got = correlation_f_quadrature(ReservoirParams(np.float32(5.0)), 50.0)
    want = correlation_f_quadrature(ReservoirParams(5.0), 50.0)
    assert type(got) is complex
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


RESERVOIR = st.tuples(st.floats(MIN_WIDTH, 1e308), st.floats(0.0, 1e308))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(RESERVOIR, RESERVOIR), min_size=1, max_size=8))
@example([((MIN_WIDTH, 1e308), (1e308, 1e308)), ((1e308, 0.0), (1.0, -0.0)),
          ((0.1, 1.6), (5.0, 0.0))])
def test_reservoir_columns_of_matches_reservoir_params_bit_for_bit(rows):
    # a batch's (G, 4) rows (lambda_a, lambda_b, delta_a, delta_b), read as
    # (2, G) transposed views, atom A first, as in a sweep
    params = np.array([(a[0], b[0], a[1], b[1]) for a, b in rows])
    columns = ReservoirColumns.of(params[:, :2].T, params[:, 2:].T)
    want = [[ReservoirParams(*a) for a, _ in rows], [ReservoirParams(*b) for _, b in rows]]
    assert columns.scale.shape == columns.z.shape == (2, len(rows), 1)
    assert columns.scale.tobytes() == np.array(
        [[_scale(r.lam, r.delta) for r in atom] for atom in want]).tobytes()
    assert columns.z.tobytes() == np.array(
        [[1j * r.delta - r.lam for r in atom] for atom in want]).tobytes()
    # one atom's (G,) arrays give its (G, 1) columns, the same bits
    single = ReservoirColumns.of(params[:, 1], params[:, 3])
    assert single.scale.shape == single.z.shape == (len(rows), 1)
    assert single.scale.tobytes() == columns.scale[1].tobytes()
    assert single.z.tobytes() == columns.z[1].tobytes()
    # take keeps the atom axis, rows reordered and repeated
    picked = [len(rows) - 1, 0, 0]
    cut = columns.take(np.array(picked))
    assert cut.scale.shape == cut.z.shape == (2, len(picked))
    assert cut.scale.tobytes() == columns.scale[:, picked, 0].tobytes()
    assert cut.z.tobytes() == columns.z[:, picked, 0].tobytes()


def _batch(rows, kind, k):
    """``(2, G, 1)`` columns of atom A's ``(lam, delta)`` rows and atom B's as ``kind`` gives them.

    ``equal``: B is A.  ``unequal``: B is A with the rows reversed.  ``sign_of_zero``:
    B is A, but row ``k`` has detuning 0.0 on A and -0.0 on B, kept as the sign of
    ``z``'s imaginary part (``ReservoirColumns.of``'s ``1j * delta`` drops it).
    """
    zero = kind == "sign_of_zero"
    a = [(lam, 0.0 if zero and g == k else delta) for g, (lam, delta) in enumerate(rows)]
    b = a[::-1] if kind == "unequal" else [(lam, -0.0 if zero and g == k else delta)
                                           for g, (lam, delta) in enumerate(a)]
    scale = np.array([[_scale(*row) for row in atom] for atom in (a, b)])
    z = np.array([[complex(-lam, delta) for lam, delta in atom] for atom in (a, b)])
    return ReservoirColumns(scale[..., None], z[..., None])


@settings(max_examples=200, deadline=None)
@given(st.lists(RESERVOIR, min_size=1, max_size=6),
       st.sampled_from(["equal", "unequal", "sign_of_zero"]), st.data())
def test_equal_halves_give_the_two_atom_bits(rows, kind, data):
    # where both atoms' columns hold the same bits, one atom's half is evaluated
    # and copied: the same bits as evaluating both, on a shared grid and at a
    # root-find's per-row times
    k = data.draw(st.integers(0, len(rows) - 1), label="k")
    r = _batch(rows, kind, k)
    grid = np.arange(data.draw(st.integers(1, 50), label="N")) * data.draw(
        st.sampled_from([1e-2, 0.7, 1e3]), label="dt")
    per_row = np.array(data.draw(st.lists(st.floats(0.0, 1e6), min_size=len(rows),
                                          max_size=len(rows)), label="t"))
    for columns, t in ((r, grid), (r.take(np.arange(len(rows))), per_row)):
        for function in (excited_population, correlation_f):
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                got, want = function(columns, t), function.__wrapped__(columns, t)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), function


WIDTH = st.floats(math.log(MIN_WIDTH), math.log(1e308)).map(
    lambda x: min(max(math.exp(x), MIN_WIDTH), 1e308))          # log-uniform
DETUNING = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e308))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(WIDTH, DETUNING), min_size=6, max_size=6), st.integers(0, 5),
       st.booleans(), st.lists(st.floats(0.0, 1e308), min_size=1, max_size=20))
def test_one_reservoir_is_its_row_of_a_batch(pairs, k, equal, grid):
    # one reservoir's columns, of its 0-d width and detuning, give the grid's
    # shape and that reservoir's row of a 3-row batch, bit for bit, whether or
    # not the batch's atoms are equal
    if equal:
        pairs = pairs[:3] * 2
    lams, deltas = np.array(pairs).T.reshape(2, 2, 3)
    batch = ReservoirColumns.of(lams, deltas)
    single = ReservoirColumns.of(np.array(pairs[k][0]), np.array(pairs[k][1]))
    t = np.array(grid)
    for function in (correlation_integral, excited_population, correlation_f):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got, rows = function(single, t), function(batch, t)
        assert got.shape == t.shape and got.tobytes() == rows[divmod(k, 3)].tobytes(), function


def test_equal_reservoirs_evaluate_half_the_elements(monkeypatch):
    # the closed form's elements, counted where they are evaluated: an equal
    # batch evaluates atom A's half, a batch one zero's sign apart both atoms
    shapes = []
    integral = ew.dynamics.correlation_integral

    def counted(r, t):
        value = integral(r, t)
        shapes.append(value.shape)
        return value

    monkeypatch.setattr(ew.dynamics, "correlation_integral", counted)
    times = np.linspace(0.0, 10.0, 101)
    lams, deltas = np.array([0.1, 0.5, 2.0]), np.array([0.0, 1.6, 0.0])
    equal = ReservoirColumns.of(np.stack([lams, lams]), np.stack([deltas, deltas]))
    unequal = ReservoirColumns.of(np.stack([lams, lams[::-1]]), np.stack([deltas, deltas]))
    z = equal.z.copy()
    z[1, 0, 0] = complex(z[1, 0, 0].real, -0.0)   # detuning -0.0 on atom B of row 0
    signed = ReservoirColumns(equal.scale, z)
    assert signed.z[0].tobytes() != signed.z[1].tobytes() and np.all(signed.z[0] == signed.z[1])
    for r, elements in ((equal, 3 * 101), (unequal, 2 * 3 * 101), (signed, 2 * 3 * 101)):
        shapes.clear()
        assert excited_population(r, times).shape == (2, 3, 101)
        assert [math.prod(shape) for shape in shapes] == [elements]
    # a whole sweep on an equal base, every root-find evaluation included
    shapes.clear()
    rows = ew.sweep([0.05, 0.1, 2.0], [0.0, 1.6], ScenarioConfig(lambda_a=0.1, lambda_b=0.1,
                                                                 t_max=20.0, sample_every=5))
    assert np.any(rows.witness.crossing_found)
    assert len(shapes) > 2 and {shape[0] for shape in shapes} == {1}


def test_correlation_f_zero_at_start():
    for r in (one_reservoir(0.1), one_reservoir(5.0, 1.6)):
        assert correlation_f(r, 0.0)[0] == 0j


def test_correlation_f_resonant_asymptote():
    r = one_reservoir(0.1, 0.0)
    assert correlation_f(r, 1e4)[0] == pytest.approx(0.5 + 0j, abs=1e-12)


def test_correlation_f_detuned_asymptote():
    # lam/(2(lam - i delta)) with lam=5, delta=1 is (25 + 5i)/52
    r = one_reservoir(5.0, 1.0)
    assert correlation_f(r, 1e4)[0] == pytest.approx(25 / 52 + 5j / 52, abs=1e-12)


def test_correlation_f_vectorized_and_validated():
    r = one_reservoir(0.1, 1.2)
    ts = np.linspace(0, 10, 11)
    out = correlation_f(r, ts)
    assert out.shape == ts.shape
    assert out[0] == 0j
    with pytest.raises(ValidationError):
        correlation_f(r, -1.0)
    # a NaN time is neither accepted nor silently turned into a NaN f
    with pytest.raises(ValidationError, match="t: must be >= 0"):
        correlation_f(r, np.nan)
    with pytest.raises(ValidationError, match="t: must be >= 0"):
        correlation_f(r, np.array([0.0, np.nan]))


def test_quadrature_zero_at_start():
    assert abs(correlation_f_quadrature(ReservoirParams(0.1), 0.0)) < 1e-12


@pytest.mark.parametrize("lam,delta,t", [(0.1, 0.0, 5.0), (0.1, 1.2, 10.0)])
def test_quadrature_matches_closed_form_examples(lam, delta, t):
    assert _quadrature_gap(lam, delta, t) < 1e-4


def test_quadrature_matches_closed_form_small_grid():
    for lam in (0.1, 2.0):
        for delta in (0.0, 1.6):
            for t in (0.5, 5.0):
                assert _quadrature_gap(lam, delta, t) < 1e-4


def test_quadrature_unconverged_on_unresolved_oscillation():
    # 10^5 nodes cannot resolve exp(i x t) at t=500 over a window of width ~1240:
    # one period of the integrand spans about one node
    with pytest.raises(QuadratureUnconverged):
        correlation_f_quadrature(ReservoirParams(5.0, 0.0), 500.0)


def test_quadrature_validates_window_and_nodes():
    r = ReservoirParams(1.0)
    for t in (np.nan, np.inf, -1.0, 10**400, "1.0", None, True, np.True_):
        with pytest.raises(ValidationError, match="t: must be finite"):
            correlation_f_quadrature(r, t)
    # x t, or lam**2 and the integrand's denominator, overflow on the
    # interval: rejected before a grid is built, with no RuntimeWarning
    for lam, t in ((1.0, 1e308), (1e300, 1.0)):
        with pytest.raises(QuadratureUnconverged, match="overflows"):
            correlation_f_quadrature(ReservoirParams(lam), t)


def test_quadrature_at_a_width_whose_square_underflows():
    # lam**2 is 0, so the x = 0 limit must not divide 0 by 0; that node
    # alone is nonzero, and at this t the two sums agree within 1e-5
    assert _quadrature_gap(1e-170, 0.0, 0.1) < 1e-4


def test_quadrature_ladder_rungs_and_halves_are_odd_for_simpson():
    for n in QUADRATURE_LADDER:
        for nodes in (n, (n + 1) // 2):   # the rung and every other node of it
            assert nodes % 2 == 1
            # Simpson's rule is exact for a cubic on [0, 1]
            x = np.linspace(0.0, 1.0, nodes)
            exact = 1 / 4 - 2 / 3 + 1 / 2 + 1
            assert abs(simpson(x**3 - 2 * x**2 + x + 1, 1 / (nodes - 1)) - exact) < 1e-13
    assert all(2 * a - 1 == b for a, b in zip(QUADRATURE_LADDER, QUADRATURE_LADDER[1:]))


@pytest.mark.parametrize("n", QUADRATURE_LADDER)
def test_quadrature_class_weights_are_simpsons_rule(n):
    # n values laid out as the quadrature lays out its weights: (rows, b),
    # the two ends halved and the padding past n zero.  The class weights
    # give Simpson's rule on all nodes and on every other node.
    m, classes = _simpson_classes(n)
    b = len(m)
    assert b % 4 == 0 and (n - 1) % 4 == 0 and b * b > n
    y = np.random.default_rng(n).random(n)
    layout = np.zeros(-(-n // b) * b)
    layout[:n] = y
    layout[[0, n - 1]] *= 0.5
    h = 0.37
    fine, coarse = (layout.reshape(-1, b) @ classes[:, 2]).sum(axis=0) * (h / 3)
    assert fine == pytest.approx(simpson(y, h).real, rel=1e-12, abs=0)
    assert coarse == pytest.approx(simpson(y[::2], 2 * h).real, rel=1e-12, abs=0)
    # the weights of a phase's real and imaginary parts repeat those classes
    assert np.array_equal(classes[:, 0], classes[:, 2][:, [0, 0]])
    assert np.array_equal(classes[:, 1], classes[:, 2][:, [1, 1]])
    assert np.array_equal(m, np.arange(b))


@settings(max_examples=25, deadline=None)
@given(log_lam=st.floats(np.log(0.05), np.log(5.0)), delta=st.floats(0.0, 4.0),
       t=st.floats(0.0, 50.0))
@example(log_lam=np.log(0.05), delta=0.0, t=0.5)
@example(log_lam=np.log(0.05), delta=0.0, t=5.0)
@example(log_lam=np.log(5.0), delta=1.6, t=50.0)
@example(log_lam=np.log(2.0), delta=0.0, t=50.0)
@example(log_lam=0.0, delta=0.0, t=5e-324)
def test_quadrature_two_table_phase_matches_direct_exp(log_lam, delta, t):
    # the fast path against one np.exp per node: the same rung, within 1e-9.
    # The first two examples put a node 3.6e-15 from x = 0, where a table
    # phase divided by x would move the sum by 5e-6 or stop it converging.
    # At lam 5 and 2 with t = 50 the sums run to the two largest rungs that
    # criterion 7 reaches; at t = 5e-324, 1 / t is inf and every node is
    # summed directly.
    r = ReservoirParams(float(np.exp(log_lam)), delta)
    try:
        direct = quadrature_direct(r, t)
    except QuadratureUnconverged:
        with pytest.raises(QuadratureUnconverged):
            correlation_f_quadrature(r, t)
    else:
        assert abs(correlation_f_quadrature(r, t) - direct) < 1e-9


@settings(max_examples=25, deadline=None)
@given(log_lam=st.floats(np.log(0.05), np.log(5.0)), delta=st.floats(0.0, 4.0),
       t=st.floats(0.0, 50.0))
def test_quadrature_matches_closed_form_on_criterion7_ranges(log_lam, delta, t):
    # widths log-uniform over the criterion's range: each point settles on
    # some rung of the node ladder (QuadratureUnconverged would fail the test)
    assert _quadrature_gap(float(np.exp(log_lam)), delta, t) < 1e-4


@pytest.mark.parametrize("turns", [1, 2])
def test_quadrature_does_not_alias_the_oscillation(turns):
    # lam = 1 and delta = h = 280 / 3127 span x in [-140, 140 + h], so the
    # 3 129-node rung has spacing h and no node on x = 0 (140 / h = 1563.5).
    # At t = 2 pi turns / h, exp(i x t) is the same on every node of that
    # rung: -1 for 1 turn, where the two sums differ, and 1 for 2 turns,
    # where the integrand vanishes and both sums agree on 0.  The start rung
    # resolves 1 / t.
    h = 280 / 3127
    assert _quadrature_gap(1.0, h, 2 * np.pi * turns / h) < 1e-4


def test_liouvillian_annihilates_ground_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    out = liouvillian_apply(rho, 0.3 + 0.1j, 0.2 - 0.4j)
    assert np.allclose(out, 0.0, atol=1e-15)
    assert abs(np.trace(out)) < 1e-15


def test_liouvillian_doubly_excited_image():
    # Hand-derived image for rho = |11><11| with f_a = f_b = 1/2: each atom
    # funnels population into its singly-excited state at rate 2 Re f = 1,
    # so d rho/dt = diag(0, 1, 1, -2).
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0
    out = liouvillian_apply(rho, 0.5 + 0j, 0.5 + 0j)
    assert np.allclose(out, np.diag([0.0, 1.0, 1.0, -2.0]).astype(complex), atol=1e-15)


def test_liouvillian_traceless_and_hermiticity_preserving():
    rng = np.random.default_rng(5)
    for _ in range(25):
        rho = random_density(rng, 4)
        f_a = complex(rng.normal(), rng.normal())
        f_b = complex(rng.normal(), rng.normal())
        out = liouvillian_apply(rho, f_a, f_b)
        assert abs(np.trace(out)) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12


def test_bell_initial_state():
    # the run starts undecayed (p_A = p_B = 1), which is the pure Bell state
    cfg = ScenarioConfig(lambda_a=0.1, lambda_b=5.0, delta_b=2.0, t_max=1.0)
    traj, _ = run_scenario(cfg)
    assert traj.times[0] == 0.0 and traj.p_a[0] == 1.0 and traj.p_b[0] == 1.0
    rho = channel_states(bell_rho(), *reservoirs(cfg), traj.times[:1])[0]
    assert np.allclose(rho, bell_rho(), atol=0)
    assert np.trace(rho) == pytest.approx(1.0, abs=0)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-15)


def test_propagate_single_tiny_step_is_identity():
    # lam -> 0 limit: f(0) = 0, so one tiny step leaves the state unchanged
    r = (1e-6, 0.0)
    _, p_a, p_b = _populations(r, r, t_max=1e-4, dt=1e-4)
    assert 1.0 - p_a[-1] < 1e-8 and 1.0 - p_b[-1] < 1e-8


def test_propagate_markovian_limit_population_decay():
    # flat-spectrum limit: the doubly-excited population p_A p_B of an
    # initial |11> decays as exp(-2 t), also at the largest widths a float holds
    for r in ((300.0, 0.0), (1e308, 0.0)):
        times, p_a, p_b = _populations(r, r, t_max=3.0, dt=1e-3)
        for t_probe in (0.1, 1.0, 3.0):
            idx = int(round(t_probe / 1e-3))
            pop = p_a[idx] * p_b[idx]
            assert pop == pytest.approx(np.exp(-2.0 * t_probe), rel=2e-2)
    # at the largest width the prefactor is 1/2 and the decay exactly Markovian
    p = excited_population(one_reservoir(1e308), times)
    assert np.abs(p - np.exp(-times)).max() < 1e-15


def test_populations_of_a_tiny_width_over_a_long_horizon():
    # |z t| is at most 1e-50 while lam t**2 / 2 reaches 0.5: t - expm1(z t) / z
    # cancels to nothing there (p was inf), and the series keeps every digit
    t = np.array([1e49, 2e49, 1e50])
    p = excited_population(one_reservoir(1e-100), t)
    assert np.allclose(p, np.exp(-1e-100 * t**2 / 2), rtol=1e-12, atol=0)


@pytest.mark.parametrize("factor", [1e-3, 0.999, 1.001, 2.0])
def test_correlation_integral_on_both_sides_of_the_series_limit(factor):
    # |z| = 1e-3, so |z t| = factor * SERIES_LIMIT: the series below the
    # limit and the closed form above it agree with five terms of the series
    lam, delta = 0.8e-3, 0.6e-3
    t = factor * SERIES_LIMIT / 1e-3
    zt = (1j * delta - lam) * t
    want = _scale(lam, delta) * -t * sum(zt**k / math.factorial(k + 1) for k in range(1, 6))
    assert abs(correlation_integral(one_reservoir(lam, delta), t)[0] - want) <= 1e-9 * abs(want)


def test_populations_at_the_smallest_width():
    # MIN_WIDTH is the smallest normal float; a subnormal width is rejected
    # (test_reservoir_params_validation), a subnormal detuning is not; where
    # z t is subnormal too, p is within an ulp of 1
    times = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=10.0).sample_times()
    for delta in (0.0, 5e-324, 1.0):
        p = excited_population(one_reservoir(MIN_WIDTH, delta), times)
        assert np.abs(p - 1.0).max() < 1e-15, delta


def test_propagate_matches_exact_channel_solution():
    # the closed-form populations against RK4 on the master equation at
    # dt = 1e-2, entry by entry of the damped Bell state
    r_a, r_b = (0.1, 1.2), (5.0, 0.5)
    times, p_a, p_b = _populations(r_a, r_b, t_max=8.0, dt=1e-2)
    idx = [0, 100, 400, 800]
    rhos = rk4_states(bell_rho(), r_a, r_b, times[idx], max_step=1e-2)
    p_a, p_b = p_a[idx], p_b[idx]
    diagonal = np.stack([0.5 + 0.5 * (1 - p_a) * (1 - p_b), 0.5 * (1 - p_a) * p_b,
                         0.5 * p_a * (1 - p_b), 0.5 * p_a * p_b], axis=1)
    assert np.abs(rhos.diagonal(axis1=1, axis2=2).real - diagonal).max() < 1e-9
    assert np.abs(np.abs(rhos[:, 0, 3]) - 0.5 * np.sqrt(p_a * p_b)).max() < 1e-9


@settings(max_examples=10, deadline=None)
@given(lam_a=st.floats(0.01, 20.0), lam_b=st.floats(0.01, 20.0),
       delta_a=st.floats(0.0, 5.0), delta_b=st.floats(0.0, 5.0),
       t_max=st.floats(0.1, 50.0), seed=st.integers(0, 2 ** 32 - 1))
def test_propagate_matches_rk4_oracle(lam_a, lam_b, delta_a, delta_b, t_max, seed):
    # RK4 resolves the fastest scale of f, 1/|lam - i delta|, with 5 steps;
    # its own error then stays below 2e-8 at the corners of the ranges.  The
    # general-state oracle's channel solution matches it from any initial
    # state, and each atom's excited population scales by the closed-form p
    r_a, r_b = (lam_a, delta_a), (lam_b, delta_b)
    rho0 = random_density(np.random.default_rng(seed), 4)
    times, p_a, p_b = _populations(r_a, r_b, t_max=t_max, dt=t_max / 20)
    rate = max(abs(complex(*r)) for r in (r_a, r_b))
    rhos = rk4_states(rho0, r_a, r_b, times, max_step=min(0.02, 0.2 / rate))
    assert np.abs(channel_states(rho0, r_a, r_b, times) - rhos).max() < 1e-7
    for n, p in ((N_A, p_a), (N_B, p_b)):
        excited = np.trace(n @ rhos, axis1=1, axis2=2).real
        assert np.abs(excited - p * excited[0]).max() < 1e-7


def test_propagate_preserves_trace_and_hermiticity(preset_run):
    # the oracle's exact states on the preset grid are unit-trace and
    # Hermitian, and their diagonals are the closed-form populations
    traj, _ = preset_run("fig1a_d0")
    rhos = channel_states(bell_rho(), *reservoirs(ew.PRESETS["fig1a_d0"]), traj.times)
    assert np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0).max() < 1e-6
    assert np.abs(rhos - rhos.conj().transpose(0, 2, 1)).max() < 1e-8
    assert np.abs(rhos[:, 3, 3].real - 0.5 * traj.p_a * traj.p_b).max() < 1e-15
    assert np.abs(rhos[:, 2, 2].real - 0.5 * traj.p_a * (1 - traj.p_b)).max() < 1e-15


def test_propagate_product_states_stay_product():
    # the two dissipators act on disjoint factors, so |10><10| stays the
    # product of A's decayed state diag(1 - p_A, p_A) and B's ground state
    r_a, r_b = (0.1, 1.2), (5.0, 0.0)
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[2, 2] = 1.0
    times, p_a, _ = _populations(r_a, r_b, t_max=20.0, dt=1e-2)
    for t_probe in (1.0, 5.0, 20.0):
        idx = int(round(t_probe / 1e-2))
        rho = channel_states(rho0, r_a, r_b, times[idx])[0]
        rho_a = partial_trace(rho, "A")
        rho_b = partial_trace(rho, "B")
        assert np.abs(rho - np.kron(rho_a, rho_b)).max() < 1e-6
        assert np.abs(rho_a - np.diag([1.0 - p_a[idx], p_a[idx]])).max() < 1e-12


def test_propagate_swap_symmetry():
    # swapping the reservoirs swaps the populations, and the concurrence with them
    r_a, r_b = (0.1, 0.0), (5.0, 2.0)
    _, fwd_a, fwd_b = _populations(r_a, r_b, t_max=2.0, dt=1e-2)
    _, rev_a, rev_b = _populations(r_b, r_a, t_max=2.0, dt=1e-2)
    assert np.array_equal(fwd_a, rev_b) and np.array_equal(fwd_b, rev_a)
    assert np.abs(ew.concurrence(fwd_a, fwd_b) - ew.concurrence(rev_a, rev_b)).max() < 1e-15


def test_propagate_step_halving_leaves_mu_unchanged(preset_run):
    # halving the step from 1e-2 to 5e-3 moves mu by < 1e-5 everywhere
    for preset_id in ("fig1a_d0", "fig1a_d12", "fig1a_d16"):
        traj, _ = preset_run(preset_id)
        cfg = ew.PRESETS[preset_id]
        fine, _ = run_scenario(dataclasses.replace(cfg, dt=cfg.dt / 2, sample_every=2))
        assert np.allclose(fine.times, traj.times)
        assert np.abs(traj.mu - fine.mu).max() < 1e-5


def test_propagate_sampling_stride():
    times = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=1.0, dt=1e-2,
                           sample_every=10).sample_times()
    assert len(times) == 11
    assert np.allclose(np.diff(times), 0.1)


def test_propagate_coarse_long_grid_stays_physical():
    # a step that made RK4 diverge: the closed form stays physical
    r = (5.0, 0.0)
    times, p_a, _ = _populations(r, r, t_max=2000.0, dt=10.0)
    assert len(times) == 201
    assert np.all((p_a >= 0.0) & (p_a <= 1.0))
    rhos = channel_states(bell_rho(), r, r, times)
    assert np.abs(np.trace(rhos, axis1=1, axis2=2) - 1.0).max() < 1e-12
    assert np.linalg.eigvalsh(rhos).min() > -1e-12


def test_propagate_rejects_unphysical_population(monkeypatch):
    # a population pushed past 1 from t = 0.3 on is named at its first sample
    real_population = ew.scenario.excited_population

    def broken(r, t):
        return real_population(r, t) + np.where(t >= 0.3 - 1e-12, 0.5, 0.0)

    monkeypatch.setattr(ew.scenario, "excited_population", broken)
    cfg = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=1.0, dt=0.1)
    with pytest.raises(NotDensityMatrix, match=r"p_a = .* outside \[0, 1\] at sample 3 \(t = 0.3\)"):
        run_scenario(cfg)


def test_excited_population_is_a_decay_in_the_unit_interval():
    # p = exp(-2 Re integral f) stays in [0, 1]: the accumulated decay is a
    # spectral average of (1 - cos) terms, non-negative even while Re f < 0
    t = np.linspace(0.0, 50.0, 5001)
    for r in (one_reservoir(0.01, 5.0), one_reservoir(0.1, 1.6), one_reservoir(20.0)):
        p = excited_population(r, t)
        assert p[0] == 1.0 and np.all((p >= 0.0) & (p <= 1.0))


def test_propagate_validates_arguments():
    for key, grid in (("t_max", dict(t_max=0.0)), ("dt", dict(t_max=1.0, dt=-1e-2)),
                      ("sample_every", dict(t_max=1.0, sample_every=0))):
        with pytest.raises(ValidationError, match=key):
            ScenarioConfig(lambda_a=1.0, lambda_b=1.0, **grid)


@pytest.mark.parametrize("t_max,dt,sample_every", [
    (2.0, 3.0, 1),     # one step would overshoot t_max
    (1.0, 3.0, 1),     # no step fits
    (1.0, 0.3, 1),     # the grid would stop at 0.9
    (0.5, 0.01, 30),   # the last sample would be 0.3
    (1.0, 1e-320, 1),  # t_max / dt overflows: no float counts the samples
])
def test_propagate_rejects_grid_missing_t_max(t_max, dt, sample_every):
    # the config itself holds the grid rule, so no run is ever off its grid
    with pytest.raises(ValidationError, match="t_max"):
        ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=t_max, dt=dt, sample_every=sample_every)


def test_propagate_grid_lands_on_t_max():
    traj, _ = run_scenario(ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=0.7, dt=0.1))
    assert len(traj.times) == 8 and traj.times[-1] == pytest.approx(0.7, abs=1e-15)
    grid = ScenarioConfig(lambda_a=1.0, lambda_b=1.0, t_max=0.6, dt=0.01, sample_every=30)
    assert np.allclose(grid.sample_times(), [0.0, 0.3, 0.6], atol=1e-15)

