from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from consensus_lab import (GraphSequence, MatrixSequence, NegativeWeight, VacuousBound,
                           doubly_stochastic_rate_factor, engine, random_rooted_graph,
                           rate_quotient, regular_tree_graph, uniform_adjoint,
                           vector_contraction_certificate, verify_compliance,
                           weighted_variance)
from consensus_lab import lyapunov
from consensus_lab.certificates import Certificates, CheckBlock
from consensus_lab.engine import DECREMENT_FLOOR
from consensus_lab.lyapunov import (_row_slots, _row_sums, contraction_drop, decrement_series,
                                    geometric_envelope, squared_spread)
from consensus_lab.weights import _lengths
from oracles import (averaging_identity_residual, operator_norm_sq, pairwise_decrement_sum,
                     product_convergence_records, weighted_variance_reference)


def triple_sum_oracle(a, x, nu):
    """Literal triple loop for (1/2) sum_i nu_i sum_{j,l} A_ij A_il (x_j - x_l)^2."""
    m = len(x)
    total = 0.0
    for i in range(m):
        acc = 0.0
        for j in range(m):
            for l in range(m):
                acc += a[i, j] * a[i, l] * (x[j] - x[l]) ** 2
        total += nu[i] * acc
    return 0.5 * total


def random_stochastic_matrix(rng, m):
    a = rng.random((m, m)) + 0.05
    return a / a.sum(axis=1, keepdims=True)


def phi(x, nu):
    """``(phi(x, nu), nu'x)`` of one scalar state vector, through the time-axis form."""
    values, centers = weighted_variance(np.asarray(x)[None, :, None], np.asarray(nu)[None])
    return values[0], centers[0, 0]


class TestWeightedVariance:
    def test_symmetric_two_point(self):
        assert phi(np.array([1.0, -1.0]), np.array([0.5, 0.5]))[0] == 1.0

    def test_consensus_state_zero(self):
        value, _ = phi(np.full(5, 3.7), np.full(5, 0.2))
        assert value == 0.0

    def test_hand_case(self):
        value, center = phi(np.array([3.0, 0.0, 0.0]), np.full(3, 1 / 3))
        assert value == pytest.approx(2.0, abs=1e-14)
        assert center == pytest.approx(1.0, abs=1e-15)

    def test_negative_weight_guard(self):
        with pytest.raises(NegativeWeight):
            phi(np.array([1.0, 2.0]), np.array([0.5, -0.5]))

    def test_agrees_with_centered_form(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            m = int(rng.integers(2, 13))
            x = rng.uniform(-8, 8, m)
            nu = rng.random(m)
            nu /= nu.sum()
            value, _ = phi(x, nu)
            centered = float(nu @ (x - nu @ x) ** 2)
            assert abs(value - centered) <= 1e-10 * max(1.0, x @ x)
            assert value >= 0.0


class TestExactDecrease:
    def test_identity_matrix_residual_zero(self):
        x = np.array([1.0, -2.0, 0.5])
        nu = np.array([0.2, 0.3, 0.5])
        assert averaging_identity_residual(np.eye(3), x, nu) == 0.0

    def test_half_ones_hand_case(self):
        a = np.full((2, 2), 0.5)
        x = np.array([1.0, -1.0])
        nu = np.array([0.5, 0.5])
        assert phi(a @ x, nu)[0] == 0.0
        assert phi(x, a.T @ nu)[0] == 1.0
        assert pairwise_decrement_sum(a, x, nu) == 1.0
        assert averaging_identity_residual(a, x, nu) == 0.0

    def test_random_instances_against_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            m = int(rng.integers(2, 13))
            a = random_stochastic_matrix(rng, m)
            x = rng.uniform(-5, 5, m)
            nu = rng.random(m)
            nu /= nu.sum()
            scale = max(1.0, float(x @ x))
            assert abs(averaging_identity_residual(a, x, nu)) <= 1e-10 * scale
            assert abs(pairwise_decrement_sum(a, x, nu) -
                       triple_sum_oracle(a, x, nu)) <= 1e-10 * scale


def exact_decrement(a, x, nu):
    """Exact rational ``(1/2) sum_i nu_i sum_{j,l} A_ij A_il ||x_j - x_l||^2`` of float inputs."""
    m = a.shape[0]
    xf = [[Fraction(v) for v in row] for row in x.reshape(m, -1).tolist()]
    sq = {(j, l): sum((p - q) ** 2 for p, q in zip(xf[j], xf[l]))
          for j in range(m) for l in range(j + 1, m)}
    total = Fraction(0)
    for i in range(m):
        row = [Fraction(v) for v in a[i].tolist()]
        total += Fraction(float(nu[i])) * sum(row[j] * row[l] * d for (j, l), d in sq.items())
    return total


def sparse_stochastic_matrix(rng, m):
    """Random row-stochastic matrix with zeros, positive on the diagonal and on a cycle."""
    a = rng.random((m, m)) * (rng.random((m, m)) < 0.6)
    idx = np.arange(m)
    a[idx, idx] += 0.05 + rng.random(m)
    a[idx, (idx + 1) % m] += 0.05 + rng.random(m)
    return a / a.sum(axis=1, keepdims=True)


class TestDecrementKernel:
    @pytest.mark.parametrize("n", [1, 3])
    def test_exact_oracle_near_consensus(self, n):
        # c + eps*u with |c| up to 1e3 and eps down to a few ulps of c (1e-30
        # at c = 0): the row shift keeps x_j - x_i exact, while the plain
        # centered form x_j - (Ax)_i is off by the rounding of (Ax)_i.
        rng = np.random.default_rng(4400 + n)
        cases = [(0.0, eps) for eps in (1.0, 1e-10, 1e-30)]
        cases += [(c, abs(c) * r) for c in (1.0, -37.5, 1e3) for r in (1.0, 1e-7, 1e-13, 1e-15)]
        for c, eps in cases:
            for m in (2, 3, 5, 8):
                a = sparse_stochastic_matrix(rng, m)
                nu = rng.random(m)
                nu /= nu.sum()
                u = rng.uniform(-1.0, 1.0, (m, n))
                u[0], u[1] = -1.0, 1.0
                x = c + eps * u
                exact = exact_decrement(a, x, nu)
                assert exact > 0
                got = pairwise_decrement_sum(a, x[:, 0] if n == 1 else x, nu)
                assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact, (c, eps, m)

    def test_vector_is_sum_of_coordinates(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m, n = int(rng.integers(2, 12)), int(rng.integers(2, 6))
            a = sparse_stochastic_matrix(rng, m)
            nu = rng.random(m)
            x = rng.uniform(-3, 3, (m, n))
            whole = pairwise_decrement_sum(a, x, nu)
            parts = sum(pairwise_decrement_sum(a, x[:, k], nu) for k in range(n))
            assert abs(whole - parts) <= 1e-12 * parts

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_spread_bit_equal_to_pairwise_max(self, n):
        rng = np.random.default_rng(90 + n)
        for _ in range(40):
            m = int(rng.integers(1, 40))
            x = (rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 8, size=n)
                 + rng.uniform(-1e3, 1e3, n))
            diff = x[:, None, :] - x[None, :, :]
            assert squared_spread(x[None])[0] == (diff * diff).sum(axis=-1).max()

    def test_series_on_periodic_sequence_against_oracle(self):
        rng = np.random.default_rng(12)
        mats = [sparse_stochastic_matrix(rng, 6) for _ in range(3)]
        seq = MatrixSequence.custom(mats)
        h = 40
        states = rng.uniform(-2, 2, (h + 1, 6, 2))
        pi = rng.random((h + 1, 6))
        series = decrement_series(seq, states, pi)
        assert series.shape == (h,)
        for t in range(h):
            want = float(exact_decrement(seq.matrix_at(t), states[t], pi[t + 1]))
            assert series[t] == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("h", [4, 40])
    def test_series_bit_equal_to_single_steps_over_period_six(self, period_six_sequence, h):
        rng = np.random.default_rng(6)
        seq = period_six_sequence(fail_at_3=True)
        states = rng.uniform(-2, 2, (h + 1, 3, 2))
        pi = rng.random((h + 1, 3))
        series = decrement_series(seq, states, pi)
        for t in range(h):
            assert series[t] == pairwise_decrement_sum(seq.matrix_at(t), states[t], pi[t + 1])


def decrement_records(decrement, spread_sq, drop):
    """The engine's decrement-bound records: ``drop * spread_sq <= D * slack + floor``."""
    return list(Certificates(CheckBlock("decrement-bound", drop * np.asarray(spread_sq),
                                        decrement, floor=DECREMENT_FLOOR)))


def step_decrement(a, x, pi_next, delta, beta, p_star):
    """``(D, spread_sq, lower bound, verdict)`` of one step, from the engine's functions."""
    value = pairwise_decrement_sum(a, x, pi_next)
    spread_sq = squared_spread(x[None, :, None])[0]
    rec, = decrement_records([value], [spread_sq], contraction_drop(delta, beta, p_star))
    return value, spread_sq, rec.lhs, rec.passed


def _decrement_cases():
    rng = np.random.default_rng(31)
    rooted = MatrixSequence.from_scheme(GraphSequence.random_rooted(96, 0.1, seed=5),
                                        "equal-neighbor")
    size = rooted.block_steps
    periodic = MatrixSequence.from_scheme(
        GraphSequence.periodic([random_rooted_graph(9, 0.3, rng) for _ in range(4)]),
        "equal-neighbor")
    static = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(8)),
                                        "quarter")
    return [("random-rooted", rooted, 2 * size + 3, 1), ("random-rooted", rooted, size, 2),
            ("periodic", periodic, 23, 2), ("static", static, 45, 2)]


@pytest.mark.parametrize("case", range(4))
def test_batched_decrement_bit_equal_to_per_step_kernel(case):
    """One kernel call per block (or per repeated matrix) gives each step's own bits."""
    _, seq, h, n = _decrement_cases()[case]
    rng = np.random.default_rng(case)
    states = rng.uniform(-2, 2, (h + 1, seq.m, n))
    pi = rng.random((h + 1, seq.m))
    pi /= pi.sum(axis=1, keepdims=True)
    series = decrement_series(seq, states, pi)
    want = np.array([pairwise_decrement_sum(seq.matrix_at(t), states[t], pi[t + 1])
                     for t in range(h)])
    assert series.tobytes() == want.tobytes()


# Coordinate counts of the plane kernels' reference checks: up to two
# coordinates the squared norms add in coordinate order, from three on in
# einsum's order, which the kernels must keep.
PLANE_NS = [1, 2, 3, 8, 12]


def test_row_sums_equal_reduceat_bit_for_bit():
    """Column adds over the slot layout give ``np.add.reduceat``'s bits on rows
    of 1 to 8 terms, signed zeros, infinities and their NaNs included."""
    rng = np.random.default_rng(80)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 5e-324, 1e16, -1e16])
    for widest in range(1, 9):
        lengths = rng.integers(1, widest + 1, 400)
        lengths[:2] = widest, 1
        starts = np.cumsum(lengths) - lengths
        terms = rng.standard_normal((3, lengths.sum())) * 10.0 ** rng.integers(-20, 20, (3, 1))
        special = rng.random(terms.shape) < 0.3
        terms[special] = rng.choice(specials, special.sum())
        index, pad = _row_slots(starts, lengths)
        assert (pad is None) == (lengths == widest).all()
        slots = terms[:, index]
        if pad is not None:
            np.copyto(slots, -0.0, where=pad)
        with np.errstate(invalid="ignore"):
            want = np.add.reduceat(terms, starts, axis=1)
            got = _row_sums(slots)
        assert got.tobytes() == want.tobytes()


def matrix_with_row_lengths(rng, lengths):
    """Row-stochastic matrix whose row ``i`` has ``lengths[i]`` nonzeros, its diagonal one."""
    m = len(lengths)
    a = np.zeros((m, m))
    for i, k in enumerate(lengths):
        others = rng.choice(np.delete(np.arange(m), i), k - 1, replace=False)
        a[i, np.append(others, i)] = rng.random(k) + 0.05
    return a / a.sum(axis=1, keepdims=True)


def _plane_kernel_cases(rng, m):
    """``(sequence, widest row)``: cycles of rows of 1 to 20 nonzeros, one
    width or mixed, and random-rooted blocks of narrow and of wide rows."""
    cases = []
    for widest in (1, 4, 8, 9, 20):
        mixed = [matrix_with_row_lengths(rng, rng.integers(1, widest + 1, m)) for _ in range(2)]
        uniform = matrix_with_row_lengths(rng, np.full(m, widest))
        cases.append(MatrixSequence.custom([*mixed, uniform]))
    for p in (0.02, 0.5):
        cases.append(MatrixSequence.from_scheme(GraphSequence.random_rooted(m, p, seed=m),
                                                "equal-neighbor"))
    return cases


@pytest.mark.parametrize("n", PLANE_NS)
def test_decrement_series_bit_equal_to_reference_kernel(n):
    """Slot-major column adds (rows of at most 8 nonzeros, padded or not) and
    ``reduceat`` (longer rows) give every step the reference kernel's bits."""
    rng = np.random.default_rng(70 + n)
    m, h = 24, 23
    widths = set()
    for seq in _plane_kernel_cases(rng, m):
        states = (rng.uniform(-1e3, 1e3, n)
                  + rng.uniform(-1, 1, (h + 1, m, n)) * 10.0 ** rng.integers(-12, 3, n))
        pi = rng.dirichlet(np.ones(m), h + 1)
        widths.update(int(_lengths(s[2], s[0].size).max()) for _, s in seq.supports(h, n))
        want = np.array([pairwise_decrement_sum(seq.matrix_at(t), states[t], pi[t + 1])
                         for t in range(h)])
        assert decrement_series(seq, states, pi).tobytes() == want.tobytes()
        with mock.patch.object(lyapunov, "_BLOCK_ENTRIES", 64):   # one block at a time
            assert decrement_series(seq, states, pi).tobytes() == want.tobytes()
    assert {1, 4, 8, 9, 20} <= widths


@pytest.mark.parametrize("n", PLANE_NS)
def test_weighted_variance_bit_equal_to_reference(n):
    rng = np.random.default_rng(60 + n)
    states = rng.uniform(-1e3, 1e3, n) + rng.standard_normal((31, 40, n)) * 1e-3
    states[3] = -0.0
    weights = rng.dirichlet(np.ones(40), 31)
    got, want = weighted_variance(states, weights), weighted_variance_reference(states, weights)
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


class TestStepDecrement:
    def test_consensus_state(self):
        a = np.full((3, 3), 1 / 3)
        value, spread_sq, _, passed = step_decrement(a, np.full(3, 2.0), np.full(3, 1 / 3),
                                                     delta=1 / 3, beta=1 / 3, p_star=1)
        assert value == 0.0
        assert spread_sq == 0.0
        assert passed

    def test_regular_tree_indicator(self):
        g = regular_tree_graph(3)
        a = MatrixSequence.from_scheme(GraphSequence.static(g), "quarter").matrix_at(0)
        x = np.zeros(8)
        x[3] = 1.0
        value, spread_sq, lower, passed = step_decrement(a, x, np.full(8, 0.125),
                                                         delta=0.125, beta=0.25, p_star=2)
        assert spread_sq == 1.0
        assert lower == pytest.approx(0.125 * 0.0625 / 8.0, abs=0)
        assert value >= lower
        assert passed

    def test_bound_verdicts(self):
        # (decrement, spread_sq) at drop 0.25: met exactly, missed, negative
        recs = decrement_records([0.25, 0.2, -1e-11], [1.0, 1.0, 0.0], 0.25)
        assert [r.lhs for r in recs] == [0.25, 0.25, 0.0]
        assert [r.passed for r in recs] == [True, False, False]

    def test_random_certified_cases(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            m = int(rng.integers(2, 10))
            a = random_stochastic_matrix(rng, m)
            x = rng.uniform(-4, 4, m)
            pi = rng.random(m)
            pi /= pi.sum()
            delta = float(pi.min())
            beta = float(a.min())
            assert step_decrement(a, x, pi, delta=delta, beta=beta, p_star=m - 1)[3]


def spread_bound(x, nu):
    """``(squared spread, centered weighted variance sum nu_i (x_i - nu'x)^2)``."""
    return squared_spread(x[None, :, None])[0], float(nu @ (x - nu @ x) ** 2)


class TestSpreadBound:
    def test_constant_vector(self):
        assert spread_bound(np.full(4, 1.5), np.full(4, 0.25)) == (0.0, 0.0)

    def test_hand_case(self):
        spread_sq, wvar = spread_bound(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert spread_sq == 1.0
        assert wvar == 0.25

    def test_random_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            m = int(rng.integers(2, 21))
            x = rng.uniform(-10, 10, m)
            nu = rng.random(m)
            nu /= nu.sum()
            spread_sq, wvar = spread_bound(x, nu)
            assert wvar <= spread_sq * (1 + 1e-9) + 1e-12


class TestRateQuotient:
    def test_regular_tree_value(self):
        assert rate_quotient(0.125, 0.25, 2) == 1.0 - 1.0 / 1024.0

    def test_vacuous_guard(self):
        with pytest.raises(VacuousBound):
            rate_quotient(500.0, 1.0, 1)

    @pytest.mark.parametrize("delta,r", [
        (4.0, 0.0),     # drop exactly 1: q = 0
        (8.0, 0.0),     # drop 2: q < 0
        (1e-17, 0.0),   # drop below half an ulp of 1: q rounds to 1
        (1.0, 1e12),    # tracked quotient at an absurd regularity constant
    ])
    def test_vacuous_guard_both_sides(self, delta, r):
        with pytest.raises(VacuousBound):
            contraction_drop(delta, 1.0, 1, r)
        with pytest.raises(VacuousBound):
            rate_quotient(delta, 1.0, 1, r)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_cubic_tree_drop_is_one_over_64_m_p_star(self, d):
        # beta = 1/4 and delta = 1/m, so delta*beta^2/(4 p*) = 1/(64 m p*) exactly;
        # 1 - q_step does not give those bits back for every p*
        m = 2 ** d
        result = engine.run(engine.RunConfig.from_json_dict({
            "m": m, "n": 1, "horizon": 2, "seed": 0, "mode": "unconstrained",
            "graph": {"kind": "static", "regular_tree_d": d},
            "weights": {"scheme": "quarter"}, "initial": {}}))
        beta, p_star = result.compliance.beta, result.compliance.p_star
        assert contraction_drop(result.adjoint.delta, beta, p_star) * 64 * m * p_star == 1.0

    def test_drop_is_the_coefficient(self):
        # r = 0 keeps the unconstrained bits; callers get the drop, not 1 - q
        assert contraction_drop(0.125, 0.25, 2) == 0.125 * 0.25 * 0.25 / (4.0 * 2)
        assert contraction_drop(0.125, 0.25, 2, 1.0) == 0.125 * 0.25 * 0.25 / (4.0 * 2 * 4.0)
        assert rate_quotient(0.5, 1.0, 1, 1.0) == 1.0 - 1.0 / 32.0
        assert contraction_drop(1e-15, 1.0, 1) == 1e-15 / 4.0


class TestContraction:
    def _run(self, d=3, horizon=120, seed=2):
        seq = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(d)),
                                         "quarter")
        aps = uniform_adjoint(seq, horizon)
        rng = np.random.default_rng(seed)
        m = 2 ** d
        states = np.empty((horizon + 1, m))
        states[0] = rng.uniform(-1, 1, m)
        for t in range(horizon):
            states[t + 1] = seq.matrix_at(t) @ states[t]
        return seq, aps, states

    def test_t_equals_k_is_tight(self):
        _, aps, states = self._run()
        block = vector_contraction_certificate(states[:, :, None], aps, beta=0.25,
                                               p_star=2, k=0)
        records = list(Certificates(block))
        first = records[0]
        assert first.t == 0 and first.lhs == first.rhs
        assert all(r.passed for r in records)

    def test_all_pass_both_ks(self):
        _, aps, states = self._run()
        for k in (0, 60):
            block = vector_contraction_certificate(states[:, :, None], aps, 0.25, 2, k)
            assert block.t0 == block.k == k and block.passed.all()

    def test_equal_initial_states_stay_zero(self):
        seq = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(2)),
                                         "quarter")
        aps = uniform_adjoint(seq, 10)
        states = np.full((11, 4, 3), 2.5)
        records = list(Certificates(vector_contraction_certificate(states, aps, 0.25, 1, 0)))
        assert all(r.lhs == 0.0 and r.rhs == 0.0 for r in records)
        assert all(r.passed for r in records)


class TestGeometricEnvelope:
    def test_equals_python_power_comprehension(self):
        """Bit for bit, with ``1 - q`` log-uniform in ``[1e-8, 0.1]`` and bases of all sizes."""
        rng = np.random.default_rng(12)
        for _ in range(200):
            q = 1.0 - 10.0 ** rng.uniform(-8.0, -1.0)
            steps = int(rng.integers(0, 600))
            base = float(10.0 ** rng.uniform(-300, 300))
            want = np.array([q ** s * base for s in range(steps)])
            got = geometric_envelope(q, steps, base)
            assert got.shape == (steps,) and got.tobytes() == want.tobytes()

    def test_numpy_scalar_base(self):
        base = np.float64(0.3)
        got = geometric_envelope(1.0 - 2.4e-7, 500, base)
        assert got.tobytes() == np.array([(1.0 - 2.4e-7) ** s * base
                                          for s in range(500)]).tobytes()


class TestBaselineFactor:
    def test_regular_tree_step(self):
        assert doubly_stochastic_rate_factor(0.25, 8, 1) == 1.0 - 1.0 / 512.0

    def test_zero_steps(self):
        assert doubly_stochastic_rate_factor(0.25, 8, 0) == 1.0

    def test_single_agent(self):
        # a one-agent run is doubly stochastic, and its report carries this baseline
        assert doubly_stochastic_rate_factor(1.0, 1, 1) == 0.5

    def test_crossover_with_new_quotient(self):
        # the tree-based quotient beats the baseline once m > 8p*
        for d, better in ((3, False), (6, True)):
            m = 2 ** d
            seq = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(d)),
                                             "quarter")
            p_star = verify_compliance(seq, 1).p_star
            q_new = 1.0 - 1.0 / (64 * m * p_star)
            q_base = doubly_stochastic_rate_factor(0.25, m, 1)
            assert (q_new < q_base) == better


class TestOperatorNormProducts:
    def test_norm_against_power_iteration_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            mat = rng.normal(size=(int(rng.integers(2, 9)),) * 2)
            gram = mat.T @ mat
            v = rng.normal(size=gram.shape[0])
            for _ in range(2000):
                v = gram @ v
                v /= np.linalg.norm(v)
            oracle = float(v @ gram @ v)
            assert operator_norm_sq(mat) == pytest.approx(oracle, rel=1e-9)

    def test_constant_positive_chain_limit(self):
        a = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        seq = MatrixSequence.custom([a])
        aps = uniform_adjoint(seq, 300)
        recs = product_convergence_records(seq, aps, beta=0.25, p_star=1, k=0, t_max=260)
        assert all(r.passed for r in recs)
        assert recs[-1].lhs <= 1e-12  # product collapses to the rank-one limit

    def test_single_factor_case(self):
        seq = MatrixSequence.from_scheme(GraphSequence.static(regular_tree_graph(3)),
                                         "quarter")
        aps = uniform_adjoint(seq, 5)
        rec = product_convergence_records(seq, aps, 0.25, 2, k=0, t_max=0)[0]
        a = seq.matrix_at(0)
        expected = operator_norm_sq(a - np.outer(np.ones(8), aps.vectors[0]))
        assert rec.lhs == expected
        assert rec.passed
