import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from spheremarket.geometry import UnitVector3
from spheremarket.kolmogorov_check import (
    DEFAULT_TOL,
    AgreementTable,
    _phase1_simplex,
    atom_agreement,
    atom_signs,
    bell_facets_n3,
    facets_feasible,
    joint_feasibility,
    pair_index,
    pair_indices,
    random_agreement_table,
    sphere_bell_scan,
    table_from_atom_weights,
)
from spheremarket.sphere_model import (
    DeltaRho,
    UniformRho,
    agreement_table,
    hidden_state_agreement_table,
)


def table3(q01, q02, q12):
    return AgreementTable.from_pair_values(3, [q01, q02, q12])


def linprog_feasible(table):
    """Independent oracle: scipy LP over the 2^n atoms."""
    n = table.n
    signs = atom_signs(n)
    rows = [(signs[:, i] == signs[:, j]).astype(float) for i, j in pair_indices(n)]
    rows.append(np.ones(2 ** n))
    b = np.append(table.pair_values(), 1.0)
    res = linprog(c=np.zeros(2 ** n), A_eq=np.array(rows), b_eq=b,
                  bounds=(0, None), method="highs")
    return res.status == 0


class TestAgreementTableType:
    def test_rejects_asymmetric(self):
        q = np.eye(3)
        q[0, 1] = 0.4
        with pytest.raises(ValueError):
            AgreementTable(q)

    def test_rejects_bad_diagonal(self):
        q = np.full((3, 3), 0.5)
        with pytest.raises(ValueError):
            AgreementTable(q)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            table3(1.2, 0.5, 0.5)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            AgreementTable(np.eye(1))

    def test_round_trip(self):
        t = table3(0.1, 0.2, 0.3)
        assert AgreementTable.from_dict(t.to_dict()) == t


class TestJointFeasibility:
    def test_all_quarter_infeasible(self):
        res = joint_feasibility(table3(0.25, 0.25, 0.25))
        assert not res.feasible
        assert res.certificate.slack < 0
        assert not linprog_feasible(table3(0.25, 0.25, 0.25))

    def test_all_quarter_certificate_is_sum_facet(self):
        res = joint_feasibility(table3(0.25, 0.25, 0.25))
        cert = res.certificate
        assert np.allclose(cert.coefficients, [1.0, 1.0, 1.0], atol=1e-9)
        assert abs(cert.bound - 1.0) < 1e-9
        assert abs(cert.slack + 0.25) < 1e-9

    def test_perfect_correlation_feasible(self):
        res = joint_feasibility(table3(1.0, 1.0, 1.0))
        assert res.feasible
        # weights reproduce the table and concentrate on all-equal atoms
        assert res.max_residual < 1e-9
        signs = atom_signs(3)
        all_equal = (signs.sum(axis=1) % 3) == 0
        assert res.atom_weights[~all_equal].sum() < 1e-9

    def test_classical_hidden_variable_model_feasible(self):
        # hidden state lambda ~ U[0,1); three fixed threshold observables
        rng = np.random.default_rng(17)
        lam = rng.random(10 ** 5)
        outcomes = np.stack([lam < 0.3, lam < 0.6, lam > 0.45], axis=1)
        q = np.eye(3)
        for i, j in itertools.combinations(range(3), 2):
            q[i, j] = q[j, i] = float(np.mean(outcomes[:, i] == outcomes[:, j]))
        res = joint_feasibility(AgreementTable(q))
        assert res.feasible

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_deterministic_mixtures_feasible_and_reproduced(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(10):
            w = rng.random(2 ** n)
            table = table_from_atom_weights(n, w)
            res = joint_feasibility(table)
            assert res.feasible
            assert res.max_residual < 1e-9
            assert res.atom_weights.min() >= 0.0
            assert abs(res.atom_weights.sum() - 1.0) < 1e-9

    def test_agrees_with_scipy_on_random_tables(self):
        rng = np.random.default_rng(7)
        for n in (3, 4):
            for _ in range(50):
                table = random_agreement_table(n, rng)
                assert joint_feasibility(table).feasible == linprog_feasible(table)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            table = random_agreement_table(4, rng)
            verdict = joint_feasibility(table).feasible
            perm = rng.permutation(4)
            assert joint_feasibility(table.permuted(perm)).feasible == verdict

    def test_certificate_separates(self):
        rng = np.random.default_rng(31)
        seen = 0
        while seen < 20:
            table = random_agreement_table(3, rng)
            res = joint_feasibility(table)
            if res.feasible:
                continue
            seen += 1
            cert = res.certificate
            assert cert.slack < -1e-9
            assert abs(cert.evaluate(table) - cert.slack) < 1e-9
            # every classical mixture satisfies the inequality
            for _ in range(20):
                w = rng.random(8)
                classical = table_from_atom_weights(3, w)
                assert cert.evaluate(classical) >= -1e-9

    def test_size_limit(self):
        with pytest.raises(ValueError):
            joint_feasibility(AgreementTable(np.eye(13)))


class TestBellFacets:
    def test_all_quarter_sum_facet_violated(self):
        checks = bell_facets_n3(table3(0.25, 0.25, 0.25))
        by_name = {c.name: c for c in checks}
        assert abs(by_name["sum_lower"].slack + 0.25) < 1e-12
        assert by_name["sum_lower"].violated
        assert not any(c.violated for c in checks if c.name != "sum_lower")

    def test_all_ones_satisfied(self):
        checks = bell_facets_n3(table3(1.0, 1.0, 1.0))
        assert all(c.slack >= 0 for c in checks)

    def test_intransitive_table_violated(self):
        # q01 = q12 = 1 with q02 = 0 is a logical impossibility
        checks = bell_facets_n3(table3(1.0, 0.0, 1.0))
        assert any(c.violated for c in checks)
        worst = min(c.slack for c in checks)
        assert abs(worst + 1.0) < 1e-12

    def test_requires_three_observables(self):
        with pytest.raises(ValueError):
            bell_facets_n3(AgreementTable(np.eye(4)))

    def test_agrees_with_lp_on_random_tables(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            table = random_agreement_table(3, rng)
            assert facets_feasible(bell_facets_n3(table)) == joint_feasibility(table).feasible


class TestSphereBellScan:
    def test_uniform_sixty_degrees_infeasible(self):
        scan = sphere_bell_scan(UniformRho(), math.pi / 3)
        vals = scan.table.pair_values()
        assert np.allclose(vals, [0.75, 0.25, 0.75], atol=1e-12)
        assert not scan.feasible
        assert scan.mode == "sequential"

    def test_uniform_right_angle_boundary_feasible(self):
        scan = sphere_bell_scan(UniformRho(), math.pi / 2)
        assert np.allclose(scan.table.pair_values(), [0.5, 0.0, 0.5], atol=1e-12)
        assert scan.feasible

    def test_uniform_infeasible_below_right_angle(self):
        for theta in np.linspace(0.1, math.pi / 2 - 0.05, 7):
            assert not sphere_bell_scan(UniformRho(), float(theta)).feasible

    def test_delta_uses_hidden_state_and_is_feasible(self):
        scan = sphere_bell_scan(DeltaRho(0.0), math.pi / 3, n_samples=10 ** 5, seed=3)
        assert scan.mode == "hidden_state"
        assert scan.feasible

    def test_sequential_mode_for_delta_is_contextual(self):
        # eigenstate-prepared delta statistics are 0/1 and intransitive
        scan = sphere_bell_scan(DeltaRho(0.0), math.pi / 3, mode="sequential")
        assert not scan.feasible

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            sphere_bell_scan(UniformRho(), 0.0)
        with pytest.raises(ValueError):
            sphere_bell_scan(UniformRho(), math.pi)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            sphere_bell_scan(UniformRho(), 1.0, mode="psychic")

    def test_report_shape(self):
        d = sphere_bell_scan(UniformRho(), math.pi / 3).to_dict()
        assert d["verdict"] == "infeasible"
        assert len(d["facets"]) == 4
        assert "certificate" in d["feasibility"]


class TestRandomTables:
    def test_entries_valid(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            t = random_agreement_table(5, rng)
            assert t.q.min() >= 0.0 and t.q.max() <= 1.0
            assert np.array_equal(t.q, t.q.T)


class TestPairIndex:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_lexicographic_pairs(self, n):
        i, j = pair_index(n)
        assert list(zip(i.tolist(), j.tolist())) == list(itertools.combinations(range(n), 2))
        assert pair_indices(n) == list(itertools.combinations(range(n), 2))
        assert not i.flags.writeable and not j.flags.writeable

    @pytest.mark.parametrize("n", range(2, 9))
    def test_atom_agreement_matches_signs(self, n):
        signs = atom_signs(n)
        expected = [signs[:, i] == signs[:, j] for i, j in pair_indices(n)]
        assert np.array_equal(atom_agreement(n), expected)
        assert (atom_agreement(n).sum(axis=1) == 2 ** (n - 1)).all()

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complement_atoms_share_a_column(self, n):
        # joint_feasibility solves on the lower half of the atoms because of this
        agree = atom_agreement(n)
        twins = np.arange(2 ** n) ^ (2 ** n - 1)
        assert np.array_equal(agree, agree[:, twins])

    def test_atom_weight_tables_match_masked_sums(self):
        rng = np.random.default_rng(8)
        for n in range(2, 11):
            w = rng.random(2 ** n)
            signs, w_norm = atom_signs(n), w / w.sum()
            expected = [w_norm[signs[:, i] == signs[:, j]].sum() for i, j in pair_indices(n)]
            assert table_from_atom_weights(n, w).pair_values().tobytes() == np.array(expected).tobytes()

    def test_pair_values_round_trip(self):
        rng = np.random.default_rng(4)
        for n in range(2, 9):
            vals = rng.random(n * (n - 1) // 2)
            table = AgreementTable.from_pair_values(n, vals)
            assert np.array_equal(table.pair_values(), vals)
            assert all(table.q[i, j] == table.q[j, i] == v
                       for (i, j), v in zip(pair_indices(n), vals))


# SHA-256 of the LP output bytes (atom weights, or certificate coefficients,
# bound and slack), recorded before the simplex and the pair gathers were
# vectorized and reproduced bit for bit since.  The coarse 2000-sample
# hidden-state tables at n = 8, 9 hit ratio-test ties, so they also pin the
# tie rule.
LP_PINS = (
    ("hidden_uniform", 3, True, "b2b7298c2242cfa7e6d38d9429b4502fef3256a4f626d55edfdb8d4bc0e172b0"),
    ("hidden_uniform", 4, True, "81e368af723d37f5ff459fa33ecd662d676065c4b87f52099673a696b929db80"),
    ("hidden_uniform", 5, True, "f475708ba6dc69ff8ba8217f7b8675cb71738b739ec087277b24028e8db70068"),
    ("hidden_uniform", 6, True, "4ead884e14636cc2063b2338991daf28390dfaa3715b56afeb2d7b3cd7b85aec"),
    ("hidden_uniform", 7, True, "e76b12858ee9664339c9d8384e2ebee8b9bc0d1dcb299a6350a2a74228ca8532"),
    ("hidden_uniform", 8, True, "fa57cc38561c051a6d2ded1b98e7f8fd981bfc3a78ecc01fcbef3cc33b1c6b42"),
    ("hidden_uniform", 9, True, "45521e7231f5192a85a894275157d56b846c775c05382f91845cfea92a6d89a1"),
    ("hidden_delta", 3, True, "a435777277b7ed926f8f2f7f458c960105f503b7a327f203321d2e81f2b0b22b"),
    ("hidden_delta", 5, True, "904c588613df45016d0a0f8081ed4c4cd2c06ae9fbe4b4de38f845aec8a73751"),
    ("hidden_delta", 7, True, "35ace9a73f5abaf561c40ab2fa7768914664f88eef7bc2fba8c3d3e733fd304a"),
    ("random", 3, False, "da55e87b2be7888f6a69cc034ef83f8d96faae90d278e583c19b3660494dde03"),
    ("random", 4, False, "8e2bf6f6e209893a600cb0510da91ef1e66b768850d2d58a99eea13ecf7c8b78"),
    ("random", 5, False, "4499c63a4a4d71140174bb2c5e85f03eb3f272b39ea0d658d945119f06b31019"),
    ("random", 6, False, "c9dba9258cdf5eaca22dc4fe9a40c509a181b0d5d3f1b8cf1843287781281877"),
    ("random", 7, False, "64389c1c5efadc4f86322f8b85181c2695ddb5819e03b55472e67ed9629c2f87"),
    ("random", 8, False, "d10d64d6e15170bfe45995765b669fdae0af7ec7f810a1cfdce804680d07c019"),
    ("random", 9, False, "b9d1737ae210caa42a386c481475f17c80b94c70f8b0456e8955ba6f8c7bb20e"),
    ("sequential", 5, False, "a7d4c19c4a19d6402cb4cbfa8750e33ce19db744903e0e71012df4d0de6fcfb4"),
    ("sequential", 7, False, "989cf0295b053057cf6d6a57b69b2c63c60313958e1a357ae7add16f6c7836b3"),
    ("sequential", 9, False, "335a8da7886817372a481a2e67192248386eafaacfc3cc6e7f47f31572f02248"),
    ("mixture", 4, True, "d14afee876b2596c0a55a222109c2409eac9f027aaab9654129d11cfe8ae5e7a"),
    ("mixture", 6, True, "576985d24c5b013e3942034aced73a25eb2b41024f135c7e58d6fd4aa9cd3472"),
)


def lp_table(kind: str, n: int) -> AgreementTable:
    rng = np.random.default_rng(1000 + n)
    if kind == "random":
        return random_agreement_table(n, rng)
    if kind == "mixture":
        return table_from_atom_weights(n, rng.random(2 ** n))
    dirs = [UnitVector3.normalized(*rng.normal(size=3)) for _ in range(n)]
    if kind == "sequential":
        return agreement_table(UniformRho(), dirs)
    rho = UniformRho() if kind == "hidden_uniform" else DeltaRho(0.25)
    return hidden_state_agreement_table(rho, dirs, n_samples=2_000, seed=n)


def lp_digest(res) -> str:
    if res.feasible:
        parts = [res.atom_weights]
    else:
        c = res.certificate
        parts = [c.coefficients, np.float64(c.bound), np.float64(c.slack)]
    return hashlib.sha256(b"".join(np.asarray(p).tobytes() for p in parts)).hexdigest()


@pytest.mark.parametrize("kind,n,feasible,digest", LP_PINS,
                         ids=[f"{kind}-n{n}" for kind, n, *_ in LP_PINS])
def test_lp_outputs_pinned(kind, n, feasible, digest, recorded_versions_differ):
    res = joint_feasibility(lp_table(kind, n))
    assert res.feasible == feasible
    if res.feasible:
        assert res.max_residual < 1e-9
    else:
        assert res.certificate.slack < -DEFAULT_TOL
    if recorded_versions_differ:
        pytest.skip(recorded_versions_differ)
    assert lp_digest(res) == digest


def full_width_feasibility(table: AgreementTable):
    """joint_feasibility's outputs from a solve over all 2^n atom columns."""
    n = table.n
    A = np.vstack([atom_agreement(n), np.ones(2 ** n)])
    b = np.append(table.pair_values(), 1.0)
    optimum, w, y = _phase1_simplex(A, b, DEFAULT_TOL)
    if optimum <= DEFAULT_TOL:
        w = np.maximum(w, 0.0)
        return True, w.tobytes(), float(np.max(np.abs(A @ w - b)))
    return False, (-y[:-1]).tobytes(), float(y[-1]), -float(y @ b)


def hypothesis_table(kind: str, n: int, seed: int) -> AgreementTable:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_agreement_table(n, rng)
    if kind == "mixture":  # sparse weights: degenerate vertices
        return table_from_atom_weights(n, rng.random(2 ** n) * (rng.random(2 ** n) < 0.3)
                                       + (np.arange(2 ** n) == 0))
    dirs = [UnitVector3.normalized(*rng.normal(size=3)) for _ in range(n)]
    if kind == "sequential":
        return agreement_table(UniformRho(), dirs)
    return hidden_state_agreement_table(UniformRho(), dirs, n_samples=500, seed=seed)


@given(st.sampled_from(["random", "hidden_state", "sequential", "mixture"]),
       st.integers(3, 8), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_half_width_solve_matches_full_width(kind, n, seed):
    table = hypothesis_table(kind, n, seed)
    res = joint_feasibility(table)
    if res.feasible:
        got = (True, res.atom_weights.tobytes(), res.max_residual)
        assert not res.atom_weights[2 ** (n - 1):].any()
    else:
        c = res.certificate
        got = (False, c.coefficients.tobytes(), c.bound, c.slack)
    want = full_width_feasibility(table)
    assert got[:2] == want[:2]
    assert np.array(got[2:]).tobytes() == np.array(want[2:]).tobytes()


def masked_update_simplex(A: np.ndarray, b: np.ndarray, tol: float):
    """_phase1_simplex with the rank-1 update that writes only the rows whose
    pivot-column entry is nonzero (numpy's ``where=``): the reference for the
    single full-matrix subtract."""
    m, ncols = A.shape
    T = np.zeros((m + 1, ncols + m + 1))
    T[:m, :ncols] = A
    T[:m, ncols:ncols + m] = np.eye(m)
    T[:m, -1] = b
    basis = np.arange(ncols, ncols + m)
    T[m, :ncols] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    red, rhs = T[m, :-1], T[:m, -1]
    for _ in range(200 * (ncols + m)):
        entering = int((red < -tol).argmax())
        if not red[entering] < -tol:
            break
        col = T[:m, entering]
        rows = np.flatnonzero(col > tol)
        best_ratio, leaving = math.inf, -1
        for i, ratio in zip(rows.tolist(), (rhs[rows] / col[rows]).tolist()):
            if ratio < best_ratio - tol or (
                abs(ratio - best_ratio) <= tol
                and (leaving == -1 or basis[i] < basis[leaving])
            ):
                best_ratio, leaving = ratio, i
        if leaving == -1:
            raise RuntimeError("phase-1 objective unbounded; should not happen")
        T[leaving] /= T[leaving, entering]
        factor = T[:, entering, None].copy()
        factor[leaving] = 0.0
        np.subtract(T, factor * T[leaving], out=T, where=factor != 0.0)
        basis[leaving] = entering
    else:
        raise RuntimeError("simplex iteration limit exceeded")
    optimum = -T[m, -1]
    x = np.zeros(ncols)
    structural = basis < ncols
    x[basis[structural]] = rhs[structural]
    y = 1.0 - T[m, ncols:ncols + m]
    return optimum, x, y


def solve_outcome(solve, A, b, tol):
    """Bytes of (optimum, x, y), or the error raised: at tol 0 a rounding
    can leave an entering column with no positive entry."""
    try:
        return [np.asarray(a).tobytes() for a in solve(A, b, tol)]
    except RuntimeError as err:
        return str(err)


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
@pytest.mark.parametrize("kind", ["binary", "gaussian"])
def test_pivot_update_matches_masked_update(kind, tol):
    rng = np.random.default_rng(61)
    for _ in range(60):
        m, ncols = rng.integers(2, 9), rng.integers(2, 25)
        if kind == "binary":  # zeros of both signs, which the update must keep
            A = np.where(rng.random((m, ncols)) < 0.5, 1.0,
                         np.where(rng.random((m, ncols)) < 0.5, 0.0, -0.0))
        else:
            A = rng.normal(size=(m, ncols))
        # half the right-hand sides are reachable, which makes degenerate vertices
        b = np.abs(A @ rng.random(ncols) if rng.random() < 0.5 else rng.random(m))
        b[rng.random(m) < 0.3] = -0.0
        assert (solve_outcome(_phase1_simplex, A, b, tol)
                == solve_outcome(masked_update_simplex, A, b, tol))
