import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from spheremarket import kolmogorov_check
from spheremarket.config import FieldError
from spheremarket.geometry import UnitVector3
from spheremarket.kolmogorov_check import (
    DEFAULT_TOL,
    MAX_OBSERVABLES,
    AgreementTable,
    _atom_minimum,
    _entering,
    _phase1_simplex,
    atom_agreement,
    bell_facets_n3,
    facets_feasible,
    joint_feasibility,
    pair_index,
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


def pairs(n: int) -> list:
    """The pairs i < j of n observables, in lexicographic order."""
    return list(itertools.combinations(range(n), 2))


def atom_bits(n: int) -> np.ndarray:
    """(2^n, n) deterministic assignments: atom a gives observable i the bit
    (a >> i) & 1."""
    return np.array([[(a >> i) & 1 for i in range(n)] for a in range(2 ** n)])


def table3(q01, q02, q12):
    return AgreementTable(3, [q01, q02, q12])


def slacks(scan) -> dict:
    """The facet slacks of a scan, by facet name."""
    return {f.name: f.slack for f in scan.facets}


def exact_atom_sums(coefficients: np.ndarray, n: int) -> np.ndarray:
    """coefficients . a for each of the 2^n atom columns a, in exact
    rationals (object array of Fractions)."""
    exact = np.array([Fraction(c) for c in coefficients.tolist()], dtype=object)
    return atom_agreement(n).T.astype(object) @ exact


def certificate_holds_exactly(cert) -> bool:
    """Every atom, hence every classical table, satisfies the inequality in
    exact arithmetic."""
    return min(exact_atom_sums(cert.coefficients, cert.n)) >= Fraction(cert.bound)


def linprog_feasible(table):
    """Independent oracle: scipy LP over the 2^n atoms."""
    n = table.n
    signs = atom_bits(n)
    rows = [(signs[:, i] == signs[:, j]).astype(float) for i, j in pairs(n)]
    rows.append(np.ones(2 ** n))
    b = np.append(table.pair_values(), 1.0)
    res = linprog(c=np.zeros(2 ** n), A_eq=np.array(rows), b_eq=b,
                  bounds=(0, None), method="highs")
    return res.status == 0


class TestAgreementTableType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            table3(1.2, 0.5, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match=r"entries must lie in \[0, 1\]"):
            table3(0.5, bad, 0.5)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError, match="need at least 2 observables"):
            AgreementTable(1, [])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 3 pair values for n=3"):
            AgreementTable(3, [0.5, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_atom_weights_reject_non_finite(self, bad):
        w = np.ones(8)
        w[3] = bad
        with pytest.raises(ValueError, match="atom weights must be finite"):
            table_from_atom_weights(3, w)

    def test_clips_rounding_dust_and_derives_q(self):
        t = table3(-1e-13, 0.5, 1.0 + 1e-13)
        assert t.pair_values().tolist() == [0.0, 0.5, 1.0]
        assert t.q.tolist() == [[1.0, 0.0, 0.5], [0.0, 1.0, 1.0], [0.5, 1.0, 1.0]]
        assert not t.q.flags.writeable and not t.pair_values().flags.writeable
        assert t.to_dict() == {"n": 3, "q": t.q.tolist()}


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
        signs = atom_bits(3)
        all_equal = (signs.sum(axis=1) % 3) == 0
        assert res.atom_weights[~all_equal].sum() < 1e-9

    def test_classical_hidden_variable_model_feasible(self):
        # hidden state lambda ~ U[0,1); three fixed threshold observables
        rng = np.random.default_rng(17)
        lam = rng.random(10 ** 5)
        outcomes = np.stack([lam < 0.3, lam < 0.6, lam > 0.45], axis=1)
        q = [float(np.mean(outcomes[:, i] == outcomes[:, j]))
             for i, j in itertools.combinations(range(3), 2)]
        res = joint_feasibility(table3(*q))
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
            # relabel observable k as perm[k]: pair (i, j) reads q[perm[i], perm[j]]
            values = [table.q[perm[i], perm[j]] for i, j in pairs(4)]
            assert joint_feasibility(AgreementTable(4, values)).feasible == verdict

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

    def test_certificate_rejects_a_table_of_another_size(self):
        cert = joint_feasibility(table3(0.25, 0.25, 0.25)).certificate
        with pytest.raises(ValueError, match="certificate for n=3 evaluated on a table with n=4"):
            cert.evaluate(AgreementTable(4, np.ones(6)))

    def test_size_limit(self):
        with pytest.raises(ValueError):
            joint_feasibility(AgreementTable(13, np.ones(78)))


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
            bell_facets_n3(AgreementTable(4, np.ones(6)))

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
        # the one angle where both slacks of the sequential scan tie at 0
        scan = sphere_bell_scan(UniformRho(), math.pi / 2)
        assert np.allclose(scan.table.pair_values(), [0.5, 0.0, 0.5], atol=1e-12)
        found = slacks(scan)
        assert abs(found["triangle_drop_02"]) <= 1e-16 and abs(found["sum_lower"]) <= 1e-16
        assert scan.feasible and facets_feasible(scan.facets)

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
        for theta in (0.0, math.pi, -1.0, math.nan):
            with pytest.raises(FieldError, match="must lie strictly between 0 and pi") as exc:
                sphere_bell_scan(UniformRho(), theta)
            assert exc.value.field == "theta"

    def test_mode_validation(self):
        for mode in ("psychic", ["auto"], None):
            with pytest.raises(FieldError, match="must be one of 'auto', 'sequential', "
                                                 "'hidden_state'") as exc:
                sphere_bell_scan(UniformRho(), 1.0, mode=mode)
            assert exc.value.field == "mode"

    def test_report_shape(self):
        d = sphere_bell_scan(UniformRho(), math.pi / 3).to_dict()
        assert d["verdict"] == "infeasible"
        assert len(d["facets"]) == 4
        assert "certificate" in d["feasibility"]


ULP_OF_ONE = 2.0 ** -52
open_angles = st.floats(0.0, math.pi, exclude_min=True, exclude_max=True)


class TestModelClosedForms:
    """The model's tables in closed form, on directions 0, theta, 2 theta."""

    @settings(max_examples=300, deadline=None)
    @given(theta=open_angles)
    @example(theta=math.pi / 3)
    @example(theta=math.nextafter(0.0, 1.0))
    @example(theta=math.nextafter(math.pi, 0.0))
    def test_sequential_uniform_slacks(self, theta):
        # q = cos^2(theta / 2) on the two near pairs and cos^2(theta) on the far
        # one, so 1 - (q01 + q12 - q02) = -c (1 - c) and q01 + q02 + q12 - 1 =
        # c (1 + c), with c = cos(theta)
        c = math.cos(theta)
        found = slacks(sphere_bell_scan(UniformRho(), theta, mode="sequential"))
        assert abs(found["triangle_drop_02"] + c * (1.0 - c)) <= 8 * ULP_OF_ONE
        assert abs(found["sum_lower"] - c * (1.0 + c)) <= 8 * ULP_OF_ONE

    @settings(max_examples=200, deadline=None)
    @given(theta=open_angles)
    def test_sequential_uniform_infeasible_off_the_right_angle(self, theta):
        # the lower of the two slacks is -|c| (1 - |c|): it vanishes at the
        # right angle and at both ends, where the three directions meet or
        # alternate; 1e-6 away it lies far past DEFAULT_TOL
        c = abs(math.cos(theta))
        assume(c * (1.0 - c) >= 1e-6)
        scan = sphere_bell_scan(UniformRho(), theta, mode="sequential")
        assert not scan.feasible
        assert not facets_feasible(scan.facets)

    @pytest.mark.parametrize("degrees", [30, 45, 60, 120])
    @pytest.mark.parametrize("rho, law", [
        # O1 has probability (1 + v.d) / 2 and E[v v^T] = I / 3
        (UniformRho(), lambda angle: 0.5 + math.cos(angle) / 6.0),
        # the random-hyperplane identity (Sheppard; Goemans & Williamson 1995)
        (DeltaRho(0.0), lambda angle: 1.0 - angle / math.pi),
    ], ids=["uniform", "delta0"])
    def test_hidden_state_tables(self, rho, law, degrees):
        theta = math.radians(degrees)
        angles = (theta, min(2.0 * theta, 2.0 * math.pi - 2.0 * theta), theta)
        for n in (20_000, 10 ** 6):  # 10**6 samples cross chunk seams
            for seed in range(5):
                scan = sphere_bell_scan(rho, theta, mode="hidden_state", n_samples=n, seed=seed)
                for q, angle in zip(scan.table.pair_values().tolist(), angles):
                    want = law(angle)
                    assert abs(q - want) <= 5.0 * math.sqrt(want * (1.0 - want) / n)

    @settings(max_examples=100, deadline=None)
    @given(theta=st.floats(1e-3, math.pi / 2), seed=st.integers(0, 2 ** 32 - 1))
    def test_delta_hidden_state_lies_on_the_triangle_facet(self, theta, seed):
        # q01 + q12 - q02 is 1 in expectation, and a sampled table is a
        # mixture of atoms, each of which keeps the facet
        scan = sphere_bell_scan(DeltaRho(0.0), theta, n_samples=2_000, seed=seed)
        assert slacks(scan)["triangle_drop_02"] >= -1e-15
        assert scan.feasible


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
        assert list(zip(i.tolist(), j.tolist())) == pairs(n)
        assert not i.flags.writeable and not j.flags.writeable

    @pytest.mark.parametrize("n", range(2, 9))
    def test_atom_agreement_matches_signs(self, n):
        signs = atom_bits(n)
        expected = [signs[:, i] == signs[:, j] for i, j in pairs(n)]
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
            signs, w_norm = atom_bits(n), w / w.sum()
            expected = [w_norm[signs[:, i] == signs[:, j]].sum() for i, j in pairs(n)]
            assert table_from_atom_weights(n, w).pair_values().tobytes() == np.array(expected).tobytes()

    def test_pair_values_round_trip(self):
        rng = np.random.default_rng(4)
        for n in range(2, 9):
            vals = rng.random(n * (n - 1) // 2)
            table = AgreementTable(n, vals)
            assert np.array_equal(table.pair_values(), vals)
            assert all(table.q[i, j] == table.q[j, i] == v
                       for (i, j), v in zip(pairs(n), vals))


# SHA-256 of the LP output bytes (atom weights, or certificate coefficients,
# bound and slack).  Recorded before the simplex and the pair gathers were
# vectorized; the 15 that Dantzig entering and the exact certificate bound
# moved were recorded again, each after its weights rebuilt the table within
# 1e-9 or its certificate held for every atom in Fractions.  The coarse
# 2000-sample hidden-state tables at n = 8, 9 hit ratio-test ties, so they
# also pin the tie rule.
LP_PINS = (
    ("hidden_uniform", 3, True, "b2b7298c2242cfa7e6d38d9429b4502fef3256a4f626d55edfdb8d4bc0e172b0"),
    ("hidden_uniform", 4, True, "26c29fb181556d748e97799461d49236db0af4d6f3945e58546e6761e1260e40"),
    ("hidden_uniform", 5, True, "ee4052169d5b069a124467458d6b5433821699341c8a757966451e49951e8417"),
    ("hidden_uniform", 6, True, "2405fa89dd9c1ef59d28c7c07ffe44219ebeeab2321ea1ae043976142e02e379"),
    ("hidden_uniform", 7, True, "040a234d2b2e001ee3b55ee705f2adf0540b836ff30238027f1b6e747fb73727"),
    ("hidden_uniform", 8, True, "f3c80143234da4c7f07a02b082f20a23b9fc772a483f2d59c1478269dc389593"),
    ("hidden_uniform", 9, True, "db3dc55d35ae4009ee7659b1f35364f8e2345404c667b178347fc4d6de2dc734"),
    ("hidden_delta", 3, True, "a435777277b7ed926f8f2f7f458c960105f503b7a327f203321d2e81f2b0b22b"),
    ("hidden_delta", 5, True, "c8c043fce1b90c042bb9b4f6c5f5da59b8534b168e1a16b2e2f892e55a25bec5"),
    ("hidden_delta", 7, True, "4634ae304210e39ec81074897a2ad47341536c6c103d3ce9b7e7c477e0adba4c"),
    ("random", 3, False, "da55e87b2be7888f6a69cc034ef83f8d96faae90d278e583c19b3660494dde03"),
    ("random", 4, False, "8e2bf6f6e209893a600cb0510da91ef1e66b768850d2d58a99eea13ecf7c8b78"),
    ("random", 5, False, "4499c63a4a4d71140174bb2c5e85f03eb3f272b39ea0d658d945119f06b31019"),
    ("random", 6, False, "c9dba9258cdf5eaca22dc4fe9a40c509a181b0d5d3f1b8cf1843287781281877"),
    ("random", 7, False, "e67076c62853f02683ef74c4c0e9f93b383c4de69ad7a44f429e7f7517a851db"),
    ("random", 8, False, "550f501945b059cc244c2d1ff01408571e8a1498672e5962834bbcbd6b5f9bbc"),
    ("random", 9, False, "f76cee1c2b51b5210cc83e42ad0b235a5e889f0bb2653cdffbfbfd626bf84903"),
    ("sequential", 5, False, "a7d4c19c4a19d6402cb4cbfa8750e33ce19db744903e0e71012df4d0de6fcfb4"),
    ("sequential", 7, False, "b9e3b4e194784caa6c610f796f5bd1ae1b06f4afcfeb952408fcdb73a5346925"),
    ("sequential", 9, False, "3e26fd5a2b5ca9ec2b589950d86cc8709c23de72777f19584c9bd47e73b9a229"),
    ("mixture", 4, True, "b9cf01d7712a7729e9e0422e3dac7e7935982258fe1205bdd74997e7f2d98f3c"),
    ("mixture", 6, True, "e5ca81104f0310e59d8545c7b9542c9dabe829d1456d1717603c1b1eb50c0c61"),
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
        assert certificate_holds_exactly(res.certificate)
    if recorded_versions_differ:
        pytest.skip(recorded_versions_differ)
    assert lp_digest(res) == digest


def full_width_feasibility(table: AgreementTable):
    """joint_feasibility's outputs from a solve over all 2^n atom columns,
    the certificate's bound taken as the largest float at most the exact
    minimum over all 2^n atoms, found in Fractions."""
    n = table.n
    A = np.vstack([atom_agreement(n), np.ones(2 ** n)])
    b = np.append(table.pair_values(), 1.0)
    optimum, w, y = _phase1_simplex(A, b, DEFAULT_TOL)
    if optimum <= DEFAULT_TOL:
        w = np.maximum(w, 0.0)
        return True, w.tobytes(), float(np.max(np.abs(A @ w - b)))
    coefficients = -y[:-1]
    minimum = min(exact_atom_sums(coefficients, n))
    bound = float(minimum)  # rounded to nearest
    if Fraction(bound) > minimum:
        bound = math.nextafter(bound, -math.inf)
    slack = math.fsum(coefficients * table.pair_values()) - bound
    return False, coefficients.tobytes(), bound, slack


def hypothesis_table(kind: str, n: int, seed: int) -> AgreementTable:
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_agreement_table(n, rng)
    if kind in ("mixture", "sparse_mixture"):  # sparse weights: degenerate vertices
        density = 0.3 if kind == "mixture" else 0.01
        return table_from_atom_weights(n, rng.random(2 ** n) * (rng.random(2 ** n) < density)
                                       + (np.arange(2 ** n) == 0))
    dirs = [UnitVector3.normalized(*rng.normal(size=3)) for _ in range(n)]
    if kind == "sequential":
        return agreement_table(UniformRho(), dirs)
    return hidden_state_agreement_table(UniformRho(), dirs, n_samples=500, seed=seed)


@given(st.sampled_from(["random", "hidden_state", "sequential", "mixture", "sparse_mixture"]),
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


@given(st.sampled_from(["random", "sequential", "hidden_state"]),
       st.integers(3, 8), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_certificates_hold_exactly(kind, n, seed):
    # with float multipliers as the bound, 170 of 683 certificates on
    # default_rng(0) random tables at n = 3..8 were broken by some atom, by
    # up to 4.4e-14
    res = joint_feasibility(hypothesis_table(kind, n, seed))
    if res.feasible:
        assert res.max_residual <= 1e-9
    else:
        assert res.certificate.slack < -DEFAULT_TOL
        assert certificate_holds_exactly(res.certificate)


@given(st.sampled_from(["mixture", "sparse_mixture"]), st.integers(3, 10),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_degenerate_mixtures_terminate(kind, n, seed):
    res = joint_feasibility(hypothesis_table(kind, n, seed))
    assert res.feasible
    assert res.max_residual <= 1e-9
    assert not res.atom_weights[2 ** (n - 1):].any()


def test_bland_fallback_is_reached(monkeypatch):
    # sparse mixtures at n = 8 make degenerate runs longer than the basis;
    # after Bland's rule takes over, the solve must still reproduce the table
    # and the half-width solve must still match the full-width one.  Picks
    # are counted where they happen, in _entering, by the rule that made them
    calls = {False: 0, True: 0}

    def counted(red, tol, bland, usable=None):
        entering = _entering(red, tol, bland, usable)
        calls[bland] += entering != -1
        return entering

    monkeypatch.setattr(kolmogorov_check, "_entering", counted)
    for seed in range(4):
        table = hypothesis_table("sparse_mixture", 8, seed)
        res = joint_feasibility(table)
        assert res.feasible and res.max_residual <= 1e-9
        assert full_width_feasibility(table)[1] == res.atom_weights.tobytes()
    assert calls[True] and calls[False]


REDUCED_COSTS = [-2.0, -1.0, -1e-3, -1e-9, -1e-10, -5e-324, -0.0, 0.0, 1.0,
                 math.nan, -math.inf, math.inf]


@given(st.lists(st.sampled_from(REDUCED_COSTS) | st.floats(allow_nan=True), min_size=1,
                max_size=12),
       st.sampled_from([0.0, 1e-9, 1e-3]))
@settings(max_examples=300, deadline=None)
def test_entering_pick_matches_masked_argmin(red, tol):
    # _entering picks what a masked pick over the eligible columns picks:
    # the lowest index of the most negative reduced cost under Dantzig's
    # rule, the lowest eligible index under Bland's, with or without a
    # usable mask; its one-argmin fast path changes no pick, NaN and +inf
    # are never eligible, and it returns -1 when no column is
    red = np.array(red)
    usable = np.arange(red.size) % 3 != 1
    for mask in (None, usable):
        eligible = (red < -tol) & (True if mask is None else mask)
        for bland in (False, True):
            entering = _entering(red, tol, bland, mask)
            if not eligible.any():
                assert entering == -1
            elif bland:
                assert entering == int(eligible.nonzero()[0][0])
            else:
                assert entering == int(np.where(eligible, red, np.inf).argmin())


def enumerated_atom_minimum(coefficients: np.ndarray, agree: np.ndarray) -> float:
    """_atom_minimum as it was before the screen: every column summed with
    math.fsum, the smallest sum stepped one float down where its rounding
    went up."""
    sums = [math.fsum(coefficients[column].tolist()) for column in agree.T]
    bound = min(sums)
    for column, total in zip(agree.T, sums):
        if total == bound and math.fsum(coefficients[column].tolist() + [-bound]) < 0.0:
            return math.nextafter(bound, -math.inf)
    return bound


def certificate_coefficients(kind: str, k: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "gaussian":
        return rng.normal(size=k)
    if kind == "small_integers":  # many columns tie exactly
        return rng.integers(-3, 4, size=k).astype(float)
    if kind == "near_ties":  # many column sums apart by less than their float sums' error
        return 1.0 + rng.normal(size=k) * 2.0 ** -52
    if kind == "scaled":  # one scale for all, or a mix of the two
        scales = rng.choice([-1000, 1000], size=1 + (k - 1) * rng.integers(2))
        return rng.normal(size=k) * 2.0 ** scales
    if kind == "subnormal":  # subnormal multiples of the smallest float, and zeros of both signs
        values = rng.integers(-2 ** 20, 2 ** 20, size=k) * 5e-324
        return np.where(rng.random(k) < 0.3, np.where(rng.random(k) < 0.5, 0.0, -0.0), values)
    return rng.uniform(-1.0, 1.0, size=k) * 1.7e308  # "huge": sum |c| overflows


def atom_minimum_outcome(atom_minimum, coefficients, agree):
    """The bound's hex, or the error raised."""
    try:
        return atom_minimum(coefficients, agree).hex()
    except OverflowError as err:
        return str(err)


@given(st.sampled_from(["gaussian", "small_integers", "near_ties", "scaled", "subnormal",
                        "huge"]),
       st.integers(2, 10), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_screened_atom_minimum_matches_enumeration(kind, n, seed):
    coefficients = certificate_coefficients(kind, n * (n - 1) // 2, np.random.default_rng(seed))
    agree = atom_agreement(n)[:, :2 ** (n - 1)]
    assert (atom_minimum_outcome(_atom_minimum, coefficients, agree)
            == atom_minimum_outcome(enumerated_atom_minimum, coefficients, agree))


def test_feasible_at_max_observables():
    rng = np.random.default_rng(100 + MAX_OBSERVABLES)
    dirs = [UnitVector3.normalized(*rng.normal(size=3)) for _ in range(MAX_OBSERVABLES)]
    table = hidden_state_agreement_table(UniformRho(), dirs, n_samples=20_000, seed=1)
    res = joint_feasibility(table)
    assert res.feasible
    assert res.max_residual <= 1e-9
    assert not res.atom_weights[2 ** (MAX_OBSERVABLES - 1):].any()


def masked_update_simplex(A: np.ndarray, b: np.ndarray, tol: float):
    """_phase1_simplex with the rank-1 update that writes only the rows whose
    pivot-column entry is nonzero (numpy's ``where=``): the reference for the
    single full-matrix subtract.  Its entering rule and stop are
    _phase1_simplex's, written out apart from them: among the columns with a
    reduced cost below -tol and an entry above tol, the most negative reduced
    cost (lowest index on ties), or after m degenerate pivots in a row the
    lowest index; no pivot once the objective is at most tol."""
    m, ncols = A.shape
    T = np.zeros((m + 1, ncols + m + 1))
    T[:m, :ncols] = A
    T[:m, ncols:ncols + m] = np.eye(m)
    T[:m, -1] = b
    basis = np.arange(ncols, ncols + m)
    T[m, :ncols] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    red, rhs = T[m, :-1], T[:m, -1]
    degenerate_run = 0
    for _ in range(200 * (ncols + m)):
        if T[m, -1] >= -tol:
            break
        candidates = np.flatnonzero((red < -tol) & (T[:m, :-1] > tol).any(axis=0))
        if not candidates.size:
            break
        if degenerate_run >= m:
            entering = int(candidates[0])
        else:
            entering = int(candidates[np.argmin(red[candidates])])
        col = T[:m, entering]
        rows = np.flatnonzero(col > tol)
        best_ratio, leaving = math.inf, -1
        for i, ratio in zip(rows.tolist(), (rhs[rows] / col[rows]).tolist()):
            if ratio < best_ratio - tol or (
                abs(ratio - best_ratio) <= tol
                and (leaving == -1 or basis[i] < basis[leaving])
            ):
                best_ratio, leaving = ratio, i
        degenerate_run = degenerate_run + 1 if best_ratio <= tol else 0
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
    """Bytes of (optimum, x, y), or the error raised."""
    try:
        return [np.asarray(a).tobytes() for a in solve(A, b, tol)]
    except RuntimeError as err:
        return str(err)


def lp_systems(kind: str, count: int = 60):
    """(A, b) pairs from ``default_rng(61)``: 2..8 rows, 2..24 columns."""
    rng = np.random.default_rng(61)
    for _ in range(count):
        m, ncols = rng.integers(2, 9), rng.integers(2, 25)
        if kind == "binary":  # zeros of both signs, which the update must keep
            A = np.where(rng.random((m, ncols)) < 0.5, 1.0,
                         np.where(rng.random((m, ncols)) < 0.5, 0.0, -0.0))
        else:
            A = rng.normal(size=(m, ncols))
        # half the right-hand sides are reachable, which makes degenerate vertices
        b = np.abs(A @ rng.random(ncols) if rng.random() < 0.5 else rng.random(m))
        b[rng.random(m) < 0.3] = -0.0
        yield A, b


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-3])
@pytest.mark.parametrize("kind", ["binary", "gaussian"])
def test_pivot_update_matches_masked_update(kind, tol):
    for A, b in lp_systems(kind):
        assert (solve_outcome(_phase1_simplex, A, b, tol)
                == solve_outcome(masked_update_simplex, A, b, tol))


@pytest.mark.parametrize("kind", ["binary", "gaussian"])
def test_tol_zero_solves_or_certifies(kind):
    # at tol 0 a reduced cost of rounding size (-1e-16) once stayed eligible
    # on a column with no positive entry and raised "unbounded" on 32 of the
    # 60 Gaussian systems, all of them bounded
    rebuilt = certified = 0
    for A, b in lp_systems(kind):
        optimum, x, y = _phase1_simplex(A, b, 0.0)
        if (x >= 0.0).all() and np.abs(A @ x - b).max() <= 1e-9:
            rebuilt += 1
        else:
            assert optimum > 0.0 and y @ b > 0.0
            assert (y @ A).max() <= 1e-9
            certified += 1
    assert rebuilt and certified
