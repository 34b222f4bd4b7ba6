import math

import numpy as np
import pytest

from spheremarket.geometry import UnitVector3, from_polar, sample_uniform
from spheremarket.scop_core import (
    PriceIntervalProperty,
    ScopSystem,
    UnknownContextError,
    UnknownStateError,
    actual_properties,
    is_eigenstate,
    sphere_as_scop,
    transition,
)
from spheremarket.sphere_model import (
    DeltaRho,
    PiecewiseConstantRho,
    TruncatedGaussianRho,
    UniformRho,
    transition_probabilities,
)

POLE = UnitVector3(0.0, 0.0, 1.0)
EAST = UnitVector3(1.0, 0.0, 0.0)


def two_state_system(p_stay=1.0):
    """Two states, one context; 'a' stays with probability p_stay."""
    mu_table = {
        ("a", "e"): {("a", "e"): p_stay, ("b", "e"): 1.0 - p_stay},
        ("b", "e"): {("b", "e"): 1.0},
    }
    xi_table = {"a": {"prop_a"}, "b": set()}
    return ScopSystem.from_tables(["a", "b"], ["e"], ["prop_a"], mu_table, xi_table)


def default_price_map(directions, price_min=50.0, price_max=150.0):
    """The intervals of each direction and its antipode: a half-sphere split
    with lexicographic tie-break on the equator."""
    price_map = {}
    for u in directions:
        for d in (u, -u):
            key = d.z or d.x or d.y
            price_map[d] = (PriceIntervalProperty(100.0, price_max) if key > 0
                            else PriceIntervalProperty(price_min, 100.0))
    return price_map


class TestPriceIntervalProperty:
    def test_requires_increasing(self):
        with pytest.raises(ValueError):
            PriceIntervalProperty(10.0, 10.0)

    def test_containment_and_overlap(self):
        wide = PriceIntervalProperty(90.0, 120.0)
        narrow = PriceIntervalProperty(100.0, 110.0)
        assert wide.contains_interval(narrow)
        assert not narrow.contains_interval(wide)
        assert wide.overlaps(narrow)
        assert not PriceIntervalProperty(0.0, 1.0).overlaps(PriceIntervalProperty(1.0, 2.0))


class TestFiniteSystems:
    def test_identity_mu_everything_eigenstate(self):
        sys = two_state_system(p_stay=1.0)
        assert is_eigenstate(sys, "a", "e")
        assert is_eigenstate(sys, "b", "e")

    def test_stochastic_state_not_eigenstate(self):
        sys = two_state_system(p_stay=0.5)
        assert not is_eigenstate(sys, "a", "e")
        assert is_eigenstate(sys, "b", "e")

    def test_deterministic_transition_fixed(self):
        sys = two_state_system(p_stay=0.0)
        rng = np.random.default_rng(0)
        assert all(transition(sys, "a", "e", rng) == ("b", "e") for _ in range(20))

    def test_transition_frequencies_converge(self):
        sys = two_state_system(p_stay=0.3)
        rng = np.random.default_rng(11)
        n = 20_000
        stays = sum(transition(sys, "a", "e", rng)[0] == "a" for _ in range(n))
        assert abs(stays / n - 0.3) < 4.0 * math.sqrt(0.3 * 0.7 / n)

    def test_unknown_state_and_context(self):
        sys = two_state_system()
        with pytest.raises(UnknownStateError):
            is_eigenstate(sys, "zz", "e")
        with pytest.raises(UnknownContextError):
            is_eigenstate(sys, "a", "f")
        with pytest.raises(UnknownStateError):
            actual_properties(sys, "zz")

    def test_actual_properties(self):
        sys = two_state_system()
        assert actual_properties(sys, "a") == {"prop_a"}
        assert actual_properties(sys, "b") == frozenset()

    def test_missing_mu_row_rejected(self):
        with pytest.raises(ValueError):
            ScopSystem.from_tables(["a"], ["e"], [], {}, {})

    def test_bad_row_sum_rejected(self):
        with pytest.raises(ValueError):
            ScopSystem.from_tables(
                ["a"], ["e"], [], {("a", "e"): {("a", "e"): 0.7}}, {}
            )

    def test_negative_row_entry_rejected_at_construction(self):
        # the row sums to 1, so only the sign check of the mu row catches it
        with pytest.raises(ValueError, match="nonnegative"):
            ScopSystem.from_tables(
                ["a", "b"], ["e"], [],
                {("a", "e"): {("a", "e"): 1.5, ("b", "e"): -0.5},
                 ("b", "e"): {("b", "e"): 1.0}}, {}
            )

    @pytest.mark.parametrize("successor", [("zz", "e"), ("a", "f"), "ae", ("a", "e", "x")],
                             ids=["unknown_state", "unknown_context", "not_a_pair", "triple"])
    def test_successor_outside_the_system_rejected_at_construction(self, successor):
        # ("zz", "e") once built, and a later is_eigenstate raised UnknownStateError
        with pytest.raises(ValueError, match=r"mu row for \('a', 'e'\) leads to"):
            ScopSystem.from_tables(["a"], ["e"], [], {("a", "e"): {successor: 1.0}}, {})

    def test_foreign_property_rejected(self):
        with pytest.raises(ValueError):
            ScopSystem.from_tables(
                ["a"], ["e"], ["known"],
                {("a", "e"): {("a", "e"): 1.0}},
                {"a": {"unknown"}},
            )


class TestSphereScop:
    def test_single_direction_shape(self):
        sys = sphere_as_scop(UniformRho(), [POLE], default_price_map([POLE]))
        assert len(sys.contexts) == 1
        assert len(sys.states) == 2
        assert len(sys.properties) == 2

    def test_endpoint_is_eigenstate(self):
        sys = sphere_as_scop(UniformRho(), [POLE], default_price_map([POLE]))
        assert is_eigenstate(sys, POLE, POLE)
        assert is_eigenstate(sys, -POLE, POLE)

    def test_orthogonal_state_not_eigenstate(self):
        sys = sphere_as_scop(UniformRho(), [POLE], default_price_map([POLE]))
        assert not is_eigenstate(sys, EAST, POLE)

    def test_mu_rows_normalized_exactly(self):
        # no call checks a row, so every density must give distributions
        rng = np.random.default_rng(5)
        probes = [POLE, -POLE, EAST, -EAST] + [sample_uniform(rng) for _ in range(100)]
        for rho in (UniformRho(), DeltaRho(0.2),
                    PiecewiseConstantRho([-1.0, -0.2, 0.5, 1.0], [0.5, 3.0, 1.0]),
                    TruncatedGaussianRho(center=-0.3, width=0.4)):
            sys = sphere_as_scop(rho, [POLE, EAST], default_price_map([POLE, EAST]))
            for p in probes:
                for e in sys.contexts:
                    row = sys.transition_distribution(p, e)
                    assert sum(prob for _, prob in row) == 1.0
                    assert all(prob >= 0.0 for _, prob in row)

    def test_mu_matches_transition_probabilities(self):
        rho = UniformRho()
        dirs = [POLE, from_polar(1.0, 0.4), from_polar(2.2, 2.0)]
        sys = sphere_as_scop(rho, dirs, default_price_map(dirs))
        for p in sys.states:
            for e in sys.contexts:
                row = dict(sys.transition_distribution(p, e))
                p1, p2 = transition_probabilities(rho, p, e)
                assert row[(e, e)] == p1
                assert row[(-e, e)] == p2

    def test_orthogonal_collapse_frequency(self):
        sys = sphere_as_scop(UniformRho(), [POLE], default_price_map([POLE]))
        rng = np.random.default_rng(42)
        n = 10 ** 5
        hits = sum(transition(sys, EAST, POLE, rng)[0] == POLE for _ in range(n))
        assert abs(hits / n - 0.5) < 4.0 * math.sqrt(0.25 / n)

    def test_transition_sequence_deterministic(self):
        sys = sphere_as_scop(UniformRho(), [POLE], default_price_map([POLE]))
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(77)
            state = EAST
            seq = []
            for _ in range(50):
                state, _ = transition(sys, state, POLE, rng)
                seq.append(state)
            runs.append(seq)
        assert runs[0] == runs[1]

    def test_eigenstate_repeatability(self):
        sys = sphere_as_scop(UniformRho(), [POLE], default_price_map([POLE]))
        rng = np.random.default_rng(8)
        for _ in range(2000):
            q, f = transition(sys, POLE, POLE, rng)
            assert q == POLE and f == POLE

    def test_potentiality_states_branch(self):
        sys = sphere_as_scop(UniformRho(), [POLE], default_price_map([POLE]))
        rng = np.random.default_rng(9)
        successors = {transition(sys, EAST, POLE, rng)[0] for _ in range(10_000)}
        assert len(successors) == 2

    def test_xi_contains_own_interval(self):
        pm = {POLE: PriceIntervalProperty(100.0, 150.0),
              -POLE: PriceIntervalProperty(50.0, 100.0)}
        sys = sphere_as_scop(UniformRho(), [POLE], pm)
        assert PriceIntervalProperty(100.0, 150.0) in actual_properties(sys, POLE)

    def test_xi_superinterval_monotone(self):
        narrow = PriceIntervalProperty(100.0, 110.0)
        wide = PriceIntervalProperty(90.0, 120.0)
        tilted = from_polar(0.3, 0.0)
        pm = {POLE: narrow, -POLE: PriceIntervalProperty(50.0, 60.0),
              tilted: wide, -tilted: PriceIntervalProperty(50.0, 60.0)}
        sys = sphere_as_scop(UniformRho(), [POLE, tilted], pm)
        props = actual_properties(sys, POLE)
        assert narrow in props and wide in props
        assert actual_properties(sys, tilted) == {wide}

    def test_unvisited_state_has_no_actual_price(self):
        sys = sphere_as_scop(UniformRho(), [POLE], default_price_map([POLE]))
        assert actual_properties(sys, EAST) == frozenset()

    def test_overlapping_antipodal_intervals_rejected(self):
        pm = {POLE: PriceIntervalProperty(90.0, 120.0),
              -POLE: PriceIntervalProperty(100.0, 110.0)}
        with pytest.raises(ValueError):
            sphere_as_scop(UniformRho(), [POLE], pm)

    def test_missing_price_map_entry_rejected(self):
        with pytest.raises(ValueError):
            sphere_as_scop(UniformRho(), [POLE], {POLE: PriceIntervalProperty(0.0, 1.0)})

    def test_delta_rho_deterministic_collapse(self):
        sys = sphere_as_scop(DeltaRho(0.0), [POLE], default_price_map([POLE]))
        rng = np.random.default_rng(12)
        above = from_polar(1.0, 0.0)  # v.u = cos(1) > 0
        assert all(transition(sys, above, POLE, rng)[0] == POLE for _ in range(50))

    def test_non_vector_state_rejected(self):
        sys = sphere_as_scop(UniformRho(), [POLE], default_price_map([POLE]))
        with pytest.raises(UnknownStateError):
            actual_properties(sys, "not a state")
        with pytest.raises(UnknownContextError):
            is_eigenstate(sys, POLE, EAST)
