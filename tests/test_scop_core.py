import math

import numpy as np
import pytest

from spheremarket import scop_core
from spheremarket.geometry import UnitVector3, dot, from_polar, sample_uniform
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
    """Two states, one context; 'a' stays with probability p_stay.  Built
    with the constructor, so its rows keep the row contract by hand."""
    rows = {("a", "e"): ((("a", "e"), p_stay), (("b", "e"), 1.0 - p_stay)),
            ("b", "e"): ((("b", "e"), 1.0),)}
    actual = {"a": frozenset({"prop_a"}), "b": frozenset()}
    return ScopSystem(contexts=("e",), properties=frozenset({"prop_a"}),
                      mu=lambda p, e: rows[(p, e)], xi=actual.__getitem__,
                      states=("a", "b"), contains_state=actual.__contains__)


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


# x, y and z axes (y built by negation, so its zeros are -0.0) and three
# oblique directions: six contexts, 12 endpoints, 72 memoizable rows
MEMO_CONTEXTS = [EAST, -UnitVector3(0.0, -1.0, 0.0), POLE,
                 from_polar(1.0, 0.4), from_polar(2.2, 2.0), from_polar(0.7, 4.1)]
MEMO_RHOS = [UniformRho(), DeltaRho(0.0), PiecewiseConstantRho([-1.0, 0.0, 1.0], [0.0, 1.0]),
             TruncatedGaussianRho(center=0.0, width=0.4),
             TruncatedGaussianRho(center=-0.3, width=0.4)]


def memo_system(rho):
    return sphere_as_scop(rho, MEMO_CONTEXTS, default_price_map(MEMO_CONTEXTS))


def row_bits(row):
    return [(qf, prob.hex()) for qf, prob in row]


def fresh_row_bits(rho, p, e):
    p1, p2 = transition_probabilities(rho, p, e)
    return [((e, e), p1.hex()), ((-e, e), p2.hex())]


def zero_sign_twins(p):
    """Every state equal to p whose zero components carry either sign."""
    options = [(c,) if c else (0.0, -0.0) for c in p]
    return [UnitVector3(x, y, z) for x in options[0] for y in options[1] for z in options[2]]


@pytest.fixture
def counted(monkeypatch):
    """The number of transition_probabilities calls made through scop_core."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return transition_probabilities(*args)

    monkeypatch.setattr(scop_core, "transition_probabilities", counting)
    return calls


class TestSphereScopMemo:
    @pytest.mark.parametrize("rho", MEMO_RHOS, ids=lambda rho: rho.kind)
    def test_rows_equal_fresh_rows_bit_for_bit(self, rho):
        sys = memo_system(rho)
        assert len(sys.contexts) == 6 and len(sys.states) == 12
        rng = np.random.default_rng(31)
        potential = [sample_uniform(rng) for _ in range(200)]
        for _ in range(2):  # the first pass fills the memo, the second reads it
            for p in list(sys.states) + potential:
                for e in sys.contexts:
                    assert row_bits(sys.mu(p, e)) == fresh_row_bits(rho, p, e)

    @pytest.mark.parametrize("rho", MEMO_RHOS, ids=lambda rho: rho.kind)
    def test_signed_zero_twin_of_an_eigenstate_reads_the_same_row(self, rho):
        sys = memo_system(rho)
        east, north = MEMO_CONTEXTS[:2]
        twin = UnitVector3(1.0, -0.0, 0.0)
        # the twin's dot product with north is -0.0, the endpoint's +0.0
        assert math.copysign(1.0, dot(twin, north)) == -1.0
        assert math.copysign(1.0, dot(east, north)) == 1.0
        for p in sys.states:
            for e in sys.contexts:
                sys.mu(p, e)
                for q in zero_sign_twins(p):
                    assert row_bits(sys.mu(q, e)) == fresh_row_bits(rho, q, e)

    def test_walk_over_endpoints_computes_each_row_once(self, counted):
        sys = memo_system(UniformRho())
        k = len(sys.contexts)
        rng = np.random.default_rng(5)
        state = sys.contexts[0]
        for step in range(3000):
            e = sys.contexts[step % k]
            state, _ = transition(sys, state, e, rng)
            assert is_eigenstate(sys, state, e)
        assert 0 < counted[0] <= 2 * k * k

    def test_potentiality_rows_computed_on_every_call(self, counted):
        sys = memo_system(UniformRho())
        rng = np.random.default_rng(6)
        states = [sample_uniform(rng) for _ in range(10 ** 4)]
        for p in states:
            transition(sys, p, POLE, rng)
        assert counted[0] == 10 ** 4
        for p in states[:100]:
            transition(sys, p, POLE, rng)
        assert counted[0] == 10 ** 4 + 100

    def test_rows_under_a_direction_outside_the_contexts_not_stored(self, counted):
        sys = memo_system(UniformRho())
        outside = from_polar(1.3, 0.2)
        for _ in range(3):
            assert row_bits(sys.mu(POLE, outside)) == fresh_row_bits(UniformRho(), POLE, outside)
        assert counted[0] == 3
