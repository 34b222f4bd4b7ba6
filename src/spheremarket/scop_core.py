"""State-context-property systems.

A system is a set of states, a set of contexts, a set of properties, a
transition law ``mu`` giving for each (state, context) a distribution over
(next state, next context), and an actuality map ``xi`` listing which
properties hold in each state.  A state is an eigenstate of a context when
the law keeps it fixed with certainty; otherwise it is a potentiality state
and an interaction actualizes one of several successors (collapse).

``sphere_as_scop`` realizes this for the elastic sphere: contexts are
measurement directions, eigenstates the direction endpoints, and properties
price intervals attached to the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from .geometry import UnitVector3
from .sphere_model import RhoDistribution, transition_probabilities

ROW_SUM_TOL = 1e-12


class UnknownStateError(ValueError):
    pass


class UnknownContextError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class PriceIntervalProperty:
    """The property of displaying a price inside (lower, upper)."""

    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("price interval needs lower < upper")

    def contains_interval(self, other: "PriceIntervalProperty") -> bool:
        return self.lower <= other.lower and other.upper <= self.upper

    def overlaps(self, other: "PriceIntervalProperty") -> bool:
        return self.lower < other.upper and other.lower < self.upper


Transition = tuple[tuple[Hashable, Hashable], float]


@dataclass(frozen=True)
class ScopSystem:
    """States, contexts, properties plus the transition law and actuality map.

    ``states`` lists the materialized states; systems over a continuum keep
    it to the distinguished states.  ``contains_state(p)`` decides which
    states the system admits.  ``mu(p, e)`` returns a row of ((q, f),
    probability) pairs; ``xi(p)`` returns the set of actual properties.

    Every row is a distribution over (state, context) pairs of the system:
    its probabilities are nonnegative and sum to 1 within ROW_SUM_TOL, and
    each successor (q, f) has q admitted and f in ``contexts``.  The builder
    ``sphere_as_scop`` ensures it by construction; a system built directly
    must keep the contract itself, since no call rechecks it.
    """

    contexts: tuple
    properties: frozenset
    mu: Callable[[Hashable, Hashable], Sequence[Transition]]
    xi: Callable[[Hashable], frozenset]
    states: tuple
    contains_state: Callable[[Hashable], bool]

    def _check_state(self, p):
        if not self.contains_state(p):
            raise UnknownStateError(f"unknown state: {p!r}")

    def _check_context(self, e):
        if e not in self.contexts:
            raise UnknownContextError(f"unknown context: {e!r}")

    def transition_distribution(self, p, e) -> Sequence[Transition]:
        """The mu row for the state p and the context e."""
        self._check_state(p)
        self._check_context(e)
        return self.mu(p, e)

def is_eigenstate(sys: ScopSystem, p, e) -> bool:
    """True iff the law keeps p fixed with certainty under context e."""
    row = sys.transition_distribution(p, e)
    stay = sum(prob for (q, _), prob in row if q == p)
    return stay >= 1.0 - ROW_SUM_TOL


def transition(sys: ScopSystem, p, e, rng: np.random.Generator):
    """Sample one collapse: returns the successor (state, context)."""
    row = sys.transition_distribution(p, e)
    x = rng.random()
    acc = 0.0
    for qf, prob in row:
        acc += prob
        if x < acc:
            return qf
    return row[-1][0]


def actual_properties(sys: ScopSystem, p) -> frozenset:
    """The set xi(p) of properties actual in state p."""
    sys._check_state(p)
    return sys.xi(p)


def sphere_as_scop(rho: RhoDistribution, directions: Sequence[UnitVector3],
                   price_map: Mapping[UnitVector3, PriceIntervalProperty]) -> ScopSystem:
    """Sphere trading model as a SCoP system.

    Contexts are the measurement directions; the states u and -u are the
    two eigenstates of context u, and any other unit vector is a valid
    potentiality state (materialized on first visit).  ``price_map`` maps
    each direction and its antipode to a PriceIntervalProperty; the two
    intervals of an antipodal pair must be disjoint, since outcome O1
    asserts the price lies inside the interval at u and O2 asserts it lies
    outside.  xi of an eigenstate holds its own interval plus every
    superinterval present in the property set.

    The mu row for (p, e) is (p1, 1 - p1) with p1 = rho.cdf(dot(p, e)),
    which lies in [0, 1] for every density, and p1 + (1 - p1) is exactly 1
    in floating point for every such p1 (3e7 sampled ones checked), so the
    rows meet the contract without a check.

    A collapse lands on an endpoint, so a walk revisits the same few rows:
    the row of a materialized state (an endpoint in ``states``) under a
    context is memoized on first visit, at most 2k·k rows for k contexts.
    A potentiality state's row is computed on every call and never stored.
    A pair equal to a stored key reads its row.  Equal vectors differ at most
    in the sign of a zero component, so their dot products differ at most in
    the sign of a zero, and every ``rho.cdf`` maps -0.0 and 0.0 alike: the
    probabilities are those a fresh row would hold.
    """
    contexts = tuple(dict.fromkeys(directions))
    if not contexts:
        raise ValueError("need at least one measurement direction")
    prop_of: dict[UnitVector3, PriceIntervalProperty] = {}
    for u in contexts:
        try:
            a_plus, a_minus = price_map[u], price_map[-u]
        except KeyError as exc:
            raise ValueError(f"price_map not defined for direction {exc.args[0]!r}") from None
        if not isinstance(a_plus, PriceIntervalProperty) or not isinstance(a_minus, PriceIntervalProperty):
            raise TypeError("price_map must yield PriceIntervalProperty values")
        if a_plus.overlaps(a_minus):
            raise ValueError(
                f"inconsistent price_map: intervals for the antipodal pair at {u!r} overlap"
            )
        prop_of[u] = a_plus
        prop_of[-u] = a_minus
    properties = frozenset(prop_of.values())
    xi_map = {state: frozenset(a for a in properties if a.contains_interval(own))
              for state, own in prop_of.items()}

    rows = {}

    def mu(p, e):
        row = rows.get((p, e))
        if row is None:
            p1, p2 = transition_probabilities(rho, p, e)
            row = (((e, e), p1), ((-e, e), p2))
            if p in prop_of and e in contexts:
                rows[p, e] = row
        return row

    def xi(p):
        return xi_map.get(p, frozenset())

    return ScopSystem(
        contexts=contexts,
        properties=properties,
        mu=mu,
        xi=xi,
        states=tuple(prop_of),
        contains_state=lambda p: isinstance(p, UnitVector3),
    )
