"""Classical embeddability of pairwise agreement statistics.

A table of pairwise agreement probabilities q_ij (probability that binary
measurements i and j yield matching labels) admits a single classical joint
distribution iff nonnegative weights over the 2^n deterministic sign
assignments reproduce every q_ij.  Marginals are left free: only agreements
are matched, which is the weakest embedding and therefore the strongest
non-embeddability verdict.  ``joint_feasibility`` decides membership by a
self-contained phase-1 simplex and returns either the reproducing weights or
a separating (Farkas) inequality.  For n = 3 the polytope is the tetrahedron
spanned by (1,1,1), (1,0,0), (0,1,0), (0,0,1); ``bell_facets_n3`` checks its
four facets directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import FieldError
from .geometry import from_polar

MAX_OBSERVABLES = 12
DEFAULT_TOL = 1e-9
SCAN_MODES = ("auto", "sequential", "hidden_state")

# Facet bounds for the n = 3 agreement polytope, kept as module constants so
# the CLI selftest's mutation fixture can corrupt them.
TRIANGLE_FACET_BOUND = 1.0
SUM_FACET_BOUND = 1.0


@functools.lru_cache(maxsize=64)
def pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (i, j) arrays of the pairs i < j in lexicographic order, for
    whole-array gathers ``q[pair_index(n)]`` and scatters."""
    index = np.triu_indices(n, 1)
    for a in index:
        a.setflags(write=False)
    return index


@functools.lru_cache(maxsize=MAX_OBSERVABLES + 1)
def atom_agreement(n: int) -> np.ndarray:
    """Read-only (pairs, 2^n) bool matrix: atom a (observable i gets bit (a >> i) & 1)
    gives both observables of pair k equal bits.  Each pair agrees on half the atoms."""
    bits = (np.arange(2 ** n) >> np.arange(n)[:, None]) & 1
    i, j = pair_index(n)
    agree = bits[i] == bits[j]
    agree.setflags(write=False)
    return agree


class AgreementTable:
    """Pairwise agreement probabilities of n observables, stored as their
    pair values: q_ij for the pairs i < j in ``pair_index(n)`` order, the
    coordinates of the classical agreement polytope.

    Entries are validated to [0, 1] within 1e-12 (NaN and infinities fail)
    and then clipped.  ``q`` is the read-only symmetric n x n matrix with a
    unit diagonal, derived once for reports.
    """

    def __init__(self, n: int, values):
        if n < 2:
            raise ValueError("need at least 2 observables")
        values = np.asarray(values, dtype=float)
        i, j = pair_index(n)
        if values.shape != i.shape:
            raise ValueError(f"expected {i.size} pair values for n={n}")
        if not np.all((values >= -1e-12) & (values <= 1.0 + 1e-12)):
            raise ValueError("entries must lie in [0, 1]")
        self.n = n
        self._values = np.clip(values, 0.0, 1.0)
        self.q = np.eye(n)
        self.q[i, j] = self.q[j, i] = self._values
        self._values.setflags(write=False)
        self.q.setflags(write=False)

    def __eq__(self, other):
        return isinstance(other, AgreementTable) and np.array_equal(self.q, other.q)

    def pair_values(self) -> np.ndarray:
        return self._values

    def to_dict(self) -> dict:
        return {"n": self.n, "q": self.q.tolist()}


def table_from_atom_weights(n: int, weights) -> AgreementTable:
    """Agreement table of a mixture of deterministic assignments.

    ``weights`` are nonnegative over the 2^n atoms; they are normalized to
    sum 1.  Tables built this way are classical by construction.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (2 ** n,):
        raise ValueError(f"expected {2 ** n} atom weights")
    if not np.isfinite(w).all():
        raise ValueError("atom weights must be finite")
    if w.min() < 0:
        raise ValueError("atom weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValueError("atom weights must have positive total mass")
    agree = atom_agreement(n)
    # each row gathers the 2^(n-1) agreeing weights in atom order, so its sum
    # is the same pairwise sum as w[mask].sum() over that pair's mask
    w = np.broadcast_to(w / total, agree.shape)[agree].reshape(len(agree), -1)
    return AgreementTable(n, w.sum(axis=1))


def random_agreement_table(n: int, rng: np.random.Generator) -> AgreementTable:
    """Valid table with off-diagonal entries i.i.d. uniform on [0, 1]."""
    return AgreementTable(n, rng.random(n * (n - 1) // 2))


@dataclass(frozen=True, eq=False)
class InfeasibilityCertificate:
    """Separating inequality over the pair values of n observables: every
    classical table satisfies  coefficients . pair_values >= bound  exactly,
    in real arithmetic, because ``bound`` is at most the exact minimum of the
    left side over the 2^n deterministic atoms and a classical table is a
    mixture of them.  This table violates it with the stated (strictly
    negative) slack, the left side summed by ``math.fsum`` minus the bound."""

    n: int
    coefficients: np.ndarray
    bound: float
    slack: float

    def evaluate(self, table: AgreementTable) -> float:
        """Slack of the inequality on another table (>= 0 when satisfied)."""
        if table.n != self.n:
            raise ValueError(f"certificate for n={self.n} evaluated on a table with n={table.n}")
        return math.fsum(self.coefficients * table.pair_values()) - self.bound

    def to_dict(self) -> dict:
        return {
            "pairs": np.column_stack(pair_index(self.n)).tolist(),
            "coefficients": self.coefficients.tolist(),
            "bound": self.bound,
            "slack": self.slack,
        }

    def __str__(self):
        terms = " + ".join(f"{c:+.6g}*q{i}{j}"
                           for c, i, j in zip(self.coefficients, *pair_index(self.n)))
        return f"{terms} >= {self.bound:.6g} (slack {self.slack:.3g})"


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    feasible: bool
    atom_weights: np.ndarray | None = None
    certificate: InfeasibilityCertificate | None = None
    max_residual: float = field(default=float("nan"))

    def to_dict(self) -> dict:
        out = {"feasible": self.feasible}
        if self.atom_weights is not None:
            out["atom_weights"] = self.atom_weights.tolist()
            out["max_residual"] = self.max_residual
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        return out


def _entering(red: np.ndarray, tol: float, bland: bool, usable: np.ndarray | None = None) -> int:
    """Entering column among those with reduced cost below -tol (and
    ``usable``, when given): the most negative (Dantzig's rule) or the lowest
    index (Bland's), ties to the lowest index; -1 when none is eligible.
    Dantzig's pick is one argmin whenever that column is eligible."""
    if not bland:
        j = int(red.argmin())
        if red[j] < -tol and (usable is None or usable[j]):
            return j
    eligible = red < -tol
    if usable is not None:
        eligible &= usable
    j = int(eligible.argmax()) if bland else int(np.where(eligible, red, np.inf).argmin())
    return j if eligible[j] else -1


def _phase1_simplex(A: np.ndarray, b: np.ndarray, tol: float):
    """Phase-1 simplex for  A x = b, x >= 0,  b >= 0.

    Minimizes the total artificial infeasibility, and stops as soon as it
    is at most ``tol``: the point is then feasible, and further pivots among
    the degenerate bases of that point only gather rounding error.

    The entering column has the most negative reduced cost (Dantzig's
    rule), ties to the lowest index.  A pivot whose ratio is at most ``tol``
    is degenerate: the point does not move.  After a run of m degenerate
    pivots (m, the row count, is the size of the basis) entering switches to
    Bland's rule, the lowest eligible index, until the next nondegenerate
    pivot.  The leaving row is always the minimum ratio with ties to the
    lowest basis index.  In exact arithmetic this terminates: Bland's rule
    never cycles, so every degenerate run ends, and each nondegenerate pivot
    strictly lowers the phase-1 objective, so no basis recurs across runs.
    The iteration cap guards against rounding.

    Returns ``(optimum, x, y)`` where ``x`` is the primal point over the
    original columns and ``y`` the simplex multipliers at termination.  When
    ``optimum > 0`` the multipliers are a Farkas certificate:
    y . b = optimum > 0 while y . A_col <= 0 for every column.
    """
    m, ncols = A.shape
    if (b < 0).any():
        raise ValueError("phase-1 requires b >= 0")

    T = np.zeros((m + 1, ncols + m + 1))
    T[:m, :ncols] = A
    T[:m, ncols:ncols + m] = np.eye(m)
    T[:m, -1] = b
    basis = list(range(ncols, ncols + m))  # plain ints for the tie rule
    # reduced costs r_j = c_j - y.A_j with starting multipliers y = 1
    T[m, :ncols] = -A.sum(axis=0)
    T[m, -1] = -b.sum()  # stores -objective
    red, rhs = T[m, :-1], T[:m, -1]  # views, updated by every pivot
    update = np.empty_like(T)
    degenerate_run = 0

    for _ in range(200 * (ncols + m)):  # iteration cap
        if -T[m, -1] <= tol:  # the artificials are out: the point is feasible
            break
        bland = degenerate_run >= m
        entering = _entering(red, tol, bland)
        if entering == -1:
            break
        col = T[:m, entering]
        rows = (col > tol).nonzero()[0]
        if not rows.size:
            # No ratio test: the phase-1 objective is bounded below by 0, so
            # this reduced cost is rounding error.  Such a column cannot enter.
            entering = _entering(red, tol, bland, (T[:m, :-1] > tol).any(axis=0))
            if entering == -1:
                break
            col = T[:m, entering]
            rows = (col > tol).nonzero()[0]
        best_ratio, leaving = math.inf, -1
        for i, ratio in zip(rows.tolist(), (rhs[rows] / col[rows]).tolist()):
            if ratio < best_ratio - tol or (
                abs(ratio - best_ratio) <= tol
                and (leaving == -1 or basis[i] < basis[leaving])
            ):
                best_ratio, leaving = ratio, i
        if leaving == -1:  # every ratio overflowed
            raise RuntimeError("phase-1 ratio test found no finite ratio")
        degenerate_run = degenerate_run + 1 if best_ratio <= tol else 0
        T[leaving] /= T[leaving, entering]
        # rank-1 update of the other rows: the leaving row copied, then scaled
        # row by row in place (IEEE products commute, so each one keeps the
        # bits of factor * row); a row whose pivot-column entry is zero
        # subtracts +0.0, and x - (+0.0) is x bit for bit, signed zeros
        # included, so the rows the pivot does not touch keep their bytes
        factor = T[:, entering]
        skip = factor == 0.0
        skip[leaving] = True
        np.copyto(update, T[leaving])
        update *= factor[:, None]
        update[skip] = 0.0
        np.subtract(T, update, out=T)
        basis[leaving] = entering
    else:
        raise RuntimeError("simplex iteration limit exceeded")

    optimum = -T[m, -1]
    x = np.zeros(ncols)
    basis = np.array(basis)
    structural = basis < ncols
    x[basis[structural]] = rhs[structural]
    # artificial column j has cost 1 and reduced cost 1 - y_j
    y = 1.0 - T[m, ncols:ncols + m]
    return optimum, x, y


def joint_feasibility(table: AgreementTable) -> FeasibilityResult:
    """Decide whether the table lies in the classical agreement polytope.

    Feasible: returns atom weights over the 2^n deterministic assignments
    reproducing every q_ij (marginals unconstrained).  Infeasible: returns a
    separating inequality with strictly negative slack, which every
    classical table satisfies exactly (see ``InfeasibilityCertificate``).
    """
    n = table.n
    if n > MAX_OBSERVABLES:
        raise ValueError(f"n={n} exceeds the 2^n atom budget (max {MAX_OBSERVABLES})")
    A = np.vstack([atom_agreement(n), np.ones(2 ** n)])
    b = np.append(table.pair_values(), 1.0)

    # Atom a and its complement a ^ (2^n - 1) have equal columns, and every
    # pivot updates both alike, so they always have equal reduced costs; both
    # entering rules break ties by the lowest index, so the upper twin never
    # enters: solving on the lower half gives the same pivots, and the twins
    # keep weight 0.
    half = 2 ** (n - 1)
    optimum, w_half, y = _phase1_simplex(A[:, :half], b, DEFAULT_TOL)
    if optimum <= DEFAULT_TOL:
        w = np.zeros(2 ** n)
        w[:half] = np.maximum(w_half, 0.0)
        residual = float(np.max(np.abs(A @ w - b)))
        return FeasibilityResult(feasible=True, atom_weights=w, max_residual=residual)

    # y.b > 0 and y.A_col <= 0, so the coefficients -y_pair separate this
    # table from every atom; the bound is their exact minimum over the atoms
    # rounded down (twins share a column, so the lower half covers them all)
    coefficients = -y[:-1]
    bound = _atom_minimum(coefficients, atom_agreement(n)[:, :half])
    cert = InfeasibilityCertificate(n=n, coefficients=coefficients, bound=bound,
                                    slack=math.fsum(coefficients * table.pair_values()) - bound)
    return FeasibilityResult(feasible=False, certificate=cert)


def _atom_minimum(coefficients: np.ndarray, agree: np.ndarray) -> float:
    """The largest float at most  min over columns a of the exact sum of
    ``coefficients[agree[:, a]]``.

    ``math.fsum`` rounds each column's exact sum once, to nearest; rounding
    is monotone, so the smallest rounded sum is the exact minimum rounded
    once.  Where that rounding went up, the bound steps one float down.

    Only the columns near the minimum are summed exactly.  One product gives
    every column's float sum; its 0/1 products are exact, so without
    overflow each float sum lies within gamma_k * sum|c| of the exact one
    whatever the summation order, k being the coefficient count (Higham,
    *Accuracy and Stability of Numerical Algorithms*, sec. 4.2).  A column
    whose float sum exceeds the smallest by more than
    band = 4(k+1) 2^-53 sum|c| >= 2 gamma_k sum|c|  cannot hold the exact
    minimum, and every column whose rounded sum ties with it, which is all
    the step-down test needs, lies inside the band.  An overflowed product
    or sum|c| keeps every column.  Columns are summed one at a time, never
    gathered all at once.
    """
    columns = agree.T
    with np.errstate(over="ignore", invalid="ignore"):
        approx = coefficients @ agree
    if np.isfinite(approx).all():
        try:
            scale = math.fsum(np.abs(coefficients).tolist())
        except OverflowError:
            scale = math.inf
        band = 4 * (len(coefficients) + 1) * 2.0 ** -53 * scale
        columns = columns[approx <= approx.min() + band]
    sums = [math.fsum(coefficients[column].tolist()) for column in columns]
    bound = min(sums)
    for column, total in zip(columns, sums):
        if total == bound and math.fsum(coefficients[column].tolist() + [-bound]) < 0.0:
            return math.nextafter(bound, -math.inf)
    return bound


@dataclass(frozen=True, eq=False)
class FacetCheck:
    """One facet inequality  sum coeff * q >= bound;  slack < 0 = violated."""

    name: str
    coefficients: np.ndarray  # over pairs (0,1), (0,2), (1,2)
    bound: float
    slack: float

    @property
    def violated(self) -> bool:
        return self.slack < -DEFAULT_TOL

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "coefficients": self.coefficients.tolist(),
            "bound": self.bound,
            "slack": self.slack,
            "violated": self.violated,
        }


def bell_facets_n3(table: AgreementTable) -> list[FacetCheck]:
    """Evaluate the four facets of the 3-observable agreement polytope.

    Three transitivity facets q_ij + q_ik - q_jk <= 1 and the lower bound
    q_01 + q_02 + q_12 >= 1.  Together they are necessary and sufficient,
    so any violation must agree with the ``joint_feasibility`` verdict.
    """
    if table.n != 3:
        raise ValueError("facet evaluation is defined for n = 3 tables only")
    q01, q02, q12 = table.pair_values()
    # q_ij + q_ik - q_jk <= 1  <=>  -q_ij - q_ik + q_jk >= -1
    triangles = [
        ("triangle_drop_12", np.array([-1.0, -1.0, 1.0]), q01 + q02 - q12),
        ("triangle_drop_02", np.array([-1.0, 1.0, -1.0]), q01 + q12 - q02),
        ("triangle_drop_01", np.array([1.0, -1.0, -1.0]), q02 + q12 - q01),
    ]
    return [FacetCheck(name, coeffs, -TRIANGLE_FACET_BOUND,
                       slack=float(TRIANGLE_FACET_BOUND - lhs))
            for name, coeffs, lhs in triangles] + [
        FacetCheck("sum_lower", np.array([1.0, 1.0, 1.0]), SUM_FACET_BOUND,
                   slack=float(q01 + q02 + q12 - SUM_FACET_BOUND))]


def facets_feasible(checks: list[FacetCheck]) -> bool:
    return not any(c.violated for c in checks)


@dataclass(frozen=True)
class SphereScanResult:
    theta: float
    mode: str
    directions: tuple
    table: AgreementTable
    facets: list[FacetCheck]
    feasibility: FeasibilityResult

    @property
    def feasible(self) -> bool:
        return self.feasibility.feasible

    def to_dict(self) -> dict:
        return {
            "theta": self.theta,
            "mode": self.mode,
            "directions": [list(d) for d in self.directions],
            "table": self.table.to_dict(),
            "facets": [f.to_dict() for f in self.facets],
            "feasibility": self.feasibility.to_dict(),
            "verdict": "feasible" if self.feasible else "infeasible",
        }


def sphere_bell_scan(rho, theta: float, mode: str = "auto",
                     n_samples: int = 100_000, seed: int = 0) -> SphereScanResult:
    """Feasibility of sphere-measurement statistics on three coplanar
    directions at angles 0, theta, 2*theta.

    ``sequential`` builds the table from eigenstate-prepared sequential
    measurements (the contextual statistics).  ``hidden_state`` builds it
    from a single classical hidden state: initial positions sampled
    uniformly, break points drawn independently per measurement, all
    outcomes read off jointly; such tables are classical by construction.
    ``auto`` selects hidden_state for the deterministic (delta) elastic and
    sequential otherwise.
    """
    from . import sphere_model  # deferred: of this module, only the scan samples

    if not 0.0 < theta < math.pi:
        raise FieldError("theta", f"must lie strictly between 0 and pi, got {theta!r}")
    if mode not in SCAN_MODES:
        raise FieldError("mode", f"must be one of {', '.join(map(repr, SCAN_MODES))}, "
                         f"got {mode!r}")
    if mode == "auto":
        mode = "hidden_state" if rho.kind == "delta" else "sequential"
    directions = tuple(from_polar(k * theta, 0.0) for k in range(3))
    if mode == "sequential":
        table = sphere_model.agreement_table(rho, list(directions))
    else:
        table = sphere_model.hidden_state_agreement_table(
            rho, list(directions), n_samples=n_samples, seed=seed
        )

    facets = bell_facets_n3(table)
    feas = joint_feasibility(table)
    return SphereScanResult(
        theta=theta, mode=mode, directions=directions,
        table=table, facets=facets, feasibility=feas,
    )
