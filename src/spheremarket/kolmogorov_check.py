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


def pair_indices(n: int) -> list[tuple[int, int]]:
    """Row order used everywhere: the pairs of ``pair_index(n)`` as tuples."""
    return list(zip(*(a.tolist() for a in pair_index(n))))


def atom_signs(n: int) -> np.ndarray:
    """(2^n, n) matrix of deterministic outcome assignments in {0, 1}.

    Atom a assigns observable i the bit (a >> i) & 1.
    """
    atoms = np.arange(2 ** n, dtype=np.int64)
    return ((atoms[:, None] >> np.arange(n)) & 1).astype(np.int8)


@functools.lru_cache(maxsize=MAX_OBSERVABLES + 1)
def atom_agreement(n: int) -> np.ndarray:
    """Read-only (pairs, 2^n) bool matrix: atom a gives the two observables
    of pair k equal bits.  Every pair agrees on exactly half of the atoms."""
    bits = atom_signs(n).T
    i, j = pair_index(n)
    agree = bits[i] == bits[j]
    agree.setflags(write=False)
    return agree


@dataclass(frozen=True, eq=False)
class AgreementTable:
    """Symmetric n x n matrix of pairwise agreement probabilities.

    Unit diagonal, symmetry and [0, 1] entries are validated to 1e-12 and
    then canonicalized (fp dust clipped, diagonal pinned to 1).
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"agreement table must be square, got shape {q.shape}")
        n = q.shape[0]
        if n < 2:
            raise ValueError("need at least 2 observables")
        if not np.allclose(q, q.T, atol=1e-12, rtol=0.0):
            raise ValueError("agreement table must be symmetric")
        if not np.allclose(np.diag(q), 1.0, atol=1e-12, rtol=0.0):
            raise ValueError("diagonal entries must equal 1")
        if q.min() < -1e-12 or q.max() > 1.0 + 1e-12:
            raise ValueError("entries must lie in [0, 1]")
        q = np.clip(0.5 * (q + q.T), 0.0, 1.0)
        np.fill_diagonal(q, 1.0)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    def __eq__(self, other):
        return isinstance(other, AgreementTable) and np.array_equal(self.q, other.q)

    def __hash__(self):
        return hash(self.q.tobytes())

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def pair_values(self) -> np.ndarray:
        return self.q[pair_index(self.n)]

    @staticmethod
    def from_pair_values(n: int, values) -> "AgreementTable":
        values = np.asarray(values, dtype=float)
        i, j = pair_index(n)
        if values.shape != i.shape:
            raise ValueError(f"expected {i.size} pair values for n={n}")
        q = np.eye(n)
        q[i, j] = q[j, i] = values
        return AgreementTable(q)

    def permuted(self, perm) -> "AgreementTable":
        p = np.asarray(perm, dtype=int)
        return AgreementTable(self.q[np.ix_(p, p)])

    def to_dict(self) -> dict:
        return {"n": self.n, "q": self.q.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "AgreementTable":
        return AgreementTable(np.asarray(d["q"], dtype=float))


def table_from_atom_weights(n: int, weights) -> AgreementTable:
    """Agreement table of a mixture of deterministic assignments.

    ``weights`` are nonnegative over the 2^n atoms; they are normalized to
    sum 1.  Tables built this way are classical by construction.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (2 ** n,):
        raise ValueError(f"expected {2 ** n} atom weights")
    if w.min() < 0:
        raise ValueError("atom weights must be nonnegative")
    total = w.sum()
    if total <= 0:
        raise ValueError("atom weights must have positive total mass")
    agree = atom_agreement(n)
    # each row gathers the 2^(n-1) agreeing weights in atom order, so its sum
    # is the same pairwise sum as w[mask].sum() over that pair's mask
    w = np.broadcast_to(w / total, agree.shape)[agree].reshape(len(agree), -1)
    return AgreementTable.from_pair_values(n, w.sum(axis=1))


def random_agreement_table(n: int, rng: np.random.Generator) -> AgreementTable:
    """Valid table with off-diagonal entries i.i.d. uniform on [0, 1]."""
    vals = rng.random(len(pair_indices(n)))
    return AgreementTable.from_pair_values(n, vals)


@dataclass(frozen=True, eq=False)
class InfeasibilityCertificate:
    """Separating inequality: every classical table satisfies
    sum_k coefficients[k] * q[pairs[k]] >= bound; this table violates it
    with the stated (strictly negative) slack."""

    pairs: tuple[tuple[int, int], ...]
    coefficients: np.ndarray
    bound: float
    slack: float

    def evaluate(self, table: AgreementTable) -> float:
        """Slack of the inequality on another table (>= 0 when satisfied)."""
        i, j = np.array(self.pairs).T
        return float(self.coefficients @ table.q[i, j] - self.bound)

    def to_dict(self) -> dict:
        return {
            "pairs": [list(p) for p in self.pairs],
            "coefficients": self.coefficients.tolist(),
            "bound": self.bound,
            "slack": self.slack,
        }

    def __str__(self):
        terms = " + ".join(
            f"{c:+.6g}*q{i}{j}" for c, (i, j) in zip(self.coefficients, self.pairs)
        )
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


def _phase1_simplex(A: np.ndarray, b: np.ndarray, tol: float):
    """Phase-1 simplex with Bland's rule for  A x = b, x >= 0,  b >= 0.

    Minimizes the total artificial infeasibility.  Returns
    ``(optimum, x, y)`` where ``x`` is the primal point over the original
    columns and ``y`` the simplex multipliers at termination.  When
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
    basis = np.arange(ncols, ncols + m)
    # reduced costs r_j = c_j - y.A_j with starting multipliers y = 1
    T[m, :ncols] = -A.sum(axis=0)
    T[m, -1] = -b.sum()  # stores -objective
    red, rhs = T[m, :-1], T[:m, -1]  # views, updated by every pivot
    update = np.empty_like(T)

    for _ in range(200 * (ncols + m)):  # iteration cap
        entering = int((red < -tol).argmax())  # Bland: lowest eligible index
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
        # rank-1 update of the other rows; a row whose pivot-column entry is
        # zero subtracts +0.0, and x - (+0.0) is x bit for bit, signed zeros
        # included, so the rows the pivot does not touch keep their bytes
        factor = T[:, entering]
        skip = factor == 0.0
        skip[leaving] = True
        np.multiply(factor[:, None], T[leaving], out=update)
        update[skip] = 0.0
        np.subtract(T, update, out=T)
        basis[leaving] = entering
    else:
        raise RuntimeError("simplex iteration limit exceeded")

    optimum = -T[m, -1]
    x = np.zeros(ncols)
    structural = basis < ncols
    x[basis[structural]] = rhs[structural]
    # artificial column j has cost 1 and reduced cost 1 - y_j
    y = 1.0 - T[m, ncols:ncols + m]
    return optimum, x, y


def joint_feasibility(table: AgreementTable) -> FeasibilityResult:
    """Decide whether the table lies in the classical agreement polytope.

    Feasible: returns atom weights over the 2^n deterministic assignments
    reproducing every q_ij (marginals unconstrained).  Infeasible: returns a
    separating inequality with strictly negative slack.
    """
    n = table.n
    if n > MAX_OBSERVABLES:
        raise ValueError(f"n={n} exceeds the 2^n atom budget (max {MAX_OBSERVABLES})")
    A = np.vstack([atom_agreement(n), np.ones(2 ** n)])
    b = np.append(table.pair_values(), 1.0)

    # Atom a and its complement a ^ (2^n - 1) have equal columns, and every
    # pivot updates both alike, so Bland's rule (lowest index first) never
    # lets the upper twin enter: solving on the lower half gives the same
    # pivots, and the twins keep weight 0.
    half = 2 ** (n - 1)
    optimum, w_half, y = _phase1_simplex(A[:, :half], b, DEFAULT_TOL)
    if optimum <= DEFAULT_TOL:
        w = np.zeros(2 ** n)
        w[:half] = np.maximum(w_half, 0.0)
        residual = float(np.max(np.abs(A @ w - b)))
        return FeasibilityResult(feasible=True, atom_weights=w, max_residual=residual)

    # y.b > 0 and y.A_col <= 0, so  sum(-y_pair) q - y_norm >= 0  holds for
    # every classical table and fails here with slack exactly -optimum.
    cert = InfeasibilityCertificate(pairs=tuple(pair_indices(n)), coefficients=-y[:-1],
                                    bound=float(y[-1]), slack=-float(y @ b))
    return FeasibilityResult(feasible=False, certificate=cert)


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
            "directions": [[d.x, d.y, d.z] for d in self.directions],
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
    from . import sphere_model  # deferred: sphere_model imports AgreementTable

    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie strictly between 0 and pi")
    if mode not in SCAN_MODES:
        raise ValueError(f"unknown scan mode: {mode!r}")
    directions = tuple(from_polar(k * theta, 0.0) for k in range(3))
    if mode == "auto":
        mode = "hidden_state" if isinstance(rho, sphere_model.DeltaRho) else "sequential"
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
