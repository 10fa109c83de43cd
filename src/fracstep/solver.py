"""Weighted-average time stepper for the fractional subdiffusion equation.

The scheme advances U_j^(m) (node j, level m) by

    U_j^(m+1) = U_j^(m)
              + (1 - lam) S sum_{k=0..m+1} w_k D_j^(m+1-k)
              + lam       S sum_{k=0..m}   w_k D_j^(m-k),

where D_j^(n) = U_{j-1}^(n) - 2 U_j^(n) + U_{j+1}^(n) is the second
difference, w_k are the fractional weights at exponent alpha = 1 - gamma,
and S = k_gamma dt^gamma / dx^2 is the mesh ratio (the operator step h is
identified with dt).  lam = 1 is the explicit method; lam < 1 couples the
unknown level through the k = 0 term of the first sum and requires a
tridiagonal solve with diagonal 1 + 2(1-lam) S w_0 and off-diagonals
-(1-lam) S w_0 -- strictly diagonally dominant, so elimination without
pivoting is stable.

By linearity both sums are second differences of convolved values: the
explicit part is D Q(m), Q(m) = sum_{j<=m} w_{m-j} U^(j), and the implicit
known part is D P(m+1), P(m+1) = sum_{j<=m} w_{m+1-j} U^(j).  Levels since
the start of the leaf of 64 holding level m-1 are summed directly; older
levels arrive in blocks through FFT products (Hairer, Lubich & Schlichte,
SIAM J. Sci. Stat. Comput. 6 (1985)).  Over M levels of N nodes that costs
O(N M log^2 M) time, and the rows plus one row of sums per level take
O(M N) memory.  The tridiagonal factors are computed once per coupling
constant.  One stepper advances a stack of B problems that share the node
count, each with its own weights, S and lam: ``run`` and ``step`` are its
B = 1 case, ``run_stacked`` runs a batch of stability probes in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from fracstep.coeffs import CoefficientTable, FormulaFamily, build_table

__all__ = [
    "ProblemSpec",
    "SchemeConfig",
    "SolutionHistory",
    "OverflowDetected",
    "mesh_ratio",
    "dt_for_mesh_ratio",
    "memory_term",
    "step",
    "run",
    "run_stacked",
]

OVERFLOW_LIMIT = 1e150
_CONSISTENCY_TOL = 1e-12


class OverflowDetected(Exception):
    """Raised when a computed level exceeds the overflow limit.

    This is a signal, not a crash: the stability probe treats it as
    "instability detected".  ``level`` is the first offending time level;
    ``history`` holds all levels computed before it.
    """

    def __init__(self, level: int, history: "SolutionHistory"):
        super().__init__(f"solution overflow at time level {level}")
        self.level = level
        self.history = history


@dataclass(frozen=True)
class ProblemSpec:
    """One subdiffusion PDE instance.

    gamma: anomalous diffusion exponent in (0, 1]; gamma = 1 is classical.
    k_gamma: generalized diffusion coefficient (length^2 / time^gamma).
    domain_length: length of the spatial interval [0, L].
    initial_condition: u(x, 0), sampled at the grid nodes.
    left_value, right_value: Dirichlet data, constant in time.
    """

    gamma: float
    k_gamma: float
    domain_length: float = 1.0
    initial_condition: Callable[[float], float] = lambda x: 0.0
    left_value: float = 0.0
    right_value: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if not (self.k_gamma > 0.0):
            raise ValueError(f"k_gamma must be > 0, got {self.k_gamma}")
        if not (self.domain_length > 0.0):
            raise ValueError(f"domain_length must be > 0, got {self.domain_length}")


@dataclass(frozen=True)
class SchemeConfig:
    """Numerical scheme parameters.

    lam: weight factor in [0, 1] (1 explicit, 0 fully implicit, 1/2
        Crank-Nicholson).
    dx, dt: grid spacings; the fractional-operator step equals dt.
    family: discretization formula family for the fractional weights.
    steps: number of time steps to take.
    startup_explicit_steps: hybrid mode -- this many initial steps run
        with lam = 1 regardless of ``lam``.
    """

    lam: float
    dx: float
    dt: float
    family: FormulaFamily = FormulaFamily.BDF1
    steps: int = 1
    startup_explicit_steps: int = 0

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lam must lie in [0, 1], got {self.lam}")
        if not (self.dx > 0.0):
            raise ValueError(f"dx must be > 0, got {self.dx}")
        if not (self.dt > 0.0):
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.startup_explicit_steps < 0:
            raise ValueError("startup_explicit_steps must be >= 0")


def mesh_ratio(problem: ProblemSpec, config: SchemeConfig) -> float:
    """S = k_gamma dt^gamma / dx^2, the dimensionless stability ratio."""
    return problem.k_gamma * config.dt**problem.gamma / config.dx**2


def dt_for_mesh_ratio(s: float, dx: float, gamma: float, k_gamma: float = 1.0) -> float:
    """Invert the mesh ratio: dt = (S dx^2 / k_gamma)^(1/gamma)."""
    if not (s > 0.0):
        raise ValueError(f"mesh ratio must be > 0, got {s}")
    return (s * dx * dx / k_gamma) ** (1.0 / gamma)


class SolutionHistory:
    """Full time history U_j^(m), levels 0..M by nodes 0..N.

    Row 0 is the sampled initial condition; every later row carries the
    Dirichlet data at its endpoints.  Rows are append-only.  ``step``
    keeps the running history sums of the memory convolution in a private
    cache beside the rows.
    """

    def __init__(self, first_row: np.ndarray, dx: float, dt: float, capacity: int = 8):
        first_row = np.asarray(first_row, dtype=float)
        if first_row.ndim != 1 or first_row.size < 3:
            raise ValueError("a history row needs at least 3 nodes")
        if not np.all(np.isfinite(first_row)):
            raise ValueError("initial condition contains non-finite values")
        self.dx = float(dx)
        self.dt = float(dt)
        n_nodes = first_row.size
        cap = max(capacity, 1) + 1
        # one problem of a stack: levels x 1 x nodes
        self._values = np.empty((cap, 1, n_nodes))
        self._memory: _HistorySums | None = None
        self._top = -1
        self._append(first_row)

    @property
    def n_nodes(self) -> int:
        return self._values.shape[2]

    @property
    def top_level(self) -> int:
        """Index m of the newest level."""
        return self._top

    @property
    def values(self) -> np.ndarray:
        """Read-only (levels+1, nodes) view of the computed history."""
        view = self._values[: self._top + 1, 0]
        view.flags.writeable = False
        return view

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.dx

    def level(self, m: int) -> np.ndarray:
        if not (0 <= m <= self._top):
            raise IndexError(f"level {m} not computed (top is {self._top})")
        view = self._values[m, 0]
        view.flags.writeable = False
        return view

    def _reserve(self) -> None:
        if self._top + 2 > self._values.shape[0]:
            grow = max(self._values.shape[0] * 2, self._top + 2)
            values = np.empty((grow, 1, self.n_nodes))
            values[: self._top + 1] = self._values[: self._top + 1]
            self._values = values

    def _append(self, row: np.ndarray) -> None:
        self._reserve()
        self._top += 1
        self._values[self._top] = row


def memory_term(history: SolutionHistory, table: CoefficientTable, m: int, j: int) -> float:
    """Discrete fractional-derivative convolution of the second difference.

    Returns sum_{k=0..m} w_k [U_{j-1}^(m-k) - 2 U_j^(m-k) + U_{j+1}^(m-k)]
    for interior node j, without the 1/h^(1-gamma) prefactor (it is
    absorbed into the mesh ratio S).  By linearity this is the second
    difference of the convolved values sum_k w_k U^(m-k).
    """
    if not (1 <= j <= history.n_nodes - 2):
        raise IndexError(f"node {j} is not interior")
    if not (0 <= m <= history.top_level):
        raise IndexError(f"level {m} not computed")
    if table.capacity < m:
        raise RuntimeError(
            f"coefficient table capacity {table.capacity} < level {m}; "
            "the stepper must pre-extend tables"
        )
    left, mid, right = table.array(m)[::-1] @ history.values[: m + 1, j - 1 : j + 2]
    return float(left - 2.0 * mid + right)


# levels per leaf: history sums within a leaf are summed directly
_LEAF = 64
# column chunks keep each FFT buffer near this many doubles
_FFT_DOUBLES = 1 << 14
# the second-difference stencil
_D2 = np.array([1.0, -2.0, 1.0])


class _HistorySums:
    """The far parts of Q(r) and P(r) for B stacked problems, one table each.

    All tables share the capacity K; ``far[r]`` is (B, N).  When the level
    count L is a multiple of the leaf size 64, the levels [L - b, L) are
    added to the rows [L + 1, L + b], with b = 64 2^v and 2^v the largest
    power of two dividing L/64, so a row r in (L', L' + 64] holds every
    level below L' once the flushes up to L' are done.  The cache also
    holds the tridiagonal factors per coupling constant.
    """

    def __init__(self, tables, n_nodes: int):
        self.tables = tables
        self.capacity = tables[0].capacity
        self.w = np.array([t.array(self.capacity) for t in tables])
        # rows (w_{k+1}, w_k) weigh level m-k in P(m+1) and in Q(m), for k < K
        self.pairs = np.stack((np.roll(self.w, -1, axis=1), self.w), axis=1)
        # zero pages are mapped on first write, so rows never reached cost nothing
        self.far = np.zeros((self.capacity + 1, len(tables), n_nodes))
        self.flushed = 0  # the flushes at level counts up to this are done
        self.factors: dict[float, tuple[list, list]] = {}
        self._spectra: dict[int, np.ndarray] = {}

    def flush(self, values: np.ndarray) -> None:
        """Add the levels [L - b, L) to the rows [L + 1, L + b], L = flushed + 64."""
        end = self.flushed = self.flushed + _LEAF
        b = _LEAF
        while (end // b) % 2 == 0:
            b *= 2
        n = 2 * b
        rows = min(b, self.capacity - end)
        spectrum = self._spectra.get(b)
        if spectrum is None:
            # w_1 .. w_2b, zero-padded past the table; circular outputs
            # b .. 2b-1 do not wrap
            spectrum = self._spectra[b] = np.fft.rfft(self.w[:, 1 : n + 1], n).T[:, :, None]
        block = values[end - b : end]
        # chunks of whole problems, or of columns of one problem, near
        # _FFT_DOUBLES doubles; the spectrum broadcasts over the columns
        cols = max(1, _FFT_DOUBLES // n)
        group = max(1, cols // block.shape[2])
        for p in range(0, block.shape[1], group):
            for c in range(0, block.shape[2], cols):
                product = np.fft.rfft(block[:, p : p + group, c : c + cols], n, axis=0)
                product *= spectrum[:, p : p + group]
                out = np.fft.irfft(product, n, axis=0)
                self.far[end + 1 : end + 1 + rows, p : p + group, c : c + cols] += out[b : b + rows]


def _thomas_factor(c: float, n: int) -> tuple[list, list]:
    """Factor the constant tridiagonal matrix diag(1+2c) off(-c), size n."""
    d = [1.0 + 2.0 * c]
    cp = [-c / d[0]]
    for _ in range(1, n):
        d.append((1.0 + 2.0 * c) + c * cp[-1])
        cp.append(-c / d[-1])
    return d, cp


def _thomas_solve(d: list, cp: list, c: float, rhs: np.ndarray) -> list:
    # Python floats in lists: far cheaper to index one by one than numpy arrays
    u = rhs.tolist()
    g = u[0] = u[0] / d[0]
    for i in range(1, len(u)):
        g = u[i] = (u[i] + c * g) / d[i]
    for i in range(len(u) - 2, -1, -1):
        g = u[i] = u[i] - cp[i] * g
    return u


def _advance(values, m, memory, implicit, explicit, ends, couplings):
    """Write level m + 1 of the problems stacked in ``values`` (levels, B, N).

    ``implicit`` = (1 - lam) S, ``explicit`` = lam S and the Dirichlet data
    ``ends`` are shared or per problem; ``couplings`` lists (1 - lam) S w_0
    per problem, None when all lam = 1.  Returns None when every new row
    is within the overflow limit, else the mask of the rows that are.
    """
    while memory.flushed + _LEAF <= m:
        memory.flush(values)
    # explicit part sum_{k=0..m} w_k D^(m-k) = D Q(m); implicit known part
    # sum_{k=1..m+1} w_k D^(m+1-k) = D P(m+1), its k = 0 term is the matrix.
    # Both near parts start at the leaf of level m-1 and come from one product.
    u = values[m]
    start = m - 1 - (m - 1) % _LEAF if m else 0
    sums = memory.pairs[:, :, m - start :: -1] @ values[start : m + 1].transpose(1, 0, 2)
    v = memory.far[m] + sums[:, 1]
    if couplings is None:
        v *= explicit
    else:
        # past the flush at a multiple of the leaf, P(m+1) has one near level
        past = sums[:, 0] if m % _LEAF else memory.w[:, 1:2] * u
        v = implicit * (memory.far[m + 1] + past) + explicit * v
    # D of the flattened rows is right at every interior node; the end
    # nodes take the Dirichlet data
    rows = values[m + 1]
    np.add(u.ravel()[1:-1], np.correlate(v.ravel(), _D2), out=rows.ravel()[1:-1])
    rows[:, :: rows.shape[1] - 1] = ends
    for i, c in enumerate(couplings or ()):
        if c != 0.0:
            rhs = rows[i, 1:-1]
            rhs[0] += c * rows[i, 0]
            rhs[-1] += c * rows[i, -1]
            factors = memory.factors.get(c)
            if factors is None:
                factors = memory.factors[c] = _thomas_factor(c, rhs.size)
            rhs[:] = _thomas_solve(*factors, c, rhs)
    # a NaN fails the comparison too
    if np.maximum.reduce(np.abs(rows), None) <= OVERFLOW_LIMIT:
        return None
    return np.abs(rows).max(axis=1) <= OVERFLOW_LIMIT


def step(
    history: SolutionHistory,
    problem: ProblemSpec,
    config: SchemeConfig,
    table: CoefficientTable,
    lam: float | None = None,
) -> np.ndarray:
    """Advance the history by one level and return the new row.

    ``lam`` overrides config.lam for this step (used by the hybrid
    startup).  Raises :class:`OverflowDetected` when the new row leaves
    the representable range.
    """
    m = history.top_level
    if table.capacity < m + 1:
        raise RuntimeError(
            f"coefficient table capacity {table.capacity} < {m + 1}; "
            "the stepper must pre-extend tables"
        )
    if lam is None:
        lam = config.lam

    # the sums are rebuilt for another table, and caught up after levels
    # appended without a step; both replay the same flushes
    memory = history._memory
    if memory is None or memory.tables[0] is not table or memory.capacity != table.capacity:
        memory = history._memory = _HistorySums((table,), history.n_nodes)
    history._reserve()
    s = mesh_ratio(problem, config)
    implicit = (1.0 - lam) * s
    overflow = _advance(
        history._values, m, memory, implicit, lam * s, (problem.left_value, problem.right_value),
        None if lam == 1.0 else [implicit * memory.w[0, 0]],
    )
    if overflow is not None:
        raise OverflowDetected(m + 1, history)
    history._top = m + 1
    return history._values[m + 1, 0].copy()


def _sample_ic(problem: ProblemSpec, config: SchemeConfig) -> np.ndarray:
    n_intervals = problem.domain_length / config.dx
    n = round(n_intervals)
    if n < 2 or abs(n_intervals - n) > 1e-9 * max(1.0, n):
        raise ValueError(
            f"dx={config.dx} does not evenly divide domain_length={problem.domain_length}"
        )
    xs = np.arange(n + 1) * config.dx
    row = np.array([float(problem.initial_condition(x)) for x in xs])
    if abs(row[0] - problem.left_value) > _CONSISTENCY_TOL or abs(
        row[-1] - problem.right_value
    ) > _CONSISTENCY_TOL:
        raise ValueError(
            "initial condition endpoints do not match the Dirichlet data "
            f"(got {row[0]}, {row[-1]}; expected {problem.left_value}, {problem.right_value})"
        )
    return row


def run(
    problem: ProblemSpec,
    config: SchemeConfig,
    table: CoefficientTable | None = None,
) -> SolutionHistory:
    """Run the full scheme: sample the IC, then take config.steps steps.

    When config.startup_explicit_steps = s > 0 the first s steps use
    lam = 1 (explicit) and the remainder use config.lam.  A table passed
    in must already hold weights up to steps + 1; it is shared read-only.
    One with more weights gives the same levels to rounding: the blocked
    FFT products take in the weights the table has.
    Raises :class:`OverflowDetected` (carrying the partial history) when
    the solution blows up.
    """
    alpha = 1.0 - problem.gamma
    if table is None:
        table = build_table(config.family, alpha, config.steps + 1)
    else:
        if table.family is not config.family or table.alpha != alpha:
            raise ValueError("provided table does not match (family, 1 - gamma)")
        if table.capacity < config.steps + 1:
            raise ValueError(
                f"provided table capacity {table.capacity} < steps + 1; "
                "pre-extend it or pass table=None"
            )
    row0 = _sample_ic(problem, config)
    history = SolutionHistory(row0, config.dx, config.dt, capacity=config.steps + 1)
    for m in range(config.steps):
        lam = 1.0 if m < config.startup_explicit_steps else config.lam
        step(history, problem, config, table, lam=lam)
    return history


def run_stacked(first_rows, tables, s, lam, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Step B problems that share the node count in lockstep, as one stack.

    Problem b starts from first_rows[b], whose ends are its Dirichlet
    data, with its own table (all of one capacity >= steps), S = s[b] and
    lam[b].  A problem that leaves the representable range is masked
    instead of ending the run: from that level on its interior is zero.
    Returns the (steps + 1, B, N) levels, cut after the last problem's
    overflow, and each problem's overflow level (0 if none).
    """
    first_rows = np.asarray(first_rows, dtype=float)
    if {t.capacity for t in tables} != {tables[0].capacity} or tables[0].capacity < steps:
        raise ValueError(f"tables need one capacity >= steps = {steps}")
    values = np.empty((steps + 1,) + first_rows.shape)
    values[0] = first_rows
    memory = _HistorySums(tables, first_rows.shape[1])
    s = np.reshape(s, (-1, 1))
    lam = np.reshape(lam, (-1, 1))
    implicit, explicit = (1.0 - lam) * s, lam * s
    ends = first_rows[:, :: first_rows.shape[1] - 1]
    couplings = np.ravel(implicit * memory.w[:, :1]).tolist() if implicit.any() else None
    overflow = np.zeros(len(first_rows), dtype=int)
    for m in range(steps):
        ok = _advance(values, m, memory, implicit, explicit, ends, couplings)
        if ok is not None:
            overflow[~ok] = m + 1
            # a masked problem keeps zero rows: it weighs both sums by 0
            values[m + 1, ~ok, 1:-1] = 0.0
            implicit[~ok] = explicit[~ok] = 0.0
            if couplings is not None:
                couplings = np.ravel(implicit * memory.w[:, :1]).tolist()
            if overflow.all():
                return values[: m + 2], overflow
    return values, overflow
