"""Weighted-average time stepper for the fractional subdiffusion equation.

The scheme advances U_j^(m) (node j, level m) by

    U_j^(m+1) = U_j^(m)
              + (1 - lam) S sum_{k=0..m+1} w_k D_j^(m+1-k)
              + lam       S sum_{k=0..m}   w_k D_j^(m-k),

where D is the second difference U_{j-1} - 2 U_j + U_{j+1}, w_k are the
fractional weights at exponent alpha = 1 - gamma, and S = k_gamma
dt^gamma / dx^2 is the mesh ratio (the operator step h is identified with
dt).  lam = 1 is the explicit method; lam < 1 couples the unknown level
through the k = 0 term of the first sum.

The weights approximate the operator to their family's order (see
``coeffs``); the scheme's observed order in dt is gamma for all of them.

The stepper works in the sine basis of the interior, where D is diagonal:
the line l through the Dirichlet values has D l = 0, and the modes zeta =
DST-I(U - l) (an rfft of the odd extension) evolve one by one.  With
sigma_k = -4 sin^2(pi k / (2(N-1))) and g = sigma / (1 - (1-lam) S w_0 sigma),

    zeta^(m+1) = zeta^(m) + g ((1 - lam) S R(m) + lam S Q(m)),

Q(m) = sum_{j<=m} w_{m-j} zeta^(j), R(m) = w_0 zeta^(m) + P(m+1) and
P(m+1) = sum_{j<=m} w_{m+1-j} zeta^(j): zeta(m+1) = zeta(m) + sum_{j<=m}
K_{m-j} zeta(j) with scalar K_i per mode.  Given the levels up to m0, the
16 levels of a block form a unit lower-triangular Toeplitz system whose
inverse H has the first column h_0 = 1, h_n = sum_{i<n} d_i h_{n-1-i}
(d_0 = 1 + K_0, d_i = K_i), set once per range as a contiguous (B, N - 2,
16, 16) array, which matmul hands to BLAS.  H is applied directly: h
grows like an unstable mode, so an FFT product would put eps max|h| on
every row.  Blocks start at a range start or a multiple of 16; levels
since the start of the leaf of 64 holding m0 are summed directly, and
older ones arrive in blocks of b levels (Hairer, Lubich & Schlichte, SIAM
J. Sci. Stat. Comput. 6 (1985)): for b <= 128 as direct products with a
strided Toeplitz view of w, for longer blocks as FFT products.  The
modes, the far sums and ``run``'s nodes are arrays of one row per level.
Level 0 is transformed in long double, because an unstable run amplifies
the rounding of its fastest-growing mode.

The stepper itself keeps only modes.  Overflow is checked once per block,
before its levels enter the far sums, and first in mode space: by the
inverse DST-I, max|U(r)| <= max|ends| + max_k |zeta_k(r)|.  Only a block
whose bound reaches the limit (less a margin for rounding; capped, so
that inf modes fail it) takes its nodes, l + the inverse transform of
zeta^(r), and checks them.  ``run`` steps one problem in at most two
ranges (the explicit startup, then the rest) and ``step`` one level of a
cached block; after each range its levels are written as U^(0) + the
inverse transform of zeta^(r) - zeta^(0), in chunks of levels.
``run_stacked`` steps stability probes in lockstep and keeps no nodes:
it returns l + the inverse transform of the last level's modes.  It steps
only the live modes, those nonzero at level 0 in some problem of the
stack: the update is diagonal in the sine basis, so a mode that starts at
exactly 0 stays exactly 0, and dropping it leaves the others' recurrences
as they are.  The checkerboard probe is symmetric about the centre, so
about half of its modes, the even ones, are not live.
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
    "MAX_HISTORY_CELLS",
    "check_history_size",
    "mesh_ratio",
    "dt_for_mesh_ratio",
    "memory_term",
    "step",
    "run",
    "run_stacked",
]

OVERFLOW_LIMIT = 1e150
_CONSISTENCY_TOL = 1e-12

#: Largest history (levels x problems x nodes) that ``run``, ``run_stacked``
#: and ``SolutionHistory`` accept: 128 MiB in each of the stepper's three
#: arrays.  Paper-scale fig3 needs 45,915 x 11, a 1,500-step CN solve 1,501 x 101.
MAX_HISTORY_CELLS = 1 << 24


def check_history_size(levels: int, nodes: int, problems: int = 1) -> None:
    """Raise ValueError when a history of this size passes ``MAX_HISTORY_CELLS``."""
    cells = levels * problems * nodes
    if cells > MAX_HISTORY_CELLS:
        raise ValueError(
            f"a history of {levels} levels x {problems} problems x {nodes} nodes = {cells} "
            f"cells exceeds MAX_HISTORY_CELLS = {MAX_HISTORY_CELLS}"
        )


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
        if not (0.0 < self.k_gamma < np.inf):
            raise ValueError(f"k_gamma must be finite and > 0, got {self.k_gamma}")
        if not (0.0 < self.domain_length < np.inf):
            raise ValueError(f"domain_length must be finite and > 0, got {self.domain_length}")


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
        if not (0.0 < self.dx < np.inf):
            raise ValueError(f"dx must be finite and > 0, got {self.dx}")
        if not (0.0 < self.dt < np.inf):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
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
    ProblemSpec(gamma, k_gamma)  # checks gamma and k_gamma
    try:
        return (s * dx * dx / k_gamma) ** (1.0 / gamma)
    except OverflowError:
        raise ValueError(f"dt overflows at S={s}, dx={dx}, gamma={gamma}") from None


class SolutionHistory:
    """Full time history U_j^(m), levels 0..M by nodes 0..N.

    Row 0 is the sampled initial condition; every later row carries the
    Dirichlet data at its endpoints.  Rows are append-only.  The stepper
    keeps the sine modes of the levels and the far history sums of the
    memory convolution in a private cache beside the rows.
    """

    def __init__(self, first_row: np.ndarray, dx: float, dt: float, capacity: int = 8):
        first_row = np.asarray(first_row, dtype=float)
        if first_row.ndim != 1 or first_row.size < 3:
            raise ValueError("a history row needs at least 3 nodes")
        if not np.all(np.isfinite(first_row)):
            raise ValueError("initial condition contains non-finite values")
        check_history_size(max(capacity, 1) + 1, first_row.size)
        self.dx, self.dt = float(dx), float(dt)
        # one problem of a stack: levels x 1 x nodes
        self._values = np.empty((max(capacity, 1) + 1, 1, first_row.size))
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
            check_history_size(self._top + 2, self.n_nodes)
            grow = min(self._values.shape[0] * 2, MAX_HISTORY_CELLS // self.n_nodes)
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
# levels per block solve; divides _LEAF, so no block crosses a flush
_BLOCK = 16
# column chunks keep each FFT buffer near this many doubles
_FFT_DOUBLES = 1 << 14
# flushes of up to this many levels are direct Toeplitz products, longer ones FFT products
_DIRECT_FLUSH = 128
# and each direct product has about this many outputs: numpy hands large products of
# strided views to BLAS, whose packing buffers then raise a process's peak memory
_DIRECT_VALUES = 1 << 12
# nodes are taken in chunks of about this many values, so that the chunk's
# transform buffers do not raise a run's peak memory
_NODE_VALUES = 1 << 12
# the mode bound passes below this share of the limit: the nodes' rounding drift from
# their modes stays far below 1e-6 of the largest node within the history budget
_BOUND_SHARE = 1.0 - 1e-6
# and below this cap, so that inf modes and any whose transform could overflow fail it
_BOUND_CAP = 1e200


def _modes(v: np.ndarray) -> np.ndarray:
    """-2 DST-I(v) of rows v (..., n): the rfft of the odd extension (0, v, 0, -v reversed)."""
    n = v.shape[-1]
    odd = np.zeros(v.shape[:-1] + (2 * n + 2,), v.dtype)
    odd[..., 1 : n + 1] = v
    odd[..., : n + 1 : -1] = -v
    return np.fft.rfft(odd)[..., 1 : n + 1].imag


def _unmodes(zeta: np.ndarray) -> np.ndarray:
    """The rows v (..., n) whose ``_modes`` are zeta: the irfft of i (0, zeta, 0)."""
    n = zeta.shape[-1]
    spectrum = np.zeros(zeta.shape[:-1] + (n + 2,), complex)
    spectrum.imag[..., 1:-1] = zeta
    return np.fft.irfft(spectrum, 2 * n + 2)[..., 1 : n + 1]


class _HistorySums:
    """The modes of B stacked problems and the far parts of their Q(r) and P(r).

    The far part of P(m+1) is that of R(m) = w_0 zeta(m) + P(m+1).  Each
    problem has its own table; all share the capacity K.  ``modes[r]`` and
    ``far[r]`` are (B, len(live)): the modes ``live`` (default all N - 2)
    are stepped, the others are 0 at every level.  When the level count L
    is a multiple of the leaf size 64, the levels [L - b, L) are added to
    the rows [L + 1, L + b], with b = 64 2^v and 2^v the largest power of
    two dividing L/64, so a row r in (L', L' + 64] holds every level below
    L' once the flushes up to L' are done.
    """

    def __init__(self, tables, n_nodes: int, live=None):
        self.tables = tables
        self.live = np.arange(n_nodes - 2) if live is None else live
        self.n_modes = n_nodes - 2
        self.capacity = tables[0].capacity
        # w_0 .. w_K of each problem, zero past the table
        self.w = np.zeros((len(tables), max(self.capacity + 1, _LEAF + _BLOCK + 1)))
        self.w[:, : self.capacity + 1] = [t.array(self.capacity) for t in tables]
        # near[b, i, t] = w_{i+t}, a view: level m0 - t in Q(m0 + i) and R(m0 + i - 1)
        shape = (len(tables), _BLOCK + 1, self.w.shape[1] - _BLOCK)
        self.near = np.ndarray(shape, buffer=self.w, strides=self.w.strides + (8,))
        # zero pages are mapped on first write, so rows never reached cost nothing
        self.modes = np.zeros((self.capacity + 1, len(tables), len(self.live)))
        self.far = np.zeros((self.capacity + 1 + _BLOCK,) + self.modes.shape[1:])
        # the eigenvalues of D on the interior modes
        sigma = -4.0 * np.sin(np.arange(1, n_nodes - 1) * (0.5 * np.pi / (n_nodes - 1))) ** 2
        self.sigma = sigma[self.live]
        self.known = 0  # the modes of the levels below this are held
        self.flushed = 0  # the flushes at level counts up to this are done
        self.key = None
        self._spectra: dict[int, np.ndarray] = {}

    def nodes(self, zeta: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """``_nodes`` of levels (..., B, len(live)) of the stepped modes, the others 0."""
        full = np.zeros(zeta.shape[:-1] + (self.n_modes,))
        full[..., self.live] = zeta
        return _nodes(full, ends)

    def begin(self, origin: int, key, implicit, explicit) -> None:
        """Start a range at ``origin``: g and the block inverse H (B, len(live), 16, 16)."""
        self.origin, self.key, self.solved = origin, key, (-1, None)  # solved: m0, its increments
        if implicit is None:  # g = sigma / (1 - (1 - lam) S w_0 sigma), times each part's S
            self.g = self.sigma * explicit, None
        else:
            g = self.sigma / (1.0 - implicit * self.w[:, :1] * self.sigma)
            self.g = g * explicit, g * implicit
        # K_i = a w_i + c p_i with p_0 = w_0 + w_1, p_i = w_{i+1}
        w = self.w[:, None, : _BLOCK + 1]
        k = self.g[0][..., None] * w[..., :-1]
        if implicit is not None:
            k += self.g[1][..., None] * w[..., 1:]
            k[..., 0] += self.g[1] * self.w[:, :1]
        # sum_{l<i} K_l: zeta(m0) in row i once the unknowns are zeta(m0 + 1 + i) - zeta(m0)
        self.drift = np.moveaxis(np.cumsum(k, axis=-1) - k, -1, 0)
        padded = np.zeros(k.shape[:2] + (2 * _BLOCK - 1,))  # _BLOCK - 1 zeros, then h
        h = padded[..., _BLOCK - 1 :]
        h[..., 0] = 1.0
        for n in range(1, _BLOCK):
            h[..., n] = h[..., n - 1] + (k[..., :n] * h[..., n - 1 :: -1]).sum(axis=-1)
        shape = padded.shape[:2] + (_BLOCK, _BLOCK)  # H[b, k, i, l] = h_{i-l}, contiguous for BLAS
        self.inverse = np.ndarray(shape, buffer=padded, strides=padded.strides + (8,))[..., ::-1].copy()

    def flush(self) -> None:
        """Add the levels [L - b, L) to the rows [L + 1, L + b], L = flushed + 64."""
        end = self.flushed = self.flushed + _LEAF
        b = _LEAF
        while (end // b) % 2 == 0:
            b *= 2
        rows = min(b, self.capacity - end)
        block = self.modes[end - b : end]
        direct = b <= _DIRECT_FLUSH
        if direct:
            # far[end + 1 + i] += sum_t w_{2 + i + t} zeta(end - 1 - t): a strided view of
            # w_2 .. w_{rows + b}, within the table, against the levels newest first
            shape = (len(self.tables), rows, b)
            toeplitz = np.ndarray(shape, buffer=self.w, offset=16, strides=self.w.strides + (8,))
            levels = block[::-1].transpose(1, 0, 2)
        else:
            spectrum = self._spectra.get(b)
            if spectrum is None:
                # w_1 .. w_2b, zero-padded past the table; circular outputs
                # b .. 2b-1 do not wrap
                spectrum = np.fft.rfft(self.w[:, 1 : 2 * b + 1], 2 * b).T[:, :, None]
                self._spectra[b] = spectrum
        # chunks of whole problems, or of columns of one problem; the spectrum
        # broadcasts over the columns
        cols = max(1, _DIRECT_VALUES // rows if direct else _FFT_DOUBLES // (2 * b))
        group = max(1, cols // max(1, block.shape[2]))
        for p in range(0, block.shape[1], group):
            for c in range(0, block.shape[2], cols):
                if direct:
                    product = toeplitz[p : p + group] @ levels[p : p + group, :, c : c + cols]
                    product = product.transpose(1, 0, 2)
                else:
                    product = np.fft.rfft(block[:, p : p + group, c : c + cols], 2 * b, axis=0)
                    product *= spectrum[:, p : p + group]
                    product = np.fft.irfft(product, 2 * b, axis=0)[b : b + rows]
                self.far[end + 1 : end + 1 + rows, p : p + group, c : c + cols] += product


def _solve_block(memory, m0):
    """zeta(m0 + 1 + i) - zeta(m0) for i < _BLOCK, (_BLOCK, B, len(live)), in the range begun."""
    modes, far, explicit, implicit = memory.modes, memory.far, *memory.g
    # b of rows m0 .. m0 + _BLOCK - 1 from the levels up to m0, every row formed
    start = m0 - m0 % _LEAF
    levels = modes[start : m0 + 1][::-1].transpose(1, 0, 2)
    near = (memory.near[:, :, : m0 + 1 - start] @ levels).transpose(1, 0, 2)
    b = far[m0 : m0 + _BLOCK] + near[:-1]
    if m0 == start and m0:
        # Q(m0) also takes the levels of the previous leaf
        b[0] += (memory.w[:, None, _LEAF:0:-1] @ modes[m0 - _LEAF : m0].transpose(1, 0, 2))[:, 0]
    b *= explicit
    if implicit is not None:
        r = far[m0 + 1 : m0 + 1 + _BLOCK] + near[1:]
        r[0] += memory.w[:, :1] * modes[m0]
        r *= implicit
        b += r
    b += memory.drift * modes[m0]
    return (memory.inverse @ b.transpose(1, 2, 0)[..., None])[..., 0].transpose(2, 0, 1)


def _line(ends: np.ndarray, n: int) -> np.ndarray:
    """The lines (B, n) through the Dirichlet data (B, 2) on n nodes."""
    return ends[:, :1] + (ends[:, 1:] - ends[:, :1]) * np.linspace(0.0, 1.0, n)


def _level_modes(rows: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The modes (..., B, N - 2) of node rows (..., B, N) less their line, in long double."""
    return _modes(rows[..., 1:-1].astype(np.longdouble) - _line(ends, rows.shape[-1])[:, 1:-1])


def _nodes(zeta: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The nodes (..., B, N) of levels from their modes: the line through the ends + v."""
    n = zeta.shape[-1] + 2
    rows = np.empty(zeta.shape[:-1] + (n,))
    rows[..., 1:-1] = _line(ends, n)[:, 1:-1] + _unmodes(zeta)
    rows[..., :: n - 1] = ends
    return rows


def _advance(lo, hi, memory, ends):
    """Step the modes of the stacked problems from level lo to level hi.

    Blocks start at the range's origin and at multiples of _BLOCK; one that
    starts before lo keeps only its rows past lo.  The Dirichlet data
    ``ends`` are shared or per problem (B, 2).  Returns None when every new
    level is within the overflow limit, else (the level reached, each
    problem's first level past the limit or 0).
    """
    modes = memory.modes
    memory.known = hi + 1  # once this range is done; a caller cuts it at an overflow
    # max|U(r)| <= max|ends| + max_k |zeta_k(r)|, as |sin| <= 1 in the inverse DST-I
    bound = min(OVERFLOW_LIMIT, _BOUND_CAP) * _BOUND_SHARE - np.abs(ends).max()
    m0 = max(memory.origin, lo - lo % _BLOCK)
    # levels past an overflow run on to the check, their inf and NaN are discarded
    with np.errstate(over="ignore", invalid="ignore"):
        while m0 < hi:
            while memory.flushed + _LEAF <= m0:
                memory.flush()
            if memory.solved[0] != m0:
                memory.solved = m0, _solve_block(memory, m0)
            first, end = max(lo, m0), min(m0 + _BLOCK - m0 % _BLOCK, hi)
            block = modes[first + 1 : end + 1]
            np.add(memory.solved[1][first - m0 : end - m0], modes[m0], out=block)
            # the exact check, on the nodes, before a flush takes the levels in; a NaN
            # fails the comparisons too; the modes not stepped are 0
            if not (block.max(initial=0.0) <= bound and block.min(initial=0.0) >= -bound):
                rows = memory.nodes(block, ends)
                if not (rows.max() <= OVERFLOW_LIMIT and rows.min() >= -OVERFLOW_LIMIT):
                    bad = ~(np.abs(rows).max(axis=2) <= OVERFLOW_LIMIT)
                    return end, np.where(bad.any(axis=0), bad.argmax(axis=0) + first + 1, 0)
            m0 = end
    return None


def _advance_history(history, problem, memory, hi, lam, s) -> None:
    """Advance one problem's history to level hi with one lam; raise on overflow.

    The range goes on, with its block origin, while lam, S and the ends
    hold.  Its levels are written as U(r) = U(0) + the inverse transform of
    zeta(r) - zeta(0), in chunks of levels.
    """
    lo, values, modes = history._top, history._values, memory.modes
    key = (lam, s, problem.left_value, problem.right_value)
    if memory.key != key or memory.known != lo + 1:
        memory.begin(lo, key, None if lam == 1.0 else (1.0 - lam) * s, lam * s)
    ends = np.array([[problem.left_value, problem.right_value]])
    if memory.known <= lo:  # level 0, or levels appended outside the stepper
        modes[memory.known : lo + 1] = _level_modes(values[memory.known : lo + 1], ends)
    found = _advance(lo, hi, memory, ends)
    top = hi if found is None else int(found[1][0]) - 1
    chunk = max(1, _NODE_VALUES // history.n_nodes)
    for a in range(lo + 1, top + 1, chunk):
        rows = values[a : min(a + chunk, top + 1), 0]
        rows[:, 1:-1] = values[0, 0, 1:-1] + _unmodes(modes[a : a + len(rows), 0] - modes[0, 0])
        rows[:, :: history.n_nodes - 1] = ends
    history._top = top
    if found is not None:
        memory.known = top + 1
        raise OverflowDetected(top + 1, history)


def step(
    history: SolutionHistory,
    problem: ProblemSpec,
    config: SchemeConfig,
    table: CoefficientTable,
    lam: float | None = None,
) -> np.ndarray:
    """Advance the history by one level and return the new row.

    ``lam`` overrides config.lam for this step (used by the hybrid
    startup).  The level is ``run``'s bit for bit, from the same block.  A
    table whose levels pass ``MAX_HISTORY_CELLS`` cells is refused.  Raises
    :class:`OverflowDetected` when the new row leaves the representable range.
    """
    m = history.top_level
    if table.capacity < m + 1:
        raise RuntimeError(
            f"coefficient table capacity {table.capacity} < {m + 1}; "
            "the stepper must pre-extend tables"
        )
    lam = config.lam if lam is None else lam
    if not (0.0 <= lam <= 1.0):  # else the update's 1 - (1 - lam) S w_0 sigma can be 0
        raise ValueError(f"lam must lie in [0, 1], got {lam}")
    # the modes and sums are rebuilt for another table, and caught up after
    # levels appended without a step; both replay the same flushes
    memory = history._memory
    if memory is None or memory.tables[0] is not table or memory.capacity != table.capacity:
        check_history_size(table.capacity + 1, history.n_nodes)
        memory = history._memory = _HistorySums((table,), history.n_nodes)
    history._reserve()
    _advance_history(history, problem, memory, m + 1, lam, mesh_ratio(problem, config))
    return history._values[m + 1, 0].copy()


def _node_count(problem: ProblemSpec, config: SchemeConfig) -> int:
    n_intervals = problem.domain_length / config.dx
    n = round(n_intervals)
    if n < 2 or abs(n_intervals - n) > 1e-9 * max(1.0, n):
        raise ValueError(
            f"dx={config.dx} does not evenly divide domain_length={problem.domain_length}"
        )
    return n + 1


def _sample_ic(problem: ProblemSpec, config: SchemeConfig, nodes: int) -> np.ndarray:
    xs = np.arange(nodes) * config.dx
    row = np.array([float(problem.initial_condition(x)) for x in xs])
    if np.abs(row[[0, -1]] - [problem.left_value, problem.right_value]).max() > _CONSISTENCY_TOL:
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
    FFT products take in the weights the table has.  A history of more
    than ``MAX_HISTORY_CELLS`` cells is refused before anything is built.
    Raises :class:`OverflowDetected` (carrying the partial history) when
    the solution blows up.
    """
    nodes = _node_count(problem, config)
    check_history_size(config.steps + 1, nodes)
    alpha = 1.0 - problem.gamma
    if table is None:
        table = build_table(config.family, alpha, config.steps + 1)
    elif table.family is not config.family or table.alpha != alpha:
        raise ValueError("provided table does not match (family, 1 - gamma)")
    elif table.capacity < config.steps + 1:
        raise ValueError(
            f"provided table capacity {table.capacity} < steps + 1; "
            "build a larger one or pass table=None"
        )
    row0 = _sample_ic(problem, config, nodes)
    history = SolutionHistory(row0, config.dx, config.dt, capacity=config.steps)
    # not kept on the history: a finished run holds only its nodes
    memory = _HistorySums((table,), nodes)
    s = mesh_ratio(problem, config)
    startup = min(config.startup_explicit_steps, config.steps)
    _advance_history(history, problem, memory, startup, 1.0, s)
    _advance_history(history, problem, memory, config.steps, config.lam, s)
    return history


def run_stacked(first_rows, tables, s, lam, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Step B problems that share the node count in lockstep, as one stack.

    Problem b starts from first_rows[b], whose ends are its Dirichlet
    data, with its own table (all of one capacity >= steps), S = s[b] and
    lam[b].  A problem that leaves the representable range is masked
    instead of ending the run: from that level on its modes are zero, and
    once all are masked the run stops.  Only the live modes are stepped:
    those nonzero at level 0 in some problem.  The others would stay exactly
    0, as the stepper is diagonal in the sine basis, so the levels are those
    of stepping every mode.  Only their rounding can move, where BLAS blocks
    a product of the narrower width differently: a 33-node probe gives the
    same bits.  Nodes are formed only for a block that fails the
    mode bound and for the last level, which is returned (B, N, masked
    interiors zero) with each problem's overflow level (0 if none).  A stack
    of more than ``MAX_HISTORY_CELLS`` cells is refused.
    """
    first_rows = np.asarray(first_rows, dtype=float)
    s, lam = (np.array(x, dtype=float).reshape(-1, 1) for x in (s, lam))
    if first_rows.ndim != 2 or first_rows.shape[1] < 3:
        raise ValueError(f"a history row needs at least 3 nodes, got shape {first_rows.shape}")
    sizes = (len(first_rows), len(tables), len(s), len(lam))
    if min(sizes) != max(sizes) or not sizes[0]:
        raise ValueError(f"first_rows, tables, s and lam need one entry per problem, got {sizes}")
    if not np.isfinite(first_rows).all():
        raise ValueError("initial condition contains non-finite values")
    bad_lam, bad_s = lam[~((0.0 <= lam) & (lam <= 1.0))], s[~((0.0 < s) & (s < np.inf))]
    if bad_lam.size:
        raise ValueError(f"lam must lie in [0, 1], got {bad_lam[0]}")
    if bad_s.size:
        raise ValueError(f"s must be finite and > 0, got {bad_s[0]}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    n_problems, n = first_rows.shape
    check_history_size(steps + 1, n, n_problems)
    if {t.capacity for t in tables} != {tables[0].capacity} or tables[0].capacity < steps:
        raise ValueError(f"tables need one capacity >= steps = {steps}")
    ends = first_rows[:, :: n - 1]
    zeta0 = _level_modes(first_rows, ends)
    memory = _HistorySums(tables, n, np.flatnonzero(zeta0.any(axis=0)))
    implicit, explicit = (1.0 - lam) * s, lam * s
    implicit = implicit if implicit.any() else None
    overflow, level = np.zeros(n_problems, dtype=int), 0
    memory.begin(0, None, implicit, explicit)
    memory.modes[0] = zeta0[:, memory.live]
    while (found := _advance(level, steps, memory, ends)) is not None:
        level, first = found
        # a masked problem keeps zero modes: it weighs both sums by 0
        for b in np.flatnonzero(first):
            memory.modes[first[b] : level + 1, b] = 0.0
        masked = first > 0
        overflow[masked] = first[masked]
        explicit[masked] = 0.0
        if implicit is not None:
            implicit[masked] = 0.0
        if overflow.all():
            break
        memory.begin(level, None, implicit, explicit)
    last = memory.nodes(memory.modes[level if overflow.all() else steps], ends)
    last[overflow > 0, 1:-1] = 0.0
    return last, overflow
