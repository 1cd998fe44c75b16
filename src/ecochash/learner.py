"""Online SGD over linear-threshold hash functions.

Each column t of the code is produced by f_t(x) = sgn(w_t . [x;1]), with
sgn(0) = +1, taken of the exact real dot product of the stored float64
weights and features (``exact_signs``), so no bit depends on the order in
which a matrix product sums. Training minimizes a convex margin surrogate
of the masked Hamming distance between the mapping's output and the
observed label's ternary codeword; inactive codeword positions contribute
neither loss nor gradient, so only the k functions of the label's cycle are
ever touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitcode import PackedCode, TernaryCodeword
from .codebook import Codebook
from .ecoc import EcocMatrix, Label
from .errors import CodebookExhaustedError, ConsistencyError, DimensionError


@dataclass
class StepReport:
    """What one training step did; drives index refresh and cost accounting."""

    label: Label
    touched_columns: range
    surrogate_loss_before: float
    new_cycle_started: bool
    is_new_label: bool


def init_functions(d: int, count: int, seed) -> np.ndarray:
    """Gaussian random hyperplanes: entries ~ N(0, 1/(d+1)), bias 0.

    Returns a (count, d+1) float64 array of homogeneous weight vectors,
    deterministic for a fixed seed.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    w = np.random.default_rng(seed).standard_normal((count, d + 1)) / np.sqrt(d + 1)
    w[:, -1] = 0.0
    return w


def augment(x: np.ndarray) -> np.ndarray:
    """Homogeneous form [x; 1] of one row as float64, by 1-D writes (cheaper than concatenate)."""
    xh = np.empty(len(x) + 1)
    xh[:-1] = x
    xh[-1] = 1.0
    return xh


def augment_rows(X: np.ndarray, d: int) -> np.ndarray:
    """Each row of an (n, d) block in homogeneous form, as a C-ordered float64 block.

    A DimensionError unless the rows have d values.
    """
    if X.shape[1:] != (d,):
        raise DimensionError(f"feature length {X.shape[-1]} does not match d={d}")
    if len(X) == 1:
        # A one-row block is its row's 1-D form: 2-D slice writes cost about twice as much.
        return augment(X[0])[None]
    Xa = np.empty((len(X), d + 1))
    Xa[:, :-1] = X
    Xa[:, -1] = 1.0
    return Xa


# Unit roundoff and the smallest subnormal of float64.
_U = float(np.finfo(np.float64).eps) / 2
_TINY = float(np.finfo(np.float64).smallest_subnormal)


def _sq_norm_bound(A: np.ndarray) -> float:
    """An upper bound on the squared Frobenius norm of ``A``, from one ``vdot``.

    A computed sum of n nonnegative products is within gamma_n of the true
    sum, plus n subnormals where the products underflow; 4nu covers gamma_n
    and the rounding of this formula. NaN or inf when ``A`` holds one, or
    inf when the sum overflows (``vdot`` does not warn on overflow).
    """
    return (float(np.vdot(A, A)) + A.size * _TINY) * (1.0 + 4.0 * A.size * _U)


def _exact_sign(w: np.ndarray, x: np.ndarray) -> bool:
    """Whether the exact real dot product of two finite vectors is >= 0.

    Every float is p / q with q a power of two (``as_integer_ratio``), so each
    product is an integer over a power of two. Brought to the largest of those
    denominators, the numerators are integers whose sum has the dot product's sign.
    """
    terms = [(p * r, q * s) for (p, q), (r, s) in
             zip(map(float.as_integer_ratio, w.tolist()), map(float.as_integer_ratio, x.tolist()))]
    den = max(q for _, q in terms)
    return sum(p * (den // q) for p, q in terms) >= 0


def check_finite(W: np.ndarray | None, Xa: np.ndarray, name=lambda i: f"row {i}") -> None:
    """Raise ``exact_signs``' ValueError if ``Xa`` or ``W`` holds a NaN or infinite value.

    Features first, a row or a block, naming the first bad row by ``name(i)``;
    ``W=None`` skips weights.
    """
    if not math.isfinite(np.vdot(Xa, Xa)):
        finite = np.isfinite(Xa).all(axis=-1)
        if not finite.all():
            raise ValueError(
                f"{name(int(np.argmin(finite)))} has a feature that is NaN or infinite")
    if W is not None and not np.isfinite(W).all():
        raise ValueError("a hash function's weight is NaN or infinite")


def exact_signs(W: np.ndarray, Xa: np.ndarray, name=lambda i: f"row {i}",
                w_bound: float | None = None, x_bound: float | None = None) -> np.ndarray:
    """(rows, functions) bools: bit [i, t] is whether W[t] . Xa[i] >= 0, exactly.

    ``Xa`` holds augmented rows [x; 1]. One product ``Xa @ W.T`` scores every cell.
    A computed sum of n products is within gamma_n * sum_t |w_t x_t| of the
    true one, in any summation order, FMA included (Higham, *Accuracy and
    Stability of Numerical Algorithms*, section 3.1), plus n subnormals
    where products underflow. That sum of |products| is at most |w| * |x|,
    so one screen over the Frobenius norms settles the whole block at once.
    Only when it fails does a second product, |Xa| @ |W|.T, sum each cell's
    |products|. The same bound holds for it, so the true sum is at most its
    computed one, plus n subnormals, over 1 - gamma_n. One ``slack``,
    2nu / (1 - nu), then covers gamma_n / (1 - gamma_n) and the test's own
    roundings, and one ``floor``, 2n subnormals, the underflow of both
    products: a cell whose |score| exceeds slack * |sum| + floor has the
    score's sign, whatever order either product summed in. A sum of
    nonnegative terms never shrinks, so |Xa| @ |W|.T overflows only where
    the true sum of |products| is within rounding of the largest float;
    an inf or NaN leaves its cell uncertain. Only the cells still uncertain
    are recomputed exactly, as integer sums (``_exact_sign``). A NaN or infinite value raises ValueError, naming a
    feature row by ``name(i)``. ``w_bound`` is an upper bound on ||W||_F^2,
    such as a model's ``sq_norm_bound``, and ``x_bound`` one on
    ||Xa||_F^2, such as an index's ``feature_sq_norm_bound``; by default one
    pass over the block computes each. A Fortran-ordered ``W`` makes ``W.T``
    C-ordered, the layout BLAS multiplies fastest for small blocks.
    """
    terms = W.shape[1]
    slack = 2.0 * terms * _U / (1.0 - terms * _U)
    floor = 2.0 * terms * _TINY
    if w_bound is None:
        w_bound = _sq_norm_bound(W)
    if x_bound is None:
        x_bound = _sq_norm_bound(Xa)
    # A finite product of the squared norms bounds every score and partial sum,
    # so then the matmul cannot overflow.
    norms = math.sqrt(x_bound * w_bound)
    screened = norms < math.inf
    if screened:
        S = np.dot(Xa, W.T)
        bound = slack * norms + floor
        signs = S > bound
        # No cell in [-bound, bound] means every cell is certain, and then S > bound
        # is its sign. (S >= -bound holds wherever signs does.)
        if np.count_nonzero(signs) == np.count_nonzero(S >= -bound):
            return signs
    check_finite(W, Xa, name)
    with np.errstate(over="ignore", invalid="ignore"):
        # A screen that ran and failed leaves its product, which could not overflow.
        if not screened:
            S = np.dot(Xa, W.T)
        # NaN (an overflowed score) compares False, so its cell is uncertain.
        uncertain = ~(np.abs(S) > slack * np.dot(np.abs(Xa), np.abs(W).T) + floor)
    signs = S >= 0.0
    # One flat scan: np.nonzero on a 2-D block costs several times as much.
    for i, t in zip(*np.divmod(np.flatnonzero(uncertain), len(W))):
        signs[i, t] = _exact_sign(W[t], Xa[i])
    return signs


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays have one dtype, one shape and the same bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class HashModel:
    """The ordered set of hash-function weights, one row per code column.

    Columns are grouped in blocks of k per cycle; ``grow_cycles`` appends a
    freshly initialized block whose seed is derived from (seed, cycle), so a
    rerun of the same stream reproduces the weights bit for bit.

    The model owns its weights: the constructor copies them into a C-ordered
    block, ``weights`` is a read-only view, and only the constructor,
    ``grow_cycles``, ``step`` and ``step_many`` write them. Each write drops
    ``sq_norm_bound``, which the next read recomputes, so an edited model is
    built through the constructor. C order gives ``step`` one BLAS kernel
    whether a model was built or loaded, and ``step_many`` a (cycles, k, d+1)
    view of the block. The weights are whole cycles, (m * k, d+1) for some
    m >= 0; any other shape raises ValueError.

    The model holds no index. It counts its writes of existing weights
    (``_wrote``; growth leaves every row as it was), so ``insert_many`` can
    tell whether the weights an index copied for its staged rows still hold.
    """

    def __init__(self, d: int, k: int, weights: np.ndarray, iteration: int = 0,
                 seed: int = 0) -> None:
        self.d, self.k, self.iteration, self.seed = d, k, iteration, seed
        w = np.array(weights, dtype=np.float64, order="C")
        if k < 1 or w.ndim != 2 or w.shape[1] != d + 1 or len(w) % k:
            raise ValueError(f"weights of shape {w.shape} are not (m * k, d + 1) for k={k}, d={d}")
        self._own(w)
        self._writes = 0

    def _own(self, w: np.ndarray) -> None:
        """Keep ``w`` as the weights, behind a read-only view, with no bound."""
        w += 0.0  # -0.0 becomes 0.0 and no other value changes: _descend needs no -0.0
        self._w = w
        # Backed by a read-only buffer, so not even its flags can make it writeable.
        self._view = np.asarray(memoryview(w).toreadonly())
        self._bound = None

    @classmethod
    def create(cls, d: int, k: int, seed: int = 0) -> "HashModel":
        return cls(d=d, k=k, weights=init_functions(d, k, [seed, 1]), seed=seed)

    @property
    def weights(self) -> np.ndarray:
        """The (width, d+1) weights, as a read-only view."""
        return self._view

    @property
    def sq_norm_bound(self) -> float:
        """An upper bound on ||W||_F^2, kept until the next write; never saved."""
        if self._bound is None:
            self._bound = _sq_norm_bound(self._w)
        return self._bound

    @property
    def width(self) -> int:
        return self._w.shape[0]

    def _wrote(self, steps: int) -> None:
        """Record one write of ``steps`` training steps into the weights: the bound drops."""
        self._bound = None
        self.iteration += steps
        self._writes += 1

    def grow_cycles(self, cycles) -> None:
        """Append the k functions owned by each newly opened cycle, in order, with one stack."""
        blocks = [init_functions(self.d, self.k, [self.seed, j]) for j in cycles]
        if blocks:
            self._own(np.vstack([self._w, *blocks]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashModel):
            return NotImplemented
        return ((self.d, self.k, self.iteration, self.seed)
                == (other.d, other.k, other.iteration, other.seed)
                and _same_bits(self._w, other._w))

    def __repr__(self) -> str:
        return (f"HashModel(d={self.d}, k={self.k}, width={self.width}, "
                f"iteration={self.iteration}, seed={self.seed})")

    def __reduce__(self):
        # Copies and pickles go through the constructor, so the view is of their own weights.
        return HashModel, (self.d, self.k, self._w, self.iteration, self.seed)


def phi(model: HashModel, x: np.ndarray) -> PackedCode:
    """The full b-bit code of x under the current mapping, from ``exact_signs``."""
    bits = exact_signs(model.weights, augment_rows(np.asarray(x).reshape(1, -1), model.d),
                       w_bound=model.sq_norm_bound)[0]
    packed = np.packbits(bits, bitorder="little").tobytes()
    return PackedCode(model.width, int.from_bytes(packed, "little"))


def _margins(model: HashModel, x: np.ndarray, cw: TernaryCodeword):
    """Active positions of cw, their +1/-1 entries c and z = -c * (w . [x;1])."""
    if cw.length != model.width:
        raise DimensionError(f"codeword length {cw.length} does not match width {model.width}")
    pos = cw.active_positions()
    c = cw.active_values()
    return pos, c, -c * (model.weights[pos] @ augment(x))


def surrogate_loss(model: HashModel, x: np.ndarray, cw: TernaryCodeword) -> float:
    """Sum of the hinge max(0, 1 + z) over the codeword's active positions.

    Upper-bounds the masked Hamming distance between phi(model, x) and cw.
    """
    return float(np.maximum(0.0, 1.0 + _margins(model, x, cw)[2]).sum())


def gradient(model: HashModel, x: np.ndarray, cw: TernaryCodeword) -> dict[int, np.ndarray]:
    """Sparse per-column gradient of the surrogate at the current weights.

    Only active columns with a nonzero hinge slope appear (the slope is 0
    at the kink z = -1): exactly the margin-violating columns, each entry
    equal to -c_t * [x;1]. Inactive columns have identically zero gradient
    and are never present.
    """
    pos, c, z = _margins(model, x, cw)
    xh = augment(x)
    return {int(t): -ct * xh for t, ct, zt in zip(pos, c, z) if zt > -1.0}


def _descend(w: np.ndarray, c: np.ndarray, xh: np.ndarray, eta: float) -> np.ndarray:
    """Score rows of weights against examples and step the margin violators, in place.

    ``w`` is a (..., k, d+1) block of weights, ``c`` the (..., k) +1/-1 codeword
    entries and ``xh`` the (..., d+1) augmented examples. Each example's k
    scores come from one gemv, the stacked ``w @ xh``; a row whose z = -c *
    score exceeds -1 has hinge slope 1 and moves by eta * c * [x;1]. The
    update is the outer product of s = (eta * c, or 0 off the violators) and
    [x;1]: for one (k, d+1) block, ``step``'s, a (k, 1) by (1, d+1) BLAS
    product, whose one-term sums no reduction order can change; for stacked
    blocks, the rounds', one einsum with no summed index. Either way each
    cell is one product, rounded once, so the two forms write the same
    bits. A violator gets (eta * c) * [x;1], the gradient step's float, and
    any other row a zero, +0.0 or -0.0; either changes no weight but the
    -0.0 no model holds. So the features must be finite, as 0 * inf is NaN.
    A product that overflows gives inf without a warning. Returns z.
    """
    one = w.ndim == 2
    # np.dot of one block is the gemv the stacked matmul makes per block, without its views.
    z = -c * (np.dot(w, xh) if one else np.matmul(w, xh[..., None])[..., 0])
    s = (z > -1.0) * (eta * c)
    # At step's size the K=1 product costs about half the einsum.
    w += np.dot(s[:, None], xh[None]) if one else np.einsum("...k,...d->...kd", s, xh)
    return z


def _check_step(model: HashModel, matrix: EcocMatrix, eta: float, X: np.ndarray,
                name=lambda i: f"row {i}") -> None:
    """Refuse eta, (d,) or (n, d) features, named by row, or a model of another k or width."""
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    if X.shape[-1] != model.d:
        raise DimensionError(f"feature length {X.shape[-1]} does not match d={model.d}")
    if model.k != matrix.k or model.width != matrix.width:
        raise ConsistencyError(f"model k={model.k}, width {model.width} does not match "
                               f"matrix k={matrix.k}, width {matrix.width}")
    check_finite(None, X, name)


def _admit(model: HashModel, matrix: EcocMatrix, cb: Codebook, labels) -> None:
    """``observe_labels``, growing the model by the cycles opened even if a draw fails."""
    m = matrix.m
    try:
        matrix.observe_labels(cb, labels)
    finally:
        model.grow_cycles(range(m + 1, matrix.m + 1))


def step(model: HashModel, matrix: EcocMatrix, cb: Codebook,
         x: np.ndarray, y: Label, eta: float = 1.0) -> StepReport:
    """One online update: observe the label, then descend on its codeword.

    A known label is one lookup of its row; a new one is admitted as
    ``step_many`` admits a block's, and one that opens a cycle first grows
    the model by k fresh functions. The update changes only the rows of the
    label's cycle whose loss slope is nonzero, so every other weight is left
    bitwise intact; loss and update equal ``surrogate_loss`` and ``gradient``
    on ``matrix.find(y)`` bit for bit. ``eta`` (finite, >= 0), the features
    (finite, of length d), the label (a ``str``), the model's k and width and
    a new label's codebook k are checked before anything changes. The update
    is one write; phi rows staged before it score under their insert's weights.
    """
    x = np.array(x, np.float64, copy=None, ndmin=1)
    _check_step(model, matrix, eta, x, lambda _: "the example")
    xh = augment(x)
    is_new = y not in matrix.rows
    if is_new:
        _admit(model, matrix, cb, (y,))
    row, k = matrix.rows[y], matrix.k
    start = row // matrix.rho * k
    z = _descend(model._w[start:start + k], matrix.signs[row], xh, eta)
    model._wrote(1)
    # np.add.reduce is the sum ndarray.sum takes, without its Python wrapper.
    return StepReport(label=y, touched_columns=range(start, start + k),
                      surrogate_loss_before=float(np.add.reduce(np.maximum(0.0, 1.0 + z))),
                      # As in step_many: a new label opens a cycle at each rho-th row but the first.
                      new_cycle_started=is_new and row > 0 and row % matrix.rho == 0,
                      is_new_label=is_new)


@dataclass
class BlockReport:
    """What ``step_many`` did, one entry per example in stream order."""

    cycles: np.ndarray
    surrogate_losses_before: np.ndarray
    new_labels: np.ndarray
    new_cycles: np.ndarray


def step_many(model: HashModel, matrix: EcocMatrix, cb: Codebook,
              X: np.ndarray, labels, eta: float = 1.0, after_round=None) -> BlockReport:
    """``step`` on each row of ``X`` with its label in turn, trained in rounds.

    Leaves the model, matrix and codebook bitwise as the loop of ``step``
    would, and reports each example's (1-based) cycle, loss before its
    update, and whether it was a new label and opened a new cycle. The
    block's new labels are first admitted as one block, in order of first
    appearance (``observe_labels``, then one growth), without reading a
    weight. Labels of different cycles train disjoint rows, so round r then
    applies the r-th step of every cycle at once, with the gemv ``step``
    makes for each and one dense update. When the codebook runs out at
    example i, the labels drawn before it are admitted, the examples before
    it applied, and CodebookExhaustedError propagates. The block's shape and
    ``step``'s checks of every row and label come before any change.
    The weights are written once at the end, or after each round when
    ``after_round`` is given; phi rows an index stages between two writes
    score under the weights of their insert.

    ``after_round``, when given, is called after each round with that
    round's 1-based cycles in ascending order, once their weights are in the
    model: each listed cycle's weights are then those the loop of ``step``
    leaves after that cycle's r-th step in the block. Every cycle the block
    opens is in round 1. An empty block makes no call; after a failed draw,
    the rounds of the examples before it are reported before the error
    propagates.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or len(X) != len(labels):
        raise ValueError(f"a block of {len(labels)} labels needs that many feature rows, "
                         f"not an array of shape {X.shape}")
    _check_step(model, matrix, eta, X)
    n = len(matrix.rows)
    try:
        _admit(model, matrix, cb, labels)
    except CodebookExhaustedError:
        rows = list(map(matrix.rows.get, labels))
        _rounds(model, matrix, np.array(rows[:rows.index(None)], np.intp), X, eta, after_round)
        raise
    rows = np.array([matrix.rows[y] for y in labels], dtype=np.intp)
    # New rows follow every row before them, so the running maximum grows at each new label.
    new_labels = np.diff(np.maximum.accumulate(np.r_[n - 1, rows])) > 0
    return BlockReport(rows // matrix.rho + 1, _rounds(model, matrix, rows, X, eta, after_round),
                       new_labels, new_labels & (rows > 0) & (rows % matrix.rho == 0))


def _rounds(model: HashModel, matrix: EcocMatrix, rows: np.ndarray, X: np.ndarray,
            eta: float, after_round=None) -> np.ndarray:
    """Train each example's cycle on it, in order, one round per step of a cycle.

    Example i is matrix row ``rows[i]`` with features ``X[i]``; returns each
    example's loss before its update. The busy cycles are copied out, most
    examples first, so round r's cycles are a prefix of the copy and its
    examples one slice of the examples in round order. The copy is written
    back once at the end, or after each round that ``after_round`` is told of.
    """
    cycles = rows // matrix.rho
    counts = np.bincount(cycles)
    by_cycle = np.argsort(cycles, kind="stable")
    rank = np.empty(len(cycles), dtype=np.intp)
    rank[by_cycle] = np.arange(len(cycles)) - (np.cumsum(counts) - counts)[cycles[by_cycle]]
    busy = np.argsort(-counts, kind="stable")[:np.count_nonzero(counts)]
    place = np.empty(len(counts), dtype=np.intp)
    place[busy] = np.arange(len(busy))
    order = np.lexsort((place[cycles], rank))
    # A view, because the constructor and grow_cycles keep the weights C-ordered.
    w3 = model._w.reshape(-1, matrix.k, model.d + 1)
    w = w3[busy]
    sizes = np.bincount(rank)
    # Each round's examples in homogeneous form, gathered into one buffer.
    xh = np.ones((len(busy), model.d + 1))
    losses = np.empty(len(rows))
    signs, ordered_rows = matrix.signs, rows[order]
    start = 0
    for size in sizes.tolist():
        stop = start + size
        at = order[start:stop]
        xh[:size, :-1] = X[at]
        z = _descend(w[:size], signs[ordered_rows[start:stop]], xh[:size], eta)
        losses[at] = np.maximum(0.0, 1.0 + z).sum(axis=1)
        start = stop
        if after_round is not None:
            w3[busy[:size]] = w[:size]
            model._wrote(size)
            after_round((np.sort(busy[:size]) + 1).tolist())
    if after_round is None:
        w3[busy] = w
        model._wrote(len(rows))
    return losses


@dataclass(eq=False)
class FeatureNormalizer:
    """Mean-center and L2-normalize feature vectors.

    The mean is fitted once over a set of rows (``fit``); training and
    serving apply the same mean. Normalized features keep the per-step
    gradient bounded.
    """

    mean: np.ndarray
    count: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureNormalizer):
            return NotImplemented
        return self.count == other.count and _same_bits(self.mean, other.mean)

    @classmethod
    def fit(cls, X: np.ndarray) -> "FeatureNormalizer":
        """The mean of the rows of a 2-D block; ValueError when it has no rows."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or not len(X):
            raise ValueError(f"a normalizer is fitted over at least one row, not shape {X.shape}")
        return cls(mean=X.mean(axis=0), count=X.shape[0])

    def transform(self, x: np.ndarray) -> np.ndarray:
        """One vector: the one-row case of ``transform_many``."""
        return self.transform_many(np.reshape(x, (1, -1)))[0]

    def transform_many(self, X: np.ndarray) -> np.ndarray:
        """Each row less the mean, over its L2 norm; a zero row stays zero."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1:] != self.mean.shape:
            raise DimensionError(
                f"feature shape {X.shape} does not match the mean's length {len(self.mean)}")
        X = X - self.mean
        norms = np.sqrt(np.add.reduce(X * X, axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        return X / norms
