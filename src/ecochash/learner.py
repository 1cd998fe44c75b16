"""Online SGD over linear-threshold hash functions.

Each column t of the code is produced by f_t(x) = sgn(w_t . [x;1]), with
sgn(0) = +1. Training minimizes a convex margin surrogate of the masked
Hamming distance between the mapping's output and the observed label's
ternary codeword; inactive codeword positions contribute neither loss nor
gradient, so only the k functions of the label's cycle are ever touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitcode import PackedCode, TernaryCodeword
from .codebook import Codebook
from .ecoc import EcocMatrix, Label
from .errors import ConsistencyError, DimensionError


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
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((count, d + 1)) / np.sqrt(d + 1)
    if count:
        w[:, -1] = 0.0
    return w


def augment(x: np.ndarray) -> np.ndarray:
    """Homogeneous form [x; 1] as float64."""
    xh = np.empty(len(x) + 1)
    xh[:-1] = x
    xh[-1] = 1.0
    return xh


def predict_bit(w: np.ndarray, x: np.ndarray) -> int:
    """sgn(w . [x;1]) with sgn(0) = +1."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (len(x) + 1,):
        raise DimensionError(f"weight length {w.shape} does not match feature length {len(x)}+1")
    return 1 if float(w @ augment(x)) >= 0.0 else -1


@dataclass
class HashModel:
    """The ordered set of hash-function weights, one row per code column.

    Columns are grouped in blocks of k per cycle; ``grow_cycle`` appends a
    freshly initialized block whose seed is derived from (seed, cycle), so a
    rerun of the same stream reproduces the weights bit for bit.
    """

    d: int
    k: int
    weights: np.ndarray
    iteration: int = 0
    seed: int = 0

    @classmethod
    def create(cls, d: int, k: int, seed: int = 0) -> "HashModel":
        return cls(d=d, k=k, weights=init_functions(d, k, [seed, 1]), seed=seed)

    @property
    def width(self) -> int:
        return self.weights.shape[0]

    def column_cycle(self, t: int) -> int:
        return t // self.k + 1

    def grow_cycle(self, cycle: int) -> None:
        """Append the k functions owned by a newly opened cycle."""
        fresh = init_functions(self.d, self.k, [self.seed, cycle])
        self.weights = np.vstack([self.weights, fresh])

    def scores(self, x: np.ndarray) -> np.ndarray:
        if len(x) != self.d:
            raise DimensionError(f"feature length {len(x)} does not match d={self.d}")
        return self.weights @ augment(x)


def phi(model: HashModel, x: np.ndarray) -> PackedCode:
    """The full b-bit code of x under the current mapping."""
    s = model.scores(x)
    bits = (s >= 0.0)
    if not len(bits):
        return PackedCode(0, 0)
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
    out: dict[int, np.ndarray] = {}
    for t, ct, g in zip(pos, c, (z > -1.0).astype(np.float64)):
        if g != 0.0:
            out[int(t)] = (-ct * g) * xh
    return out


def step(model: HashModel, matrix: EcocMatrix, cb: Codebook,
         x: np.ndarray, y: Label, eta: float = 1.0) -> StepReport:
    """One online update: observe the label, then descend on its codeword.

    A label that opens a new cycle first grows the model by k fresh
    functions. The update writes only the rows of the label's cycle whose
    loss slope is nonzero, so every other weight vector is left bitwise
    intact; loss and update equal ``surrogate_loss`` and ``gradient`` on
    ``matrix.find(y)`` bit for bit. ``eta`` must be finite and >= 0.
    """
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    if len(x) != model.d:
        raise DimensionError(f"feature length {len(x)} does not match d={model.d}")
    obs = matrix.observe_label(cb, y)
    if obs.new_cycle_started:
        model.grow_cycle(matrix.m)
    if model.width != matrix.width:
        raise ConsistencyError(
            f"model width {model.width} does not match matrix width {matrix.width}")
    touched = matrix.cycle_columns(matrix.cycle_of_label[y])
    w = model.weights[touched.start:touched.stop]
    c = matrix.signs[y]
    xh = augment(x)
    z = -c * (w @ xh)
    g = (z > -1.0).astype(np.float64)
    np.subtract(w, eta * ((-c * g)[:, None] * xh), out=w, where=(g != 0.0)[:, None])
    model.iteration += 1
    return StepReport(label=y, touched_columns=touched,
                      surrogate_loss_before=float(np.maximum(0.0, 1.0 + z).sum()),
                      new_cycle_started=obs.new_cycle_started,
                      is_new_label=obs.is_new_label)


@dataclass
class FeatureNormalizer:
    """Mean-center and L2-normalize feature vectors.

    The mean is fitted once over a set of rows (``fit``); training and
    serving apply the same mean. Normalized features keep the per-step
    gradient bounded.
    """

    mean: np.ndarray
    count: int

    @classmethod
    def fit(cls, X: np.ndarray) -> "FeatureNormalizer":
        X = np.asarray(X, dtype=np.float64)
        return cls(mean=X.mean(axis=0), count=X.shape[0])

    def _centered(self, X) -> np.ndarray:
        """``X`` as float64 less the mean; a length other than the mean's raises."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1:] != self.mean.shape:
            raise DimensionError(
                f"feature shape {X.shape} does not match the mean's length {len(self.mean)}")
        return X - self.mean

    def transform(self, x: np.ndarray) -> np.ndarray:
        """One vector; bit for bit the matching row of ``transform_many``."""
        v = self._centered(x)
        # The norm both methods take: np.linalg.norm of a vector would use BLAS dot.
        norm = float(np.sqrt(np.add.reduce(v * v)))
        return v / norm if norm > 0.0 else v

    def transform_many(self, X: np.ndarray) -> np.ndarray:
        X = self._centered(X)
        norms = np.sqrt(np.add.reduce(X * X, axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        return X / norms
