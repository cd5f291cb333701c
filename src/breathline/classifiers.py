"""Sample-level real/fake classifiers over breath statistics.

Three interchangeable mechanisms, in increasing order of machinery: a
fixed thresholding rule (real iff every statistic is strictly
positive), a C-SVC with a degree-2 polynomial kernel trained by
pairwise dual coordinate optimization, and a depth-limited CART
decision tree. Real is the positive class throughout; SVC and tree
scores are oriented so that higher means more real.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .breath_stats import BreathStats
from .container import write_container
from .errors import ConfigError, TrainingError, ValidationError

STAT_FEATURES = ("avg_breaths_per_minute", "avg_breath_duration_ms", "avg_spacing_ms")

SVC_MAGIC = b"BLSV"
SVC_VERSION = 1
TREE_VERSION = 1

# the SVC's polynomial kernel degree and its iteration budget
SVC_DEGREE = 2
SVC_MAX_ITER = 200000


@dataclass(frozen=True)
class LabeledSample:
    id: str
    stats: BreathStats
    label: str

    def __post_init__(self):
        if self.label not in ("real", "fake"):
            raise ValidationError(f"label must be 'real' or 'fake', got {self.label!r}")


def threshold_classify(stats: BreathStats) -> str:
    """Real iff all three statistics are strictly positive."""
    if (
        stats.avg_breaths_per_minute > 0
        and stats.avg_breath_duration_ms > 0
        and stats.avg_spacing_ms > 0
    ):
        return "real"
    return "fake"


def _samples_to_xy(samples: list[LabeledSample]) -> tuple[np.ndarray, np.ndarray]:
    x = np.array([s.stats.as_array() for s in samples], dtype=np.float64)
    y = np.array([1.0 if s.label == "real" else -1.0 for s in samples])
    return x, y


# --- support vector classifier ---


def poly_kernel(a: np.ndarray, b: np.ndarray, gamma: float, coef0: float, degree: int) -> np.ndarray:
    return (gamma * (a @ b.T) + coef0) ** degree


@dataclass
class SvcModel:
    support_vectors: np.ndarray  # standardized, (num_sv, num_features)
    dual_coef: np.ndarray  # y_i * alpha_i per support vector
    bias: float
    gamma: float
    coef0: float
    degree: int
    C: float
    scaler_mean: np.ndarray
    scaler_scale: np.ndarray
    dual_objective: float = 0.0
    kkt_gap: float = 0.0


def _fit_scaler(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0  # constant features pass through unscaled
    return mean, scale


def check_svc_hyperparameters(C: float = 1.0, gamma: Optional[float] = None, coef0: float = 0.0) -> None:
    """ConfigError unless C and a set gamma are positive and finite and
    coef0 is finite."""
    if not 0 < C < math.inf:
        raise ConfigError(f"C must be positive and finite, got {C}")
    if not math.isfinite(coef0):
        raise ConfigError(f"coef0 must be finite, got {coef0}")
    if gamma is not None and not 0 < gamma < math.inf:
        raise ConfigError(f"gamma must be positive and finite, got {gamma}")


def svc_train(
    samples: list[LabeledSample],
    C: float = 1.0,
    gamma: Optional[float] = None,
    coef0: float = 0.0,
    tol: float = 1e-6,
) -> SvcModel:
    """Train a C-SVC by repeatedly optimizing the most-violating pair.

    The dual problem (minimize 0.5*a'Qa - sum(a) subject to 0 <= a <= C
    and y'a = 0, Q = yy' * K) is solved by selecting the maximal
    violating pair, solving that two-variable subproblem exactly, and
    stopping once the KKT gap is within `tol`. Features are
    standardized first; gamma defaults to 1 / (num_features * variance
    of the standardized matrix).
    """
    check_svc_hyperparameters(C, gamma, coef0)
    x_raw, y = _samples_to_xy(samples)
    if len(set(y)) < 2:
        raise TrainingError("SVC training needs at least one sample of each class")
    mean, scale = _fit_scaler(x_raw)
    x = (x_raw - mean) / scale
    if gamma is None:
        var = float(x.var())
        gamma = 1.0 / (x.shape[1] * var) if var > 0 else 1.0 / x.shape[1]

    n = len(y)
    kmat = poly_kernel(x, x, gamma, coef0, SVC_DEGREE)
    q = (y[:, None] * y[None, :]) * kmat
    alpha = np.zeros(n)
    g = -np.ones(n)  # gradient of the dual objective at alpha = 0
    eps = 1e-12

    for _ in range(SVC_MAX_ITER):
        up = ((y > 0) & (alpha < C - eps)) | ((y < 0) & (alpha > eps))
        low = ((y > 0) & (alpha > eps)) | ((y < 0) & (alpha < C - eps))
        neg_yg = -y * g
        up_vals = np.where(up, neg_yg, -np.inf)
        low_vals = np.where(low, neg_yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        m, big_m = up_vals[i], low_vals[j]
        if m - big_m <= tol:
            break
        curvature = kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j]
        d = (m - big_m) / max(curvature, eps)
        # keep both alphas inside the box; direction is y_i*e_i - y_j*e_j
        hi_i = C - alpha[i] if y[i] > 0 else alpha[i]
        hi_j = alpha[j] if y[j] > 0 else C - alpha[j]
        d = min(d, hi_i, hi_j)
        if d <= 0:
            break
        new_i = np.clip(alpha[i] + y[i] * d, 0.0, C)
        new_j = np.clip(alpha[j] - y[j] * d, 0.0, C)
        delta_i, delta_j = new_i - alpha[i], new_j - alpha[j]
        alpha[i], alpha[j] = new_i, new_j
        g += q[:, i] * delta_i + q[:, j] * delta_j
    else:
        raise TrainingError(f"SVC did not converge within {SVC_MAX_ITER} iterations")

    free = (alpha > eps) & (alpha < C - eps)
    if np.any(free):
        bias = float(np.mean(neg_yg[free]))
    else:
        bias = float((m + big_m) / 2.0)
    sv = alpha > eps
    return SvcModel(
        support_vectors=x[sv].copy(),
        dual_coef=(y * alpha)[sv],
        bias=bias,
        gamma=gamma,
        coef0=coef0,
        degree=SVC_DEGREE,
        C=C,
        scaler_mean=mean,
        scaler_scale=scale,
        dual_objective=float(0.5 * alpha @ q @ alpha - alpha.sum()),
        kkt_gap=float(max(m - big_m, 0.0)),
    )


def svc_score(model: SvcModel, stats: BreathStats) -> float:
    """Signed decision value; positive side is real."""
    z = (stats.as_array() - model.scaler_mean) / model.scaler_scale
    k = poly_kernel(model.support_vectors, z[None, :], model.gamma, model.coef0, model.degree)
    return float(model.dual_coef @ k[:, 0] + model.bias)


def svc_classify(model: SvcModel, stats: BreathStats) -> str:
    return "real" if svc_score(model, stats) > 0 else "fake"


_SVC_ARRAYS = ("support_vectors", "dual_coef", "scaler_mean", "scaler_scale")
_SVC_SCALARS = ("C", "gamma", "coef0", "degree", "bias", "dual_objective", "kkt_gap")


def save_svc(path, model: SvcModel) -> None:
    """A BLSV container: the scalars in the header, the arrays as
    little-endian float64."""
    header = {"version": SVC_VERSION, "type": "svc"}
    header.update({name: getattr(model, name) for name in _SVC_SCALARS})
    write_container(path, SVC_MAGIC, header, {name: getattr(model, name) for name in _SVC_ARRAYS}, "<f8")


# --- decision tree ---


@dataclass
class TreeNode:
    counts: tuple[int, int]  # (real, fake) training samples reaching the node
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class TreeModel:
    root: TreeNode
    max_depth: int


def _gini(n_real: int, n_fake: int) -> float:
    n = n_real + n_fake
    if n == 0:
        return 0.0
    p = n_real / n
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _best_split(x: np.ndarray, is_real: np.ndarray) -> Optional[tuple[int, float, float]]:
    """Lowest weighted-Gini split, ties broken by lowest feature index
    then lowest threshold. Returns (feature, threshold, impurity)."""
    n = len(is_real)
    best = None
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for k in range(len(values) - 1):
            thr = (values[k] + values[k + 1]) / 2.0
            left = x[:, f] <= thr
            lr = int(np.sum(is_real & left))
            lf = int(np.sum(~is_real & left))
            rr = int(np.sum(is_real & ~left))
            rf = int(np.sum(~is_real & ~left))
            weighted = ((lr + lf) * _gini(lr, lf) + (rr + rf) * _gini(rr, rf)) / n
            if best is None or weighted < best[2] - 1e-12:
                best = (f, thr, weighted)
    return best


def _grow(x: np.ndarray, is_real: np.ndarray, depth: int, max_depth: int) -> TreeNode:
    n_real = int(is_real.sum())
    n_fake = int(len(is_real) - n_real)
    node = TreeNode(counts=(n_real, n_fake))
    if depth >= max_depth or n_real == 0 or n_fake == 0:
        return node
    split = _best_split(x, is_real)
    if split is None or split[2] >= _gini(n_real, n_fake) - 1e-12:
        return node
    feature, threshold, _ = split
    mask = x[:, feature] <= threshold
    node.feature = feature
    node.threshold = threshold
    node.left = _grow(x[mask], is_real[mask], depth + 1, max_depth)
    node.right = _grow(x[~mask], is_real[~mask], depth + 1, max_depth)
    return node


def tree_train(samples: list[LabeledSample], max_depth: int = 3) -> TreeModel:
    """Greedy CART with Gini impurity; split candidates are midpoints of
    consecutive distinct feature values."""
    if max_depth < 1:
        raise ConfigError("max_depth must be >= 1")
    if not samples:
        raise TrainingError("tree training needs at least one sample")
    x, y = _samples_to_xy(samples)
    return TreeModel(root=_grow(x, y > 0, 0, max_depth), max_depth=max_depth)


def tree_score(model: TreeModel, stats: BreathStats) -> float:
    """Real-class fraction of the leaf the sample lands in."""
    x = stats.as_array()
    node = model.root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    n_real, n_fake = node.counts
    return n_real / (n_real + n_fake)


def tree_classify(model: TreeModel, stats: BreathStats) -> str:
    """Majority class of the reached leaf; an exact tie counts as fake."""
    return "real" if tree_score(model, stats) > 0.5 else "fake"


def _node_to_dict(node: TreeNode) -> dict:
    out = {"counts": list(node.counts)}
    if not node.is_leaf:
        out.update(
            feature=node.feature,
            threshold=node.threshold,
            left=_node_to_dict(node.left),
            right=_node_to_dict(node.right),
        )
    return out


def save_tree(path, model: TreeModel) -> None:
    doc = {
        "version": TREE_VERSION,
        "type": "tree",
        "max_depth": model.max_depth,
        "feature_names": list(STAT_FEATURES),
        "root": _node_to_dict(model.root),
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")

