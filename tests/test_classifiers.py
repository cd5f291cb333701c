"""Thresholding rule, polynomial-kernel SVC, and the CART tree."""

import json

import numpy as np
import pytest
from oracles import exhaustive_best_split, qp_dual_solve

from breathline.breath_stats import BreathStats
from breathline.classifiers import (
    STAT_FEATURES,
    SVC_MAGIC,
    SVC_VERSION,
    LabeledSample,
    poly_kernel,
    save_svc,
    save_tree,
    svc_classify,
    svc_score,
    svc_train,
    threshold_classify,
    tree_classify,
    tree_score,
    tree_train,
)
from breathline.container import read_container
from breathline.errors import ConfigError, TrainingError, ValidationError


def _sample(i, label, values):
    return LabeledSample(id=f"s{i}", stats=BreathStats(*values), label=label)


def _cluster_dataset(rng, n_real=8, n_fake=8):
    """Separable but not mirror-symmetric stats clusters."""
    samples = []
    for i in range(n_real):
        v = np.array([10.0, 320.0, 4200.0]) + rng.normal(0, [0.8, 25.0, 300.0])
        samples.append(_sample(i, "real", np.abs(v)))
    for i in range(n_fake):
        v = np.array([2.0, 90.0, 700.0]) + rng.normal(0, [0.4, 12.0, 90.0])
        samples.append(_sample(n_real + i, "fake", np.abs(v)))
    return samples


def test_threshold_rule():
    assert threshold_classify(BreathStats(9.5, 300.0, 5000.0)) == "real"
    assert threshold_classify(BreathStats(0.0, 0.0, 0.0)) == "fake"
    # a lone breath has zero spacing and is not enough evidence
    assert threshold_classify(BreathStats(2.0, 550.0, 0.0)) == "fake"


def test_labeled_sample_validation():
    with pytest.raises(ValidationError):
        _sample(0, "spoofed", (1.0, 2.0, 3.0))


def test_poly_kernel_value():
    a = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(poly_kernel(a, a, gamma=1.0, coef0=1.0, degree=2), [[4.0]])
    np.testing.assert_allclose(poly_kernel(a, a, gamma=1.0, coef0=0.0, degree=2), [[1.0]])


def test_svc_separates_with_unit_margins():
    # balanced standardization mirrors two tight clusters onto +-a, and the
    # homogeneous kernel (coef0=0) is an even function, so this layout needs
    # the inhomogeneous variant
    samples = [
        _sample(0, "real", (9.0, 300.0, 4000.0)),
        _sample(1, "real", (11.0, 350.0, 4500.0)),
        _sample(2, "fake", (2.0, 100.0, 600.0)),
        _sample(3, "fake", (1.0, 80.0, 500.0)),
    ]
    model = svc_train(samples, C=100.0, coef0=1.0, tol=1e-8)
    for s in samples:
        margin = svc_score(model, s.stats) * (1.0 if s.label == "real" else -1.0)
        assert margin >= 1.0 - 1e-6
        assert svc_classify(model, s.stats) == s.label
    assert model.kkt_gap < 1e-6


def test_svc_default_kernel_separates_by_magnitude():
    # the homogeneous degree-2 kernel sees second moments: a wide class
    # versus a tight class at the same centroid is separable at coef0=0
    samples = [
        _sample(0, "real", (4.0, 150.0, 1500.0)),
        _sample(1, "real", (16.0, 600.0, 6500.0)),
        _sample(2, "fake", (9.8, 370.0, 3950.0)),
        _sample(3, "fake", (10.2, 380.0, 4050.0)),
    ]
    model = svc_train(samples, C=100.0, tol=1e-8)
    for s in samples:
        margin = svc_score(model, s.stats) * (1.0 if s.label == "real" else -1.0)
        assert margin >= 1.0 - 1e-6
        assert svc_classify(model, s.stats) == s.label


def test_svc_dual_objective_matches_qp_oracle():
    rng = np.random.default_rng(0)
    for case in range(5):
        samples = _cluster_dataset(rng, n_real=3, n_fake=3)
        c = [0.5, 1.0, 10.0, 2.0, 5.0][case]
        model = svc_train(samples, C=c, tol=1e-8)
        # rebuild the exact kernel matrix the trainer saw
        x = np.array([s.stats.as_array() for s in samples])
        y = np.array([1.0 if s.label == "real" else -1.0 for s in samples])
        mean, scale = x.mean(axis=0), x.std(axis=0)
        scale[scale == 0.0] = 1.0
        z = (x - mean) / scale
        gamma = 1.0 / (z.shape[1] * z.var())
        kmat = poly_kernel(z, z, gamma, 0.0, 2)
        _, oracle_obj = qp_dual_solve(kmat, y, c)
        assert abs(model.dual_objective - oracle_obj) < 1e-5
        assert model.kkt_gap < 1e-6


def test_svc_duplication_equals_halved_c():
    rng = np.random.default_rng(1)
    samples = _cluster_dataset(rng, n_real=4, n_fake=4)
    base = svc_train(samples, C=2.0, tol=1e-10)
    doubled = svc_train(samples + samples, C=1.0, tol=1e-10)
    probes = rng.uniform([0.0, 0.0, 0.0], [14.0, 500.0, 6000.0], size=(25, 3))
    for p in probes:
        stats = BreathStats(*p)
        np.testing.assert_allclose(svc_score(base, stats), svc_score(doubled, stats), atol=1e-6)


def test_svc_needs_both_classes():
    samples = [_sample(i, "real", (9.0 + i, 300.0, 4000.0)) for i in range(4)]
    with pytest.raises(TrainingError):
        svc_train(samples)


@pytest.mark.parametrize("kwargs", [
    {"C": 0.0}, {"C": float("nan")}, {"C": float("inf")}, {"coef0": float("nan")}, {"coef0": float("inf")},
    {"gamma": 0.0}, {"gamma": float("nan")}, {"gamma": float("inf")},
])
def test_svc_rejects_bad_hyperparameters(kwargs):
    samples = _cluster_dataset(np.random.default_rng(0))
    with pytest.raises(ConfigError):
        svc_train(samples, **kwargs)


def test_svc_container_roundtrip(tmp_path):
    model = svc_train(_cluster_dataset(np.random.default_rng(2)), C=1.0)
    path = tmp_path / "svc.bin"
    save_svc(path, model)
    header, arrays = read_container(path, SVC_MAGIC, SVC_VERSION, "<f8")
    scalars = ("C", "gamma", "coef0", "degree", "bias", "dual_objective", "kkt_gap")
    assert header == {"version": SVC_VERSION, "type": "svc", **{name: getattr(model, name) for name in scalars}}
    assert header["degree"] == 2
    assert sorted(arrays) == ["dual_coef", "scaler_mean", "scaler_scale", "support_vectors"]
    for name, array in arrays.items():
        expected = np.asarray(getattr(model, name), dtype=np.float64)
        assert array.shape == expected.shape and array.tobytes() == expected.tobytes()


def _depth(node):
    if node.is_leaf:
        return 0
    return 1 + max(_depth(node.left), _depth(node.right))


def test_tree_depth_is_bounded():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(4, 30))
        samples = [
            _sample(i, "real" if rng.uniform() < 0.5 else "fake", rng.uniform(0.0, 10.0, 3))
            for i in range(n)
        ]
        if len({s.label for s in samples}) < 2:
            continue
        model = tree_train(samples, max_depth=3)
        assert _depth(model.root) <= 3


def test_tree_root_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(4, 20))
        x = np.round(rng.uniform(0.0, 10.0, (n, 3)), 2)
        labels = rng.uniform(size=n) < 0.5
        if labels.all() or not labels.any():
            continue
        samples = [
            _sample(i, "real" if labels[i] else "fake", x[i]) for i in range(n)
        ]
        model = tree_train(samples, max_depth=1)
        want = exhaustive_best_split(x, labels)
        if model.root.is_leaf:
            # no split improves on the node impurity
            base = 1.0 - (labels.mean() ** 2 + (1 - labels.mean()) ** 2)
            assert want is None or want[2] >= base - 1e-12
        else:
            assert (model.root.feature, model.root.threshold) == (want[0], want[1])


def test_tree_tie_counts_as_fake():
    samples = [
        _sample(0, "real", (5.0, 5.0, 5.0)),
        _sample(1, "fake", (5.0, 5.0, 5.0)),
    ]
    model = tree_train(samples)
    stats = BreathStats(5.0, 5.0, 5.0)
    assert tree_score(model, stats) == 0.5
    assert tree_classify(model, stats) == "fake"


def _stump_accuracy(x, labels):
    best = 0.0
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        cuts = [(values[k] + values[k + 1]) / 2.0 for k in range(len(values) - 1)]
        for thr in cuts:
            left = x[:, f] <= thr
            for real_side in (left, ~left):
                best = max(best, (real_side == labels).mean())
    return best


def test_tree_beats_single_feature_threshold():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(6, 25))
        x = np.round(rng.uniform(0.0, 10.0, (n, 3)), 1)
        labels = rng.uniform(size=n) < 0.5
        if labels.all() or not labels.any():
            continue
        samples = [_sample(i, "real" if labels[i] else "fake", x[i]) for i in range(n)]
        model = tree_train(samples, max_depth=3)
        preds = np.array(
            [tree_classify(model, s.stats) == "real" for s in samples]
        )
        assert (preds == labels).mean() >= _stump_accuracy(x, labels) - 1e-12


def _assert_same_node(doc, node):
    assert doc["counts"] == list(node.counts)
    if node.is_leaf:
        assert set(doc) == {"counts"}
    else:
        assert set(doc) == {"counts", "feature", "threshold", "left", "right"}
        assert doc["feature"] == node.feature and doc["threshold"] == node.threshold
        _assert_same_node(doc["left"], node.left)
        _assert_same_node(doc["right"], node.right)


def test_tree_json_roundtrip(tmp_path):
    model = tree_train(_cluster_dataset(np.random.default_rng(6)))
    assert not model.root.is_leaf
    path = tmp_path / "tree.json"
    save_tree(path, model)
    doc = json.loads(path.read_text())
    assert {k: v for k, v in doc.items() if k != "root"} == {
        "version": 1, "type": "tree", "max_depth": model.max_depth, "feature_names": list(STAT_FEATURES),
    }
    _assert_same_node(doc["root"], model.root)


def test_tree_needs_samples():
    with pytest.raises(TrainingError):
        tree_train([])
