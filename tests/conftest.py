"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
pinball oracle enumerates interpolating pairs, the hull oracle enumerates
facet triples, the Shapley oracle enumerates feature subsets, and
`brute_shap` feeds it each saved tree's conditional expectations.
"""

import json

import numpy as np
import pytest

from lmakit.skeleton import canonical_skeleton

ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance pass/fail lines after the run, capture or not."""
    if ACCEPTANCE_VERDICTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def pinball(residuals, tau):
    r = np.asarray(residuals, float)
    return float(np.sum(np.where(r >= 0, tau * r, (tau - 1.0) * r)))


def pair_enumeration_pinball_oracle(d, h, tau):
    """Minimum pinball loss over all lines interpolating two samples."""
    best = np.inf
    n = len(d)
    for i in range(n):
        for j in range(i + 1, n):
            dd = d[j] - d[i]
            if dd == 0.0:
                continue
            slope = (h[j] - h[i]) / dd
            intercept = h[i] - slope * d[i]
            loss = pinball(h - (slope * d + intercept), tau)
            best = min(best, loss)
    return best


def brute_hull_volume(pts):
    """Exhaustive facet search + signed tetrahedra; general position only."""
    pts = np.asarray(pts, float)
    n = len(pts)
    scale = float(np.max(np.ptp(pts, axis=0)))
    tol = 1e-9 * max(1.0, scale)
    facets = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                nrm = np.cross(pts[j] - pts[i], pts[k] - pts[i])
                if np.linalg.norm(nrm) < tol:
                    continue
                d = (pts - pts[i]) @ nrm
                if np.all(d <= tol):
                    facets.append((i, j, k, nrm))
                elif np.all(d >= -tol):
                    facets.append((i, k, j, -nrm))
    if not facets:
        return 0.0
    c = pts.mean(axis=0)
    vol = 0.0
    for i, j, k, _ in facets:
        vol += float(np.dot(pts[i] - c, np.cross(pts[j] - c, pts[k] - c)))
    return abs(vol) / 6.0


def subset_shapley_oracle(value_fn, features):
    """Textbook Shapley values of value_fn over the given feature set.

    value_fn(frozenset) -> np.ndarray; returns {feature: phi_vector}.
    """
    from itertools import combinations
    from math import factorial

    m = len(features)
    phi = {}
    for f in features:
        rest = [g for g in features if g != f]
        total = 0.0
        for size in range(m):
            w = factorial(size) * factorial(m - size - 1) / factorial(m)
            for S in combinations(rest, size):
                total = total + w * (value_fn(frozenset(S) | {f}) - value_fn(frozenset(S)))
        phi[f] = total
    return phi


def _split_features(node):
    if "feature" not in node:
        return set()
    return {node["feature"]} | _split_features(node["left"]) | _split_features(node["right"])


def _cond_exp(node, x, subset):
    """Cover-weighted conditional expectation of a saved (nested-dict) tree
    at `x`, given the features in `subset`; an empty leaf gives zeros."""
    if "feature" not in node:
        counts = np.asarray(node["counts"], dtype=float)
        total = counts.sum()
        return counts / total if total > 0 else counts
    f = node["feature"]
    if f in subset:
        return _cond_exp(node["left"] if x[f] <= node["threshold"] else node["right"], x, subset)
    cl, cr = node["left"]["cover"], node["right"]["cover"]
    return (cl * _cond_exp(node["left"], x, subset) + cr * _cond_exp(node["right"], x, subset)) / (cl + cr)


def brute_shap(model, x):
    """Exhaustive-subset Shapley values of predict_proba at `x`, shape
    (n_classes, n_features): `subset_shapley_oracle` over each tree's
    conditional expectations, cached per subset, averaged over the trees.
    It walks the saved dict trees, not the library's node arrays."""
    trees = json.loads(model.to_json())["trees"]
    phi = np.zeros((model.n_classes, model.n_features))
    for tree in trees:
        cache = {}

        def value(subset):
            if subset not in cache:
                cache[subset] = _cond_exp(tree, x, subset)
            return cache[subset]

        for f, tree_phi in subset_shapley_oracle(value, sorted(_split_features(tree))).items():
            phi[:, f] += tree_phi
    return phi / len(trees)


@pytest.fixture(scope="session")
def skel():
    return canonical_skeleton()


def make_sequence(positions, fps=60.0, label=None, group_id=""):
    from lmakit.sequence import JointSequence

    return JointSequence(
        fps=fps,
        positions=np.asarray(positions, float),
        skeleton=canonical_skeleton(),
        label=label,
        group_id=group_id,
    )


def static_pose_positions(T, jitter_role=None, track=None):
    """T frames of the standing pose; optionally one role follows `track`."""
    from lmakit.synth import STANDING_POSE

    skel = canonical_skeleton()
    pose = np.array([STANDING_POSE[n] for n in skel.joint_names])
    pos = np.tile(pose, (T, 1, 1))
    if jitter_role is not None:
        pos[:, skel.index(jitter_role), :] = track
    return pos
