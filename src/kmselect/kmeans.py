"""Linear-algebraic k-means machinery.

The clustering objective is computed as the centroid sum
``sum_i ||p_i - mu(p_i)||^2``; it equals the matrix form
``||A - X X.T A||_F^2`` through the scaled indicator matrix ``X``, an
identity the tests and the ``objective-identity`` verify suite check.
Cluster centroids come from one one-hot matmul kernel shared by the
objective and Lloyd.  Backends: seeded k-means++ plus Lloyd refinement,
and an exhaustive optimal search for small instances.

Both backends first multiply the points by the exact power of two that
brings their largest magnitude into ``[0.5, 1)``, so squared distances
of huge or tiny data neither overflow nor underflow, and at ordinary
scales the scaling alone changes no comparison.  The exhaustive search
also subtracts the column means and scores every labelling through the
``m x m`` Gram matrix ``g`` of the centred points, as
``trace(g) - sum_c 1_c.T g 1_c / |c|``: scoring does not grow with the
number of columns, and an offset in the data changes the scores only by
the rounding of the column means.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ContractViolationError, ResourceLimitError
from .linalg import as_matrix

DEFAULT_MAX_ITER = 300
DEFAULT_TOL = 1e-10
BRUTE_FORCE_MAX_POINTS = 12
_PARTITION_BATCH = 4096


@dataclass(frozen=True)
class Clustering:
    """Assignment of ``num_points`` points to ``num_clusters`` non-empty clusters.

    ``assignment`` holds one 1-based label per point; every label in
    ``1..num_clusters`` must occur at least once.
    """

    num_points: int
    num_clusters: int
    assignment: tuple

    def __post_init__(self):
        m, k = self.num_points, self.num_clusters
        if m < 1 or k < 1 or k > m:
            raise ArgumentError(f"invalid clustering shape: m={m}, k={k}")
        if len(self.assignment) != m:
            raise ArgumentError("assignment must have one label per point")
        labels = np.asarray(self.assignment, dtype=int)
        if labels.min() < 1 or labels.max() > k:
            raise ContractViolationError("labels must lie in 1..num_clusters")
        if np.unique(labels).size != k:
            raise ContractViolationError("every cluster must be non-empty")

    def labels0(self) -> np.ndarray:
        """Assignment as a 0-based integer array."""
        return np.asarray(self.assignment, dtype=int) - 1

    def to_dict(self, objective_value: float) -> dict:
        return {
            "k": self.num_clusters,
            "assignment": [int(x) for x in self.assignment],
            "objective": float(objective_value),
        }


def from_labels(labels, num_clusters: int | None = None) -> Clustering:
    """Build a Clustering from an iterable of 1-based labels."""
    labels = [int(x) for x in labels]
    k = max(labels) if num_clusters is None else int(num_clusters)
    return Clustering(num_points=len(labels), num_clusters=k, assignment=tuple(labels))


def indicator(c: Clustering) -> np.ndarray:
    """Scaled cluster indicator matrix X with ``X[i, j] = 1/sqrt(s_j)``.

    X is m x k with exactly one nonzero per row and orthonormal columns.
    """
    labels = c.labels0()
    sizes = np.bincount(labels, minlength=c.num_clusters)
    x = np.zeros((c.num_points, c.num_clusters))
    x[np.arange(c.num_points), labels] = 1.0 / np.sqrt(sizes[labels])
    return x


def _centroids(a: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    # k x n cluster means; every label in 0..k-1 must occur
    onehot = (labels[:, None] == np.arange(k)).astype(float)
    return (onehot.T @ a) / np.bincount(labels, minlength=k)[:, None]


def _rescaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    # a * 2**-e with max |a| in [0.5, 1); exact for every entry that stays
    # in the normal range, so squared distances scale by exactly 2**-2e
    e = int(np.frexp(np.abs(a).max())[1])
    return (np.ldexp(a, -e) if e else a), e


def objective(a, c: Clustering) -> float:
    """k-means cost of clustering the rows of *a* with *c*.

    Computed as the sum of squared distances of points to their cluster
    centroids; equal to ``||a - x @ x.T @ a||_F^2`` for the indicator
    matrix ``x``.
    """
    a = as_matrix(a)
    if a.shape[0] != c.num_points:
        raise ArgumentError(
            f"matrix has {a.shape[0]} rows but the clustering covers {c.num_points} points"
        )
    labels = c.labels0()
    centroids = _centroids(a, labels, c.num_clusters)
    return float(np.square(a - centroids[labels]).sum())


def kmeanspp_init(a, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding: k rows of *a*, returned as a k x n array.

    The first centroid is uniform; each later one is drawn with probability
    proportional to the squared distance to the nearest centroid so far.
    When all residual distances vanish (duplicate data), the draw falls
    back to uniform over the not-yet-chosen points, so ``k == m`` selects
    every point exactly once.
    """
    a = as_matrix(a)
    m = a.shape[0]
    if not 1 <= k <= m:
        raise ArgumentError(f"need 1 <= k <= m, got k={k}, m={m}")
    rng = np.random.default_rng(seed)
    chosen = np.empty(k, dtype=int)
    chosen[0] = rng.integers(m)
    d2 = np.square(a - a[chosen[0]]).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(m, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(m), chosen[:j])
            idx = int(rng.choice(remaining))
        chosen[j] = idx
        d2 = np.minimum(d2, np.square(a - a[idx]).sum(axis=1))
    return a[chosen].copy()


def _assign(a: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # squared distances m x k; argmin breaks ties toward the smallest index
    d2 = (
        np.square(a).sum(axis=1)[:, None]
        - 2.0 * a @ centroids.T
        + np.square(centroids).sum(axis=1)[None, :]
    )
    return d2.argmin(axis=1), d2


def _repair_empty(labels: np.ndarray, d2: np.ndarray, k: int) -> np.ndarray:
    sizes = np.bincount(labels, minlength=k)
    for j in np.flatnonzero(sizes == 0):
        donors = np.flatnonzero(sizes[labels] >= 2)
        own_dist = d2[donors, labels[donors]]
        moved = donors[int(own_dist.argmax())]
        sizes[labels[moved]] -= 1
        labels[moved] = j
        sizes[j] = 1
    return labels


def lloyd(
    a,
    k: int,
    init: np.ndarray | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    seed: int | None = None,
) -> Clustering:
    """Lloyd refinement from *init* centroids (k-means++ seeded if omitted).

    Alternates assignment and centroid steps until the objective decrease
    drops below *tol* or *max_iter* is reached.  The objective is
    non-increasing across iterations; clusters emptied by an assignment
    step are repaired by reseeding them with the point farthest from its
    current centroid (taken from a cluster of size at least two).  The
    points, *init* and *tol* are rescaled by one exact power of two first:
    squared distances of huge or tiny data stay finite and non-zero, and
    at ordinary scales every decision is the one made on the raw data.
    """
    a, e = _rescaled(as_matrix(a))
    tol = float(np.ldexp(tol, -2 * e))
    m = a.shape[0]
    if not 1 <= k <= m:
        raise ArgumentError(f"need 1 <= k <= m, got k={k}, m={m}")
    if init is None:
        centroids = kmeanspp_init(a, k, 0 if seed is None else seed)
    else:
        centroids = np.ldexp(np.asarray(init, dtype=float), -e)
        if centroids.shape != (k, a.shape[1]):
            raise ArgumentError(
                f"init must be a {k}x{a.shape[1]} array, got {centroids.shape}"
            )
    prev_obj = np.inf
    prev_labels = None
    labels = None
    for _ in range(max_iter):
        labels, d2 = _assign(a, centroids)
        labels = _repair_empty(labels, d2, k)
        centroids = _centroids(a, labels, k)
        obj = float(np.square(a - centroids[labels]).sum())
        assert obj <= prev_obj + 1e-9 * max(1.0, prev_obj if np.isfinite(prev_obj) else 1.0), (
            f"objective increased: {prev_obj} -> {obj}"
        )
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        if np.isfinite(prev_obj) and prev_obj - obj < tol:
            break
        prev_obj = obj
        prev_labels = labels
    return Clustering(m, k, tuple(int(x) + 1 for x in labels))


def lloyd_best(
    a,
    k: int,
    restarts: int = 20,
    seed: int | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> Clustering:
    """Best of *restarts* seeded k-means++/Lloyd runs (ties keep the earliest).

    The restarts run and are ranked on the points rescaled as in
    :func:`lloyd`, so their costs stay finite and comparable.
    """
    a, e = _rescaled(as_matrix(a))
    tol = float(np.ldexp(tol, -2 * e))
    if restarts < 1:
        raise ArgumentError(f"need at least one restart, got {restarts}")
    base = 0 if seed is None else seed
    best = None
    best_obj = np.inf
    for t in range(restarts):
        c = lloyd(a, k, init=None, max_iter=max_iter, tol=tol, seed=base + t)
        obj = objective(a, c)
        if obj < best_obj:
            best, best_obj = c, obj
    return best


def _partition_batches(m: int, k: int):
    """Yield all assignments of m items into exactly k non-empty blocks.

    Produces (batch, m) int8 arrays of 0-based labels in restricted-growth
    (lexicographic) order, in slices of ``_PARTITION_BATCH`` rows.  The
    strings are grown one position at a time: every prefix is extended by
    each label up to one past its largest (capped at ``k - 1``), and a
    prefix is dropped once its blocks plus the positions left fall short
    of ``k``.
    """
    prefixes = np.zeros((1, 1), dtype=np.int8)
    used = np.ones(1, dtype=np.int8)
    for i in range(1, m):
        counts = np.minimum(used, k - 1) + 1
        parent = np.repeat(np.arange(used.size), counts)
        starts = np.cumsum(counts) - counts
        labels = (np.arange(parent.size) - np.repeat(starts, counts)).astype(np.int8)
        used = used[parent]
        used = used + (labels == used)
        keep = used + (m - 1 - i) >= k
        prefixes = np.hstack([prefixes[parent[keep]], labels[keep, None]])
        used = used[keep]
    prefixes = prefixes[used == k]
    for start in range(0, prefixes.shape[0], _PARTITION_BATCH):
        yield prefixes[start:start + _PARTITION_BATCH]


def _centred_gram(a: np.ndarray) -> np.ndarray:
    # m x m Gram matrix of the rescaled points minus their column means
    c = _rescaled(a)[0]
    c = c - c.mean(axis=0)
    return c @ c.T


def _batch_objectives(g: np.ndarray, label_batch: np.ndarray, k: int) -> np.ndarray:
    # cost of each labelling: trace(g) minus the between-cluster energy
    # sum_c 1_c.T g 1_c / |c|, from one batched (p, k, m) @ (m, m) matmul
    onehot = (label_batch[:, None, :] == np.arange(k)[:, None]).astype(float)
    between = ((onehot @ g) * onehot).sum(axis=2) / onehot.sum(axis=2)
    return np.trace(g) - between.sum(axis=1)


def brute_force_optimal(a, k: int) -> Clustering:
    """Globally optimal clustering by exhaustive search over all k-partitions.

    Guarded to at most 12 points; the count of partitions grows as a
    Stirling number.  The points are rescaled by an exact power of two and
    centred, and every labelling is scored through the ``m x m`` Gram
    matrix of the result, so time and memory do not grow with the number
    of columns.  Scaling the data by a power of two leaves every score
    exactly as it was; translating it changes them only by the rounding of
    the column means.  Ties keep the first partition in enumeration order.
    """
    a = as_matrix(a)
    m = a.shape[0]
    if not 1 <= k <= m:
        raise ArgumentError(f"need 1 <= k <= m, got k={k}, m={m}")
    if m > BRUTE_FORCE_MAX_POINTS:
        raise ResourceLimitError(
            f"exhaustive search is limited to {BRUTE_FORCE_MAX_POINTS} points, got {m}"
        )
    g = _centred_gram(a)
    best_labels = None
    best_obj = np.inf
    for batch in _partition_batches(m, k):
        objs = _batch_objectives(g, batch, k)
        j = int(objs.argmin())
        if objs[j] < best_obj:
            best_obj = float(objs[j])
            best_labels = batch[j]
    return Clustering(m, k, tuple(int(x) + 1 for x in best_labels))
