"""Linear-algebraic k-means machinery.

The clustering objective is computed as the centroid sum
``sum_i ||p_i - mu(p_i)||^2``; it equals the matrix form
``||A - X X.T A||_F^2`` through the scaled indicator matrix ``X``, an
identity the tests and the ``objective-identity`` verify suite check.
Cluster centroids come from one one-hot matmul kernel, and costs from
one kernel that works in a single m x n scratch array, both shared by
the objective and Lloyd.  Backends: seeded k-means++ plus Lloyd refinement,
and an exhaustive optimal search for small instances.

Every public function checks its arguments, then rescales its points
once by the package's one rule (``linalg._rescaled``), which is also the
check that they are finite.  So squared distances of huge or tiny data
neither overflow nor underflow, and the scaling alone changes no
comparison and no value.  k-means++ and Lloyd are private
kernels on the prepared points, and :func:`lloyd_best` ranks restarts by
the cost its Lloyd kernel computed.  The exhaustive search also
subtracts the column means and scores every labelling through the
``m x m`` Gram matrix ``g`` of the centred points, as
``trace(g) - sum_c 1_c.T g 1_c / |c|``: scoring does not grow with the
number of columns, and an offset in the data changes the scores only by
the rounding of the column means.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ArgumentError, ContractViolationError, ResourceLimitError
from .linalg import _as_2d, _at_scale, _rescaled

_MAX_ITER = 300
# Lloyd stops once a step lowers the cost by less than this, at the data's scale
_TOL = 1e-10
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


def _cost(b: np.ndarray, centroids: np.ndarray, labels: np.ndarray, out: np.ndarray) -> float:
    # sum_i ||b_i - centroids[labels_i]||^2, the value and rounding of
    # np.square(b - centroids[labels]).sum(): gather, difference and squares
    # all go into the C-ordered m x n scratch *out*.  take's default mode
    # would buffer its output; the labels are in range, so 'clip' is a no-op
    np.take(centroids, labels, axis=0, out=out, mode="clip")
    np.subtract(b, out, out=out)
    return float(np.square(out, out=out).sum())


def objective(a, c: Clustering) -> float:
    """k-means cost of clustering the rows of *a* with *c*.

    Computed as the sum of squared distances of points to their cluster
    centroids; equal to ``||a - x @ x.T @ a||_F^2`` for the indicator
    matrix ``x``.  The sum is taken on the rescaled points, in one m x n
    scratch array, and scaled back exactly; a cost beyond the float64
    range raises :class:`ContractViolationError`.
    """
    a = _as_2d(a)
    if a.shape[0] != c.num_points:
        raise ArgumentError(
            f"matrix has {a.shape[0]} rows but the clustering covers {c.num_points} points"
        )
    labels = c.labels0()
    b, e = _rescaled(a)
    centroids = _centroids(b, labels, c.num_clusters)
    return _at_scale(_cost(b, centroids, labels, np.empty(b.shape)), 2 * e, "clustering cost")


def _checked(a, k: int) -> np.ndarray:
    # *a* as a matrix of at least k rows, entries unchecked: the caller's
    # rescale checks them
    a = _as_2d(a)
    m = a.shape[0]
    if not 1 <= k <= m:
        raise ArgumentError(f"need 1 <= k <= m, got k={k}, m={m}")
    return a


def _kmeanspp(b: np.ndarray, k: int, seed: int) -> np.ndarray:
    # row indices of the k-means++ draws on prepared points b
    m = b.shape[0]
    rng = np.random.default_rng(seed)
    chosen = np.empty(k, dtype=int)
    chosen[0] = rng.integers(m)
    d2 = np.square(b - b[chosen[0]]).sum(axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total > 0.0:
            idx = int(rng.choice(m, p=d2 / total))
        else:
            remaining = np.setdiff1d(np.arange(m), chosen[:j])
            idx = int(rng.choice(remaining))
        chosen[j] = idx
        d2 = np.minimum(d2, np.square(b - b[idx]).sum(axis=1))
    return chosen


def kmeanspp_init(a, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding: k rows of *a*, returned as a k x n array.

    The first centroid is uniform; each later one is drawn with probability
    proportional to the squared distance to the nearest centroid so far.
    When all residual distances vanish (duplicate data), the draw falls
    back to uniform over the not-yet-chosen points, so ``k == m`` selects
    every point exactly once.  Distances are taken on the rescaled points,
    which leaves every draw as it is and keeps them finite on data whose
    squares overflow.
    """
    a = _checked(a, k)
    return a[_kmeanspp(_rescaled(a)[0], k, seed)]


class _Points(NamedTuple):
    # prepared points b with what every Lloyd step reuses: squared row
    # norms, 2 b for the cross term, and the m x n scratch of _cost
    b: np.ndarray
    sq: np.ndarray
    twice: np.ndarray
    scratch: np.ndarray


def _points(b: np.ndarray) -> _Points:
    return _Points(b, np.square(b).sum(axis=1), 2.0 * b, np.empty(b.shape))


def _assign(p: _Points, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # squared distances m x k; argmin breaks ties toward the smallest index
    d2 = p.sq[:, None] - p.twice @ centroids.T + np.square(centroids).sum(axis=1)[None, :]
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


def _lloyd(p: _Points, k: int, centroids: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    # 0-based labels and their cost on prepared points, by the kernel
    # objective uses; tol is at the scale of p.b
    prev_obj, prev_labels = np.inf, None
    for _ in range(_MAX_ITER):
        labels, d2 = _assign(p, centroids)
        labels = _repair_empty(labels, d2, k)
        centroids = _centroids(p.b, labels, k)
        obj = _cost(p.b, centroids, labels, p.scratch)
        if prev_labels is not None:
            assert obj <= prev_obj + 1e-9 * max(1.0, prev_obj), (
                f"objective increased: {prev_obj} -> {obj}"
            )
            if np.array_equal(labels, prev_labels) or prev_obj - obj < tol:
                break
        prev_obj, prev_labels = obj, labels
    return labels, obj


def lloyd(a, k: int, seed: int | None = None) -> Clustering:
    """One k-means++-seeded Lloyd run: ``lloyd_best(a, k, 1, seed)``."""
    return lloyd_best(a, k, 1, seed)


def lloyd_best(a, k: int, restarts: int = 20, seed: int | None = None) -> Clustering:
    """Best of *restarts* seeded k-means++/Lloyd runs (ties keep the earliest).

    Restart ``t`` seeds k-means++ with ``seed + t`` (0 + t without a seed),
    then alternates assignment and centroid steps until the labels repeat,
    the objective decrease drops below 1e-10, or 300 iterations have run.
    The objective is non-increasing across iterations; clusters emptied by
    an assignment step are repaired by reseeding them with the point
    farthest from its current centroid (taken from a cluster of size at
    least two).  The points and the tolerance are rescaled once by the
    package's one scaling rule, so squared distances of huge or tiny data
    stay finite and non-zero; a tolerance whose rescaled value overflows
    lets every decrease stop a run.  Restarts are ranked by their final
    cost there, the value :func:`objective` gives.
    """
    a = _checked(a, k)
    if restarts < 1:
        raise ArgumentError(f"need at least one restart, got {restarts}")
    b, e = _rescaled(a)
    base = 0 if seed is None else seed
    with np.errstate(over="ignore"):  # saturates at inf, below which every decrease falls
        tol = float(np.ldexp(_TOL, -2 * e))
    p = _points(b)
    runs = (_lloyd(p, k, b[_kmeanspp(b, k, base + t)], tol) for t in range(restarts))
    labels = min(runs, key=lambda run: run[1])[0]  # the first of equal costs wins
    return Clustering(b.shape[0], k, tuple(int(x) + 1 for x in labels))


def _partition_batches(m: int, k: int):
    """Yield all assignments of m items into exactly k non-empty blocks.

    Produces (batch, m) int8 arrays of 0-based labels in restricted-growth
    (lexicographic) order, in slices of ``_PARTITION_BATCH`` rows.  The
    strings are grown one position at a time: every prefix is extended by
    each label up to one past its largest (capped at ``k - 1``), and a
    prefix is dropped once its blocks plus the positions left fall short
    of ``k``.  The prefixes are grown depth first, at most
    ``_PARTITION_BATCH`` of one length at a time, so memory stays bounded
    however many strings there are.
    """
    pending = np.empty((0, m), dtype=np.int8)
    for strings in _expand(np.zeros((1, 1), dtype=np.int8), np.ones(1, dtype=np.int8), m, k):
        pending = np.vstack([pending, strings])
        while pending.shape[0] >= _PARTITION_BATCH:
            yield pending[:_PARTITION_BATCH]
            pending = pending[_PARTITION_BATCH:]
    if pending.shape[0]:
        yield pending


def _expand(prefixes: np.ndarray, used: np.ndarray, m: int, k: int):
    # the complete strings below *prefixes* (with *used* blocks each), in
    # order; a frontier of more than _PARTITION_BATCH prefixes is split
    # into chunks of that many, each grown to full length before the next
    for i in range(prefixes.shape[1], m):
        if used.size > _PARTITION_BATCH:
            for start in range(0, used.size, _PARTITION_BATCH):
                stop = start + _PARTITION_BATCH
                yield from _expand(prefixes[start:stop], used[start:stop], m, k)
            return
        counts = np.minimum(used, k - 1) + 1
        parent = np.repeat(np.arange(used.size), counts)
        starts = np.cumsum(counts) - counts
        labels = (np.arange(parent.size) - np.repeat(starts, counts)).astype(np.int8)
        used = used[parent]
        used = used + (labels == used)
        keep = used + (m - 1 - i) >= k
        prefixes = np.hstack([prefixes[parent[keep]], labels[keep, None]])
        used = used[keep]
    yield prefixes[used == k]


def _centred_gram(a: np.ndarray) -> np.ndarray:
    # m x m Gram matrix of the rescaled points minus their column means
    c = _rescaled(a)[0]
    c = c - c.mean(axis=0)
    return c @ c.T


def _batch_objectives(g: np.ndarray, label_batch: np.ndarray, k: int,
                      scratch: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    # cost of each labelling: trace(g) minus the between-cluster energy
    # sum_c 1_c.T g 1_c / |c|, from one batched (p, k, m) @ (m, m) matmul.
    # *scratch*, two (at least p, k, m) float arrays, is reused across the
    # batches of one search: megabyte temporaries allocated afresh for every
    # batch are faulted in afresh too, which made a streamed 12-point search
    # about 60% slower
    p = label_batch.shape[0]
    onehot, prod = scratch[0][:p], scratch[1][:p]
    np.equal(label_batch[:, None, :], np.arange(k)[:, None], out=onehot)
    np.matmul(onehot, g, out=prod)
    between = np.multiply(prod, onehot, out=prod).sum(axis=2) / onehot.sum(axis=2)
    return np.trace(g) - between.sum(axis=1)


def _require_enumerable(m: int) -> None:
    if m > BRUTE_FORCE_MAX_POINTS:
        raise ResourceLimitError(
            f"exhaustive search is limited to {BRUTE_FORCE_MAX_POINTS} points, got {m}"
        )


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
    a = _checked(a, k)
    m = a.shape[0]
    _require_enumerable(m)
    g = _centred_gram(a)
    scratch = None
    best_labels = None
    best_obj = np.inf
    for batch in _partition_batches(m, k):
        if scratch is None:  # sized by the first batch, the largest
            scratch = np.empty((batch.shape[0], k, m)), np.empty((batch.shape[0], k, m))
        objs = _batch_objectives(g, batch, k, scratch)
        j = int(objs.argmin())
        if objs[j] < best_obj:
            best_obj = float(objs[j])
            best_labels = batch[j]
    return Clustering(m, k, tuple(int(x) + 1 for x in best_labels))
