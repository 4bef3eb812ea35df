"""Linear-algebraic k-means machinery.

The clustering objective is computed as the centroid sum
``sum_i ||p_i - mu(p_i)||^2``; it equals the matrix form
``||A - X X.T A||_F^2`` through the scaled indicator matrix ``X``, an
identity the tests and the ``objective-identity`` verify suite check.
Cluster centroids come from one one-hot matmul kernel, and costs from
one kernel that gathers, subtracts and squares in one array of its own,
both shared by the objective and Lloyd and both taking a stack of
labellings: one for the objective, one per restart for Lloyd.  Each
kernel allocates its own temporaries.  The objective hands both kernels
blocks of rows of at most ``_STACK_FLOATS`` floats and adds up their
centroid sums and costs, so it holds no ``m x n`` array; an input of one
block gets the bits of the whole-matrix kernels.  Backends: seeded
k-means++ plus Lloyd refinement, and an exhaustive optimal search for
small instances.
Both backends label points 0-based and a :class:`Clustering` keeps
1-based labels: :func:`from_labels` builds every clustering the package
returns, and ``Clustering.labels0`` is the one way back.

Every public function checks its arguments, then rescales its points
once by the package's one rule (``linalg._rescaled``, or
``linalg._scaled_rows`` block by block in the objective), which is also
the check that they are finite.  So squared distances of huge or tiny
data neither overflow nor underflow, and the scaling alone changes no
comparison and no value.  :func:`lloyd_best` and the exhaustive search
also subtract the column means of the rescaled points: no k-means cost
changes under a translation, and an offset that dwarfs the spread would
otherwise cancel in Lloyd's expanded squared distances.  k-means++ and
Lloyd are private kernels on the prepared points, and
:func:`lloyd_best` ranks restarts by the cost its Lloyd kernel
computed.  The kernels run a chunk of restarts
in lockstep, as one ``(restarts, m, k)`` stack: each restart keeps its
own random stream, its own stop and every bit of its result, and leaves
the stack when it stops, and the chunk size keeps each stacked temporary
within ``max(m n, _STACK_FLOATS)`` floats.  The exhaustive search scores
every labelling through the ``m x m`` Gram matrix ``g`` of the centred
points, as ``trace(g) - sum_c 1_c.T g 1_c / |c|``: scoring does not grow
with the number of columns, and an offset in the data changes the scores
only by the rounding of the column means.  The labellings are decoded
from their ranks in lexicographic order, one batch of ``_PARTITION_BATCH``
at a time, and a batch of p labellings is scored with one 2-d
``(p k) x m`` by ``m x m`` product, a row-wise dot with the ``(p k, m)``
one-hot of their clusters and a product with their reciprocal cluster
sizes.  An enumeration of at most one batch is built once per process,
with its one-hot and reciprocal sizes, and reused read-only; larger ones
stream, so memory stays bounded by the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ContractViolationError, NumericalSearchError, ResourceLimitError
from .linalg import _as_2d, _at_scale, _rescaled, _scaled_rows, _valid_int, _valid_ints

_MAX_ITER = 300
# Lloyd stops once a step lowers the cost by less than this, at the data's scale
_TOL = 1e-10
# lloyd_best runs as many restarts at once as keep each stacked temporary,
# (restarts, m, max(n, k)) floats, within max(m * n, _STACK_FLOATS);
# objective takes its rows in blocks of at most this many floats
_STACK_FLOATS = 2**16
BRUTE_FORCE_MAX_POINTS = 12
_PARTITION_BATCH = 4096
# (m, k) -> what scoring an enumeration that fits one batch reads: its
# (p, m) int8 labels, their (p k, m) bool one-hot and (p, k) reciprocal
# cluster sizes, built by its first search: at most 58 shapes, 1.83 MB in
# all.  An entry depends on its (m, k) alone and is read-only, so every
# caller may share it
_ONE_BATCH: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class Clustering:
    """Assignment of ``num_points`` points to ``num_clusters`` non-empty clusters.

    ``assignment`` holds one 1-based label per point; every label in
    ``1..num_clusters`` must occur at least once.  The counts and labels
    follow the one integer rule: a float, a bool or a string raises
    :class:`ArgumentError`, never a truncation, and each is kept as a
    Python ``int``.
    """

    num_points: int
    num_clusters: int
    assignment: tuple

    def __post_init__(self):
        m = _valid_int(self.num_points, "num_points", 1)
        k = _valid_int(self.num_clusters, "num_clusters", 1, m)
        if len(self.assignment) != m:
            raise ArgumentError("assignment must have one label per point")
        labels = _valid_ints(self.assignment, "label")
        for name, value in (("num_points", m), ("num_clusters", k), ("assignment", labels)):
            object.__setattr__(self, name, value)  # frozen: set once, here
        if min(labels) < 1 or max(labels) > k:
            raise ContractViolationError("labels must lie in 1..num_clusters")
        if len(set(labels)) != k:
            raise ContractViolationError("every cluster must be non-empty")

    def labels0(self) -> np.ndarray:
        """Assignment as a 0-based integer array."""
        return np.asarray(self.assignment, dtype=int) - 1

    def to_dict(self, objective_value: float) -> dict:
        return {
            "k": self.num_clusters,
            "assignment": list(self.assignment),
            "objective": float(objective_value),
        }


def from_labels(labels, num_clusters: int) -> Clustering:
    """Build a Clustering of *num_clusters* clusters from 1-based integer labels.

    Labels and *num_clusters* follow the one integer rule: a float or a
    string raises :class:`ArgumentError`, never a truncation.
    """
    labels = tuple(labels)
    return Clustering(len(labels), num_clusters, labels)


def indicator(c: Clustering) -> np.ndarray:
    """Scaled cluster indicator matrix X with ``X[i, j] = 1/sqrt(s_j)``.

    X is m x k with exactly one nonzero per row and orthonormal columns.
    """
    labels = c.labels0()
    sizes = np.bincount(labels, minlength=c.num_clusters)
    x = np.zeros((c.num_points, c.num_clusters))
    x[np.arange(c.num_points), labels] = 1.0 / np.sqrt(sizes[labels])
    return x


def _stack_rows(labels: np.ndarray, k: int) -> np.ndarray:
    # each label of the (s, m) stack as a row of the stack's (s k) x n
    # centroids, and as a bin of its (s, k) cluster sizes
    return labels + k * np.arange(labels.shape[0])[:, None]


def _centroids(b: np.ndarray, labels: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    # (s, k, n) cluster means of each of the s labellings in *labels*
    # (s, m), whose (s, k) cluster sizes are all positive; (k, n) for one
    # labelling (m,) with sizes (k,).  matmul on the stack runs one GEMM
    # per labelling, which rounds as the 2-d product of one labelling does;
    # one (s k) x m product would round otherwise
    onehot = (labels[..., None] == np.arange(sizes.shape[-1])).astype(float)
    return np.matmul(onehot.swapaxes(-1, -2), b) / sizes[..., None]


def _cost(b: np.ndarray, centroids: np.ndarray, rows: np.ndarray) -> np.ndarray:
    # (s,) costs sum_i ||b_i - c[rows[t, i]]||^2, c the (s k) x n rows of
    # the stacked (s, k, n) centroids; for one labelling, rows (m,) of the
    # (k, n) centroids, the one cost.  Gather, difference and squares all
    # go into one C-ordered (s, m, n) or (m, n) array, whatever the layout
    # of b, and numpy sums each m x n block as one contiguous run, in
    # row-major order
    out = np.take(centroids.reshape(-1, b.shape[1]), rows, axis=0)
    np.subtract(b, out, out=out)
    return np.square(out, out=out).sum(axis=(-2, -1))


def _require_covers(c: Clustering, m: int) -> None:
    # the one rule that a clustering labels every one of a matrix's m rows
    if c.num_points != m:
        raise ArgumentError(f"clustering covers {c.num_points} points but the matrix has {m} rows")


def objective(a, c: Clustering) -> float:
    """k-means cost of clustering the rows of *a* with *c*.

    Computed as the sum of squared distances of points to their cluster
    centroids; equal to ``||a - x @ x.T @ a||_F^2`` for the indicator
    matrix ``x``.  The centroid sums and the cost are taken on the
    rescaled points over blocks of rows, each of at most 2**16 floats (one
    row where a row is longer), and added up; away from scale 1 each
    block is scaled into one reused buffer.  So the call holds no m x n
    array: on a 4000 x 500 input it peaks at 0.04x the input at scale 1
    and 0.07x at 1e150, where one m x n array took 1.0x and 2.0x
    (tracemalloc).  The cost is scaled back exactly; a cost beyond the
    float64 range raises :class:`ContractViolationError`.
    """
    a = _as_2d(a)
    _require_covers(c, a.shape[0])
    labels = c.labels0()
    sizes = np.bincount(labels, minlength=c.num_clusters)
    rows = max(1, _STACK_FLOATS // a.shape[1])
    e, blocks = _scaled_rows(a, rows)
    # one labelling: its labels are its rows of the centroids.  A single
    # block gives the bits of the whole-matrix kernels
    centroids = sum(_centroids(b, labels[i:i + rows], sizes) for i, b in blocks())
    cost = sum(float(_cost(b, centroids, labels[i:i + rows])) for i, b in blocks())
    return _at_scale(cost, 2 * e, "clustering cost")


def _centred(a: np.ndarray) -> tuple[np.ndarray, int]:
    # the rescaled points minus their column means, in their layout, and
    # the scale exponent.  No k-means cost changes under a translation, and
    # centred points keep an offset that dwarfs their spread from
    # cancelling in |b|^2 - 2 b.c + |c|^2
    b, e = _rescaled(a)
    return b - b.mean(axis=0), e


def _checked(a, k: int) -> np.ndarray:
    # *a* as a matrix of at least k rows, entries unchecked: the caller's
    # rescale checks them
    a = _as_2d(a)
    _valid_int(k, "k", 1, a.shape[0])
    return a


def _weighted_draw(rng: np.random.Generator, p: np.ndarray) -> int:
    # the index rng.choice(p.size, p=p) draws, from the same one double of
    # the stream: its algorithm, without its checks on p
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sq_dists(b: np.ndarray, centres: np.ndarray) -> np.ndarray:
    # (s, m) squared distances from the points b to each of s centres, each
    # the value and rounding of np.square(b - centre).sum(axis=1): numpy lays
    # the stacked difference out as b is laid out, column-major when b is,
    # so each row adds in that order.  Squaring it in place keeps the
    # layout and skips a second (s, m, n) array
    d = b - centres[:, None]
    return np.square(d, out=d).sum(axis=2)


def _kmeanspp(b: np.ndarray, k: int, seeds) -> np.ndarray:
    # (s, k) row indices of the k-means++ draws on prepared points b, one
    # row per seed, drawn in lockstep: each seed's stream makes the draws
    # it makes alone
    m = b.shape[0]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    chosen = np.empty((len(rngs), k), dtype=int)
    chosen[:, 0] = [rng.integers(m) for rng in rngs]
    d2 = _sq_dists(b, b[chosen[:, 0]])
    for j in range(1, k):
        totals = d2.sum(axis=1)
        for t, rng in enumerate(rngs):
            if totals[t] > 0.0:
                chosen[t, j] = _weighted_draw(rng, d2[t] / totals[t])
            else:
                remaining = np.setdiff1d(np.arange(m), chosen[t, :j])
                chosen[t, j] = rng.choice(remaining)
        np.minimum(d2, _sq_dists(b, b[chosen[:, j]]), out=d2)
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
    _valid_int(seed, "seed", 0)
    return a[_kmeanspp(_rescaled(a)[0], k, (seed,))[0]]


def _repair_empty(labels: np.ndarray, d2: np.ndarray, sizes: np.ndarray) -> None:
    # reseed, in place, each empty cluster of one run's labels with the
    # point farthest from its centroid among clusters of two or more, and
    # keep the run's cluster *sizes* up to date
    for j in np.flatnonzero(sizes == 0):
        donors = np.flatnonzero(sizes[labels] >= 2)
        own_dist = d2[donors, labels[donors]]
        moved = donors[int(own_dist.argmax())]
        sizes[labels[moved]] -= 1
        labels[moved] = j
        sizes[j] = 1


def _lloyd(b: np.ndarray, centroids: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    # (s, m) 0-based labels and (s,) costs of s Lloyd runs from the stacked
    # (s, k, n) centroids on prepared points b, by the kernels objective
    # uses.  The runs advance in lockstep; each takes the steps, the stop
    # and the cost it takes alone, and leaves the stack when it stops.  tol
    # is at the scale of b
    s, k = centroids.shape[:2]
    sq, twice = np.square(b).sum(axis=1), 2.0 * b
    labels_out, costs_out = np.empty((s, b.shape[0]), dtype=np.intp), np.empty(s)
    live, prev_obj = np.arange(s), np.full(s, np.inf)  # every first cost is below inf
    for step in range(_MAX_ITER):
        # squared distances to each run's centroids, labels (argmin breaks
        # ties toward the smallest index) and (s, k) cluster sizes
        cross = np.matmul(twice, centroids.transpose(0, 2, 1))
        d2 = sq[:, None] - cross + np.square(centroids).sum(axis=2)[:, None, :]
        labels = d2.argmin(axis=2)
        sizes = np.bincount(_stack_rows(labels, k).ravel(), minlength=live.size * k).reshape(-1, k)
        for t in np.flatnonzero((sizes == 0).any(axis=1)):
            _repair_empty(labels[t], d2[t], sizes[t])
        centroids = _centroids(b, labels, sizes)
        obj = _cost(b, centroids, _stack_rows(labels, k))
        # exact arithmetic never raises the cost; rounding can, on points
        # whose offset dwarfs their spread
        rose = ~(obj <= prev_obj + 1e-9 * np.maximum(1.0, prev_obj))
        if rose.any():
            t = int(rose.argmax())  # the first run of the stack whose cost rose
            raise NumericalSearchError(
                f"Lloyd step {step} raised the cost: {prev_obj[t]} -> {obj[t]}", step=step,
                diagnostics={"restart": live[t], "previous_cost": prev_obj[t], "cost": obj[t]})
        # a repeated labelling repeats the centroids and cost of the step
        # before bit for bit, so an unchanged cost stops a run even when tol
        # underflows to 0
        stop = (obj == prev_obj) | (prev_obj - obj < tol) | (step == _MAX_ITER - 1)
        if stop.any():
            labels_out[live[stop]], costs_out[live[stop]] = labels[stop], obj[stop]
            live, labels, obj, centroids = live[~stop], labels[~stop], obj[~stop], centroids[~stop]
            if not live.size:
                break
        prev_obj = obj
    return labels_out, costs_out


def lloyd(a, k: int, seed: int | None = None) -> Clustering:
    """One k-means++-seeded Lloyd run: ``lloyd_best(a, k, 1, seed)``."""
    return lloyd_best(a, k, 1, seed)


def lloyd_best(a, k: int, restarts: int = 20, seed: int | None = None) -> Clustering:
    """Best of *restarts* seeded k-means++/Lloyd runs (ties keep the earliest).

    Restart ``t`` seeds k-means++ with ``seed + t`` (0 + t without a seed),
    then alternates assignment and centroid steps until a step leaves the
    cost unchanged or lowers it by less than 1e-10, or 300 iterations have
    run.
    The objective is non-increasing across iterations in exact arithmetic;
    a step that raises it, which only rounding can do (on points whose
    offset dwarfs their spread), raises :class:`NumericalSearchError` with
    the restart's seed.  Clusters emptied by an assignment step are
    repaired by reseeding them with the point farthest from its current
    centroid (taken from a cluster of size at least two).  The points and
    the tolerance are rescaled once by the package's one scaling rule, so
    squared distances of huge or tiny data stay finite and non-zero; a
    tolerance whose rescaled value overflows lets every decrease stop a
    run.  The rescaled points are then centred on their column means, so
    an offset that dwarfs their spread clusters as the points without it
    do; clusters far apart whose spread is tiny can still raise the
    error.  Restarts are ranked by their final cost there, the value
    :func:`objective` gives.

    The restarts run in lockstep, in chunks: a chunk's seedings and Lloyd
    steps work on one stack of its restarts, and each restart leaves the
    stack when it stops, with the labels and cost it has when run alone.
    A chunk holds as many restarts as keep every stacked temporary within
    ``max(m * n, 2**16)`` floats, so memory does not grow with *restarts*.
    """
    a = _checked(a, k)
    restarts = _valid_int(restarts, "restarts", 1)
    base = _valid_int(0 if seed is None else seed, "seed", 0)
    b, e = _centred(a)
    with np.errstate(over="ignore"):  # saturates at inf, below which every decrease falls
        tol = float(np.ldexp(_TOL, -2 * e))
    m, n = b.shape
    per = min(restarts, max(1, max(m * n, _STACK_FLOATS) // (m * max(n, k))))
    best, best_cost = None, np.inf
    for start in range(0, restarts, per):
        seeds = range(base + start, base + min(start + per, restarts))
        try:
            labels, costs = _lloyd(b, b[_kmeanspp(b, k, seeds)], tol)
        except NumericalSearchError as exc:  # name the restart by its seed
            exc.diagnostics["seed"] = seeds[exc.diagnostics.pop("restart")]
            raise
        t = int(costs.argmin())  # the first of equal costs wins, here and across chunks
        if costs[t] < best_cost:
            best, best_cost = labels[t], costs[t]
    return from_labels(best + 1, k)


def _partition_batches(m: int, k: int):
    """Yield all assignments of m items into exactly k non-empty blocks.

    Produces (batch, m) int8 arrays of 0-based labels in restricted-growth
    (lexicographic) order, in slices of ``_PARTITION_BATCH`` rows.  Each
    slice is decoded from its ranks ``[j * _PARTITION_BATCH, (j + 1) *
    _PARTITION_BATCH)`` in one pass over the positions: with ``u`` blocks
    used, each label below ``u`` takes the next ``completions[i + 1, u]``
    ranks and the new label ``u`` the rest.  Memory is one batch however
    many strings there are.
    """
    # completions[i, u]: the ways to label positions i..m-1 after a prefix
    # of u blocks so that the string has exactly k; S(m, k) = completions[1, 1]
    completions = np.zeros((m + 1, k + 2), dtype=np.int64)
    completions[m, k] = 1
    for i in range(m - 1, 0, -1):
        completions[i, :-1] = np.arange(k + 1) * completions[i + 1, :-1] + completions[i + 1, 1:]
    total = int(completions[1, 1])
    for start in range(0, total, _PARTITION_BATCH):
        rank = np.arange(start, min(start + _PARTITION_BATCH, total))
        used = np.ones_like(rank)
        labels = np.zeros((rank.size, m), dtype=np.int8)
        for i in range(1, m):
            each = completions[i + 1, used]
            new = rank >= used * each
            labels[:, i] = label = np.where(new, used, rank // np.maximum(each, 1))
            rank -= label * each
            used += new
        yield labels


def _centred_gram(a: np.ndarray) -> np.ndarray:
    # m x m Gram matrix of the centred points
    c = _centred(a)[0]
    return c @ c.T


def _one_hot(labels: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    # the (p k, m) one-hot of p labellings (p, m): row t k + c marks the
    # points of cluster c of labelling t.  bool, or the dtype of *out*, a
    # (p, k, m) array
    p, m = labels.shape
    return np.equal(labels[:, None, :], np.arange(k)[:, None], out=out).reshape(p * k, m)


def _batch_objectives(g: np.ndarray, onehot: np.ndarray, inv_sizes: np.ndarray,
                      prod: np.ndarray) -> np.ndarray:
    # cost of each of p labellings: trace(g) minus the between-cluster
    # energy sum_c 1_c.T g 1_c / |c|, from the float (p k, m) one-hot of
    # their clusters and their (p, k) reciprocal cluster sizes.  One 2-d
    # (p k) x m by m x m product into *prod*, (p k, m) floats, then a
    # row-wise dot with the one-hot: a stacked (p, k, m) @ (m, m) matmul
    # would run p tiny GEMMs
    np.matmul(onehot, g, out=prod)
    between = np.einsum("ij,ij->i", prod, onehot).reshape(inv_sizes.shape)
    return np.trace(g) - np.multiply(between, inv_sizes, out=between).sum(axis=1)


def _scored_batches(m: int, k: int):
    # (labels, float one-hot, reciprocal sizes, product buffer) of each
    # batch of the enumeration, for _batch_objectives.  A cached shape
    # copies its bool one-hot into one array that also holds the product:
    # two fresh arrays made a cached 9-point search about 2.5x slower.  A
    # streamed search reuses one one-hot and one product buffer across its
    # batches: megabyte temporaries allocated afresh for every batch are
    # faulted in afresh too, which made a streamed 12-point search about
    # 60% slower, and one array for both raised the peak resident memory
    # of a certify-small pass by up to 0.8 MB.  An enumeration that came in
    # one batch is cached once it is scored
    entry = _ONE_BATCH.get((m, k))
    if entry is not None:
        labels, onehot, inv_sizes = entry
        buffers = np.empty((2,) + onehot.shape)
        np.copyto(buffers[0], onehot)
        yield labels, buffers[0], inv_sizes, buffers[1]
        return
    buffers = None
    for count, labels in enumerate(_partition_batches(m, k), 1):
        p = labels.shape[0]
        if buffers is None:  # sized by the first batch, the largest
            buffers = np.empty((p, k, m)), np.empty((p * k, m))
        onehot = _one_hot(labels, k, out=buffers[0][:p])
        sizes = onehot.sum(axis=1).reshape(p, k)
        yield labels, onehot, np.reciprocal(sizes, out=sizes), buffers[1][:p * k]
    if count == 1:
        entry = labels, _one_hot(labels, k), sizes
        for array in entry:
            array.flags.writeable = False
        _ONE_BATCH[m, k] = entry


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
    of columns.  Each batch of labellings is scored with one 2-d product
    of its one-hot cluster matrix and the Gram matrix, a row-wise dot with
    the one-hot and a product with the reciprocal cluster sizes.  Scaling
    the data by a power of two leaves every score exactly as it was;
    translating it changes them only by the rounding of the column means.
    Ties keep the first partition in enumeration order.  An enumeration
    of at most ``_PARTITION_BATCH`` labellings is kept, read-only, with
    its one-hot matrix and reciprocal sizes, for later searches on the
    same ``(m, k)``.
    """
    a = _checked(a, k)
    m = a.shape[0]
    _require_enumerable(m)
    g = _centred_gram(a)
    best_labels = None
    best_obj = np.inf
    for labels, onehot, inv_sizes, prod in _scored_batches(m, k):
        objs = _batch_objectives(g, onehot, inv_sizes, prod)
        j = int(objs.argmin())
        if objs[j] < best_obj:
            best_obj = float(objs[j])
            best_labels = labels[j]
    return from_labels(best_labels + 1, k)
