"""CART-style trees grown level-wise over quantile-binned features.

Splits are searched over per-feature candidate thresholds built from the
training data: exact midpoints between consecutive distinct values when a
feature has at most `max_bins` distinct values (the regime of all small
datasets), quantile-spaced cut points beyond that. Growth is level-wise so
histograms for every frontier node are accumulated in a handful of
vectorized passes; ties are broken toward the lowest feature index, then
the lowest threshold.

Split histograms are channel-major, `(channel, node, feature, bin)`: the
channels are the class weights (gini) or the weight and weighted-target
sums (variance), and the bins sit on the contiguous last axis that the
prefix sums run along. The trees, and so the saved models, are
byte-identical to a channel-last engine because every histogram cell sums
its rows in row order and channel sums run left to right (numpy's order
for a channel-last `sum(axis=-1)` below eight channels; `chan_sum`
defers to numpy itself from eight on).

Only splittable frontier nodes (enough rows and, in gini mode, impure)
get histograms; per-split feature subsets are still drawn for the whole
frontier, so the RNG stream is the same whichever nodes can split.

Each level does one histogram pass per channel and skips what cannot
change a split; each shortcut is exact, not approximate:

- When one chunk holds the whole frontier, that is when the splittable
  nodes number at most `_CELL_BUDGET // (features searched * max_b *
  channels)` (every fit of the benchmark), rows are histogrammed in row
  order without sorting them by node: each cell belongs to one node, so
  it still sums its rows in row order.
- A boundary at or past a feature's last bin leaves no row on the right,
  so the leaf-size test (`min_samples_leaf` >= 1) rules it out and no
  per-feature bin mask is needed.
- The leaf-size test counts rows. With unit weights the weight totals
  are the row counts, so no row-count histogram is made.

Binning a training matrix is shared inside a `shared_bins()` block: there
`bin_features` returns the same read-only `BinTable` for every call on an
equal matrix (same shape, `max_bins` and float64 bytes), so the trees of
every kind and grid point that cross-validation fits on one fold matrix
bin it once. The cache lives only as long as the block (the runner opens
one per train stage); outside a block every call bins afresh.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .base import (
    TREE_PARAMS,
    BaseClassifier,
    ClassifierSpec,
    chan_sum,
    check_shapes,
    check_training_inputs,
    normalize_rows,
)

_GAIN_EPS = 1e-12
# Cap on histogram cells per pass; frontiers larger than this are chunked.
_CELL_BUDGET = 8_000_000
# (shape, max_bins, digest of the float64 bytes) -> BinTable, while a
# shared_bins() block is open; None outside one.
_shared: dict | None = None


@dataclass(frozen=True)
class BinTable:
    """Binned view of a feature matrix plus per-feature split candidates."""

    codes: np.ndarray      # (n, d) uint16 bin index per value
    n_bins: np.ndarray     # (d,) int64
    edges_flat: np.ndarray  # concatenated per-feature thresholds
    edge_offset: np.ndarray  # (d+1,) start of each feature's thresholds
    flat_codes: np.ndarray  # (n, d) int64, codes + feature * max_b

    def threshold(self, feature: int, boundary: int) -> float:
        return float(self.edges_flat[self.edge_offset[feature] + boundary])


@contextmanager
def shared_bins():
    """Share one `BinTable` per distinct training matrix within the block.

    A nested block uses the cache of the outermost one, and the cache is
    dropped when that block ends.
    """
    global _shared
    outer = _shared
    if outer is None:
        _shared = {}
    try:
        yield
    finally:
        _shared = outer


def bin_features(X: np.ndarray, max_bins: int = TREE_PARAMS["max_bins"].default) -> BinTable:
    """Bin codes and split candidates of X; its arrays are read-only."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if _shared is None:
        return _bin(X, max_bins)
    key = (X.shape, max_bins, hashlib.blake2b(X, digest_size=16).digest())
    table = _shared.get(key)
    if table is None:
        table = _shared[key] = _bin(X, max_bins)
    return table


def _bin(X: np.ndarray, max_bins: int) -> BinTable:
    n, d = X.shape
    xs = np.sort(X, axis=0)
    change = xs[1:] != xs[:-1] if n > 1 else np.zeros((0, d), dtype=bool)
    n_distinct = 1 + change.sum(axis=0)

    edges_per_feature: list[np.ndarray] = []
    for f in range(d):
        col_sorted = xs[:, f]
        if n_distinct[f] <= max_bins:
            pos = np.flatnonzero(change[:, f])
            edges = (col_sorted[pos] + col_sorted[pos + 1]) / 2.0
        else:
            cut = (np.arange(1, max_bins) * n) // max_bins
            lower = col_sorted[cut - 1]
            upper = col_sorted[cut]
            edges = np.unique((lower + upper) / 2.0)
        edges_per_feature.append(edges)

    codes = np.empty((n, d), dtype=np.uint16)
    n_bins = np.empty(d, dtype=np.int64)
    for f in range(d):
        # side="left": value v lands in bin b iff "v <= edges[b]" holds first
        # at b, so "bin <= b" is exactly "v <= edges[b]".
        codes[:, f] = np.searchsorted(edges_per_feature[f], X[:, f], side="left").astype(np.uint16)
        n_bins[f] = edges_per_feature[f].size + 1
    edge_offset = np.zeros(d + 1, dtype=np.int64)
    np.cumsum([e.size for e in edges_per_feature], out=edge_offset[1:])
    edges_flat = np.concatenate(edges_per_feature) if d else np.zeros(0)
    max_b = int(n_bins.max()) if d else 1
    flat_codes = codes.astype(np.int64) + np.arange(d, dtype=np.int64) * max_b
    table = BinTable(
        codes=codes,
        n_bins=n_bins,
        edges_flat=edges_flat,
        edge_offset=edge_offset,
        flat_codes=flat_codes,
    )
    for f in fields(table):
        getattr(table, f.name).flags.writeable = False
    return table


@dataclass
class TreeParams:
    max_depth: int | None = None
    min_samples_split: int = TREE_PARAMS["min_samples_split"].default
    min_samples_leaf: int = TREE_PARAMS["min_samples_leaf"].default
    max_features: int | None = None  # per-split feature subsample; None = all


def tree_setup(spec: ClassifierSpec, X: np.ndarray, **fixed) -> tuple[BinTable, TreeParams]:
    """The binned X and the engine settings of a tree learner: the spec's
    `min_samples_split`, `min_samples_leaf` and `max_bins` plus the
    learner's own `TreeParams` fields in `fixed`."""
    params = TreeParams(
        min_samples_split=spec.param("min_samples_split"),
        min_samples_leaf=spec.param("min_samples_leaf"),
        **fixed,
    )
    return bin_features(X, spec.param("max_bins")), params


@dataclass
class FittedTree:
    """Flat node arrays; feature < 0 marks a leaf."""

    feature: np.ndarray    # (n_nodes,) int32
    threshold: np.ndarray  # (n_nodes,) float64
    left: np.ndarray       # (n_nodes,) int32
    right: np.ndarray      # (n_nodes,) int32
    value: np.ndarray      # (n_nodes, K) float64

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def apply(self, X: np.ndarray, max_depth: int | None = None) -> np.ndarray:
        """Leaf node id for each row.

        With `max_depth`, each row stops after at most that many splits:
        the leaf it reaches in this tree grown with that depth limit, as
        growth is level-wise and a node's split and value depend only on
        its own rows.
        """
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(self.n_nodes + 1 if max_depth is None else max_depth):
            feat = self.feature[node]
            live = feat >= 0
            if not live.any():
                break
            idx = np.flatnonzero(live)
            go_left = X[idx, feat[idx]] <= self.threshold[node[idx]]
            node[idx] = np.where(go_left, self.left[node[idx]], self.right[node[idx]])
        return node

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]

    def to_arrays(self, prefix: str = "") -> dict[str, np.ndarray]:
        """The node arrays, named `<prefix><field>` as a model file stores them."""
        return {prefix + f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], d: int, width: int, prefix: str = "") -> "FittedTree":
        """The tree `to_arrays(prefix)` stored in `arrays`, over `d` features
        with `width` values per node. Raises ValueError unless the arrays
        form such a tree: a leaf's children are -1, and a split node's
        feature is below `d` and its children are stored after it."""
        tree = cls(**{f.name: arrays[prefix + f.name] for f in fields(cls)})
        n = tree.feature.shape[0] if tree.feature.ndim == 1 else 0
        if n < 1:
            raise ValueError(f"array '{prefix}feature' has shape {tree.feature.shape}, expected (n,) with n >= 1")
        check_shapes(arrays, **{prefix + name: (n,) for name in ("threshold", "left", "right")})
        check_shapes(arrays, **{prefix + "value": (n, width)})
        for name in ("feature", "left", "right"):
            if not np.issubdtype(getattr(tree, name).dtype, np.integer):
                raise ValueError(f"array '{prefix}{name}' must hold integers")
        split = tree.feature >= 0
        ids = np.arange(n)[split]
        if (tree.feature[split] >= d).any():
            raise ValueError(f"array '{prefix}feature' must hold feature indices below d={d}")
        for name in ("left", "right"):
            child = getattr(tree, name)
            if (child[~split] != -1).any():
                raise ValueError(f"array '{prefix}{name}' must hold -1 at every leaf")
            if ((child[split] <= ids) | (child[split] >= n)).any():
                raise ValueError(f"array '{prefix}{name}' must hold ids after their parent's and below {n}")
        return tree


class _NodeStore:
    def __init__(self, n_values: int):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []
        self.n_values = n_values

    def add(self, value: np.ndarray) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        return len(self.feature) - 1

    def finish(self) -> FittedTree:
        return FittedTree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            value=np.vstack(self.value) if self.value else np.zeros((0, self.n_values)),
        )


def grow_tree(
    table: BinTable,
    mode: str,
    y: np.ndarray,
    params: TreeParams,
    n_classes: int = 0,
    sample_weight: np.ndarray | None = None,
    rows: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[FittedTree, np.ndarray]:
    """Grow one tree; returns it plus the leaf id of every training row.

    mode "gini": y holds class codes, leaf values are weighted class
    distributions. mode "variance": y holds real targets, leaf values are
    weighted means (single column).
    """
    if mode not in ("gini", "variance"):
        raise ValueError(f"unknown tree mode {mode!r}")
    if params.min_samples_leaf < 1:
        # The split search relies on it: a boundary at or past a feature's
        # last bin leaves the right side empty, which only this rules out.
        raise ValueError("min_samples_leaf must be >= 1")
    n_total, d = table.codes.shape
    weighted = sample_weight is not None
    n_rows = n_total if rows is None else np.shape(rows)[0]
    w = np.ones(n_rows) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n_rows,):
        raise ValueError("sample_weight must align with rows")
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)

    if mode == "gini":
        if n_classes < 2:
            raise ValueError("gini mode needs n_classes >= 2")
        target = np.asarray(y, dtype=np.int64)
        n_chan = n_classes
    else:
        target = np.asarray(y, dtype=np.float64)
        n_chan = 2
    if rows is not None:
        target = target[rows]
    elif target.shape[0] != n_total:
        raise ValueError("y must hold one entry per table row")

    k_feats = d if params.max_features is None else min(params.max_features, d)
    if k_feats < d and rng is None:
        raise ValueError("feature subsampling requires an RNG")

    state = _GrowState(table, mode, target, w, weighted, n_chan, rows, params.min_samples_leaf)
    store = _NodeStore(n_classes if mode == "gini" else 1)
    root_id = store.add(state.node_value(state.totals_all()))
    node_of_row = np.full(n_rows, root_id, dtype=np.int64)
    # Frontier nodes always occupy a consecutive id range at the top of the
    # store (children are appended in order), so slot = node id - start.
    front_start, n_front = root_id, 1
    depth = 0
    max_b = int(table.n_bins.max())

    while n_front and max_b > 1:
        if params.max_depth is not None and depth >= params.max_depth:
            break
        act = np.flatnonzero(node_of_row >= front_start)
        slots = node_of_row[act] - front_start

        counts = np.bincount(slots, minlength=n_front)
        totals = state.totals(slots, act, n_front)

        splittable = counts >= params.min_samples_split
        if mode == "gini":
            splittable &= (totals > 0).sum(axis=1) > 1  # impure only
        if not splittable.any():
            break

        feats = None  # all features
        if k_feats < d:
            # Drawn for the whole frontier: the stream does not depend on
            # which nodes can split.
            assert rng is not None
            noise = rng.random((n_front, d))
            part = np.argpartition(noise, k_feats - 1, axis=1)[:, :k_feats]
            feats = np.sort(part, axis=1)

        # Only splittable nodes and their rows reach the histogram passes.
        nodes = np.flatnonzero(splittable)
        keep = splittable[slots]
        rank = np.cumsum(splittable) - 1
        splits = _find_splits(
            state, counts[nodes], totals[nodes], act[keep], rank[slots[keep]],
            None if feats is None else feats[nodes], max_b,
        )

        n_children = 0
        child_map = np.full((n_front, 2), -1, dtype=np.int64)
        split_feat = np.full(n_front, -1, dtype=np.int64)
        split_bin = np.full(n_front, -1, dtype=np.int64)
        for j, f_global, b, val_l, val_r in splits:
            s = int(nodes[j])
            nid = front_start + s
            lid = store.add(val_l)
            rid = store.add(val_r)
            store.feature[nid] = int(f_global)
            store.threshold[nid] = table.threshold(f_global, b)
            store.left[nid] = lid
            store.right[nid] = rid
            child_map[s] = (lid, rid)
            split_feat[s] = f_global
            split_bin[s] = b
            n_children += 2

        moved = split_feat[slots] >= 0
        if moved.any():
            mrows = act[moved]
            mslots = slots[moved]
            codes = table.codes[state.table_rows(mrows), split_feat[mslots]].astype(np.int64)
            side = (codes <= split_bin[mslots]).astype(np.int64)
            node_of_row[mrows] = child_map[mslots, 1 - side]
        front_start = len(store.feature) - n_children
        n_front = n_children
        depth += 1

    return store.finish(), node_of_row


class _GrowState:
    """Per-fit arrays shared by every level of the growth loop."""

    def __init__(self, table, mode, target, w, weighted, n_chan, rows, min_samples_leaf):
        self.table = table
        self.mode = mode
        self.target = target
        self.w = w
        self.weighted = weighted
        self.n_chan = n_chan
        self.rows = rows  # None: every row of the table, in order
        self.min_samples_leaf = min_samples_leaf
        self.wy = w * target if mode == "variance" else None

    def table_rows(self, act: np.ndarray) -> np.ndarray:
        return act if self.rows is None else self.rows[act]

    def totals_all(self) -> np.ndarray:
        if self.mode == "gini":
            return np.bincount(self.target, weights=self.w, minlength=self.n_chan)
        return np.array([self.w.sum(), (self.w * self.target).sum()])

    def totals(self, slots: np.ndarray, act: np.ndarray, n_front: int) -> np.ndarray:
        if self.mode == "gini":
            packed = slots * self.n_chan + self.target[act]
            flat = np.bincount(packed, weights=self.w[act], minlength=n_front * self.n_chan)
            return flat.reshape(n_front, self.n_chan)
        sw = np.bincount(slots, weights=self.w[act], minlength=n_front)
        swy = np.bincount(slots, weights=self.wy[act], minlength=n_front)
        return np.stack([sw, swy], axis=1)

    def node_value(self, totals: np.ndarray) -> np.ndarray:
        if self.mode == "gini":
            s = totals.sum()
            return totals / s if s > 0 else np.full_like(totals, 1.0 / totals.shape[0])
        sw, swy = totals
        return np.asarray([swy / sw if sw > 0 else 0.0])


def _score_stats(stats, state: _GrowState) -> tuple[np.ndarray, np.ndarray]:
    """Purity score to maximize, plus the weight total; channel axis first."""
    if state.mode == "gini":
        total = chan_sum(stats)
        sq = chan_sum(stats * stats)
    else:
        total, swy = stats
        sq = swy * swy
    return sq / _denom(total), total


def _denom(total: np.ndarray) -> np.ndarray:
    """`total` where positive, else 1."""
    return np.where(total > 0, total, 1.0)


def _find_splits(
    state: _GrowState,
    counts: np.ndarray,
    totals: np.ndarray,
    act: np.ndarray,
    slots: np.ndarray,
    feats: np.ndarray | None,
    max_b: int,
) -> list[tuple[int, int, int, np.ndarray, np.ndarray]]:
    """Best split of each node that has one: (node, feature, bin, child values).

    `counts` and `totals` hold one entry per node, `feats` the features
    searched at each node (None: all); `act` and `slots` give each row and
    its node. Results come in node order. Frontiers whose histograms exceed
    the cell budget are searched in chunks of consecutive nodes.
    """
    n_front = counts.shape[0]
    k = state.table.codes.shape[1] if feats is None else feats.shape[1]
    per_node_cells = k * max_b * state.n_chan
    nodes_per_chunk = max(1, _CELL_BUDGET // max(per_node_cells, 1))
    if nodes_per_chunk >= n_front:
        return _search(state, counts, totals, act, slots, feats, max_b, 0)

    order = np.argsort(slots, kind="stable")
    bounds = np.searchsorted(slots[order], np.arange(n_front + 1))
    results = []
    for start in range(0, n_front, nodes_per_chunk):
        stop = min(start + nodes_per_chunk, n_front)
        sel = order[bounds[start] : bounds[stop]]
        if sel.size:
            results += _search(
                state, counts[start:stop], totals[start:stop], act[sel], slots[sel] - start,
                None if feats is None else feats[start:stop], max_b, start,
            )
    return results


def _cell_codes(state, act, slots, feats, c_n, k, max_b) -> np.ndarray:
    """(rows, k) histogram cell of each row's value of each searched feature."""
    table = state.table
    if feats is not None:
        bn = table.codes[state.table_rows(act)[:, None], feats[slots]].astype(np.int64)
        return (slots[:, None] * k + np.arange(k, dtype=np.int64)) * max_b + bn
    if c_n == 1 and state.rows is None and act.shape[0] == table.codes.shape[0]:
        return table.flat_codes  # every row of the table, in order
    # flat_codes already holds feature*max_b + bin.
    flat = table.flat_codes[state.table_rows(act)]
    if c_n > 1:
        flat += (slots * (k * max_b))[:, None]
    return flat


def _search(state, counts, totals, act, slots, feats, max_b, first):
    """`_find_splits` for one chunk of nodes, numbered from `first`.

    Histograms are channel-major, `(n_chan, node, feature, bin)`, so the
    prefix sums over bins and the per-channel score arithmetic run along
    contiguous memory. In gini mode the bincount index is
    `class * cells + cell`, which leaves each cell's rows and their
    summation order as they are; channel sums go through `chan_sum`.
    Scores, and so the chosen splits and leaf values, are bit-identical to
    those of a channel-last layout.
    """
    c_n = counts.shape[0]
    k = state.table.codes.shape[1] if feats is None else feats.shape[1]
    cells = c_n * k * max_b
    shape = (c_n, k, max_b)

    flat = _cell_codes(state, act, slots, feats, c_n, k, max_b)
    index = flat + (state.target[act] * cells)[:, None] if state.mode == "gini" else flat
    index = index.ravel()
    weights = np.repeat(state.w[act], k) if state.weighted else None

    if state.mode == "gini":
        hists = np.bincount(index, weights=weights, minlength=state.n_chan * cells)
        hists = hists.astype(np.float64, copy=False).reshape(state.n_chan, *shape)
        # The last bin is never a left boundary, so it is left out of the sums.
        stat_l = np.cumsum(hists[..., :-1], axis=-1)
        stat_r = totals.T[:, :, None, None] - stat_l
        score, tot_l = _score_stats(stat_l, state)
        score_r, tot_r = _score_stats(stat_r, state)
        score += score_r
    else:
        swy = np.bincount(index, weights=np.repeat(state.wy[act], k), minlength=cells)
        swy_l = np.cumsum(swy.reshape(shape)[..., :-1], axis=-1)
        swy_r = totals[:, 1, None, None] - swy_l
        if state.weighted:
            sw = np.bincount(index, weights=weights, minlength=cells)
        else:
            sw = np.bincount(index, minlength=cells).astype(np.float64)
        tot_l = np.cumsum(sw.reshape(shape)[..., :-1], axis=-1)
        tot_r = totals[:, 0, None, None] - tot_l
        score = swy_l * swy_l / _denom(tot_l)
        score += swy_r * swy_r / _denom(tot_r)
        stat_l, stat_r = (tot_l, swy_l), (tot_r, swy_r)

    if state.weighted:
        hist_cnt = np.bincount(flat.ravel(), minlength=cells).reshape(shape)
        cnt_l = np.cumsum(hist_cnt[..., :-1], axis=-1)
        cnt_r = counts[:, None, None] - cnt_l
    else:
        cnt_l, cnt_r = tot_l, tot_r  # unit weights: totals are row counts
    np.copyto(score, -np.inf, where=np.minimum(cnt_l, cnt_r) < state.min_samples_leaf)

    parent = _score_stats(totals.T, state)[0]
    flat_score = score.reshape(c_n, -1)
    best_idx = np.argmax(flat_score, axis=1)
    best_score = flat_score[np.arange(c_n), best_idx]
    gain = best_score - parent
    denom = counts.astype(np.float64)
    ok = np.isfinite(best_score) & (gain / np.where(denom > 0, denom, 1.0) > _GAIN_EPS)

    results = []
    for j in np.flatnonzero(ok):
        fi, b = divmod(int(best_idx[j]), max_b - 1)
        results.append((
            first + int(j),
            fi if feats is None else int(feats[j, fi]),
            b,
            state.node_value(np.array([s[j, fi, b] for s in stat_l])),
            state.node_value(np.array([s[j, fi, b] for s in stat_r])),
        ))
    return results


class DecisionTree(BaseClassifier):
    """Single CART classifier with Gini impurity splits."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X, y = check_training_inputs(X, y)
        codes = self._encode(y)
        table, params = tree_setup(self.spec, X, max_depth=self.spec.param("max_depth"))
        tree, _ = grow_tree(table, "gini", codes, params, n_classes=len(self.classes_))
        self._set_fitted(tree, X.shape[1])
        return self

    def _set_fitted(self, tree: FittedTree, d: int) -> None:
        self.tree_ = tree
        self._d = d

    def state(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {"d": self._d}, self.tree_.to_arrays()

    def restore(self, extra: dict, arrays: dict[str, np.ndarray]) -> None:
        self._set_fitted(FittedTree.from_arrays(arrays, extra["d"], len(self.classes_)), extra["d"])

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.staged_proba(X, [None])[0]

    def staged_proba(self, X: np.ndarray, depths: list[int | None]) -> list[np.ndarray]:
        """Probabilities of this tree cut at each depth (None: uncut), which
        equal those of a tree fit with that `max_depth` up to the fitted one."""
        X = self._check_predict_input(X)
        return [normalize_rows(self.tree_.value[self.tree_.apply(X, depth)]) for depth in depths]
