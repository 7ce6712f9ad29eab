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
for a channel-last `sum(axis=-1)` below eight channels; `_chan_sum`
defers to numpy itself from eight on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import BaseClassifier, ClassifierSpec, check_training_inputs, normalize_rows

DEFAULT_MAX_BINS = 64
_GAIN_EPS = 1e-12
# Cap on histogram cells per pass; frontiers larger than this are chunked.
_CELL_BUDGET = 8_000_000


@dataclass
class BinTable:
    """Binned view of a feature matrix plus per-feature split candidates."""

    codes: np.ndarray      # (n, d) uint16 bin index per value
    n_bins: np.ndarray     # (d,) int64
    edges_flat: np.ndarray  # concatenated per-feature thresholds
    edge_offset: np.ndarray  # (d+1,) start of each feature's thresholds
    flat_codes: np.ndarray  # (n, d) int64, codes + feature * max_b

    @property
    def max_b(self) -> int:
        return int(self.n_bins.max())

    def threshold(self, feature: int, boundary: int) -> float:
        return float(self.edges_flat[self.edge_offset[feature] + boundary])


def bin_features(X: np.ndarray, max_bins: int = DEFAULT_MAX_BINS) -> BinTable:
    X = np.asarray(X, dtype=np.float64)
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
    return BinTable(
        codes=codes,
        n_bins=n_bins,
        edges_flat=edges_flat,
        edge_offset=edge_offset,
        flat_codes=flat_codes,
    )


@dataclass
class TreeParams:
    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1
    max_features: int | None = None  # per-split feature subsample; None = all


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

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id for each row."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(self.n_nodes + 1):
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
    n_total, d = table.codes.shape
    if rows is None:
        rows = np.arange(n_total, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    weighted = sample_weight is not None
    w = np.ones(rows.shape[0]) if sample_weight is None else np.asarray(sample_weight, dtype=np.float64)
    if w.shape != rows.shape:
        raise ValueError("sample_weight must align with rows")

    if mode == "gini":
        if n_classes < 2:
            raise ValueError("gini mode needs n_classes >= 2")
        target = np.asarray(y, dtype=np.int64)[rows]
        n_chan = n_classes
    else:
        target = np.asarray(y, dtype=np.float64)[rows]
        n_chan = 2

    k_feats = d if params.max_features is None else min(params.max_features, d)
    if k_feats < d and rng is None:
        raise ValueError("feature subsampling requires an RNG")

    state = _GrowState(table, mode, target, w, weighted, n_chan, rows)
    store = _NodeStore(n_classes if mode == "gini" else 1)
    root_id = store.add(state.node_value(state.totals_all()))
    node_of_row = np.full(rows.shape[0], root_id, dtype=np.int64)
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

        if k_feats < d:
            assert rng is not None
            noise = rng.random((n_front, d))
            part = np.argpartition(noise, k_feats - 1, axis=1)[:, :k_feats]
            feats = np.sort(part, axis=1)
        else:
            feats = np.broadcast_to(np.arange(d, dtype=np.int64), (n_front, d))

        best = _find_splits(
            state, counts, totals, act, slots, feats, splittable,
            params.min_samples_leaf, max_b,
        )

        n_children = 0
        child_map = np.full((n_front, 2), -1, dtype=np.int64)
        split_feat = np.full(n_front, -1, dtype=np.int64)
        split_bin = np.full(n_front, -1, dtype=np.int64)
        for s in range(n_front):
            f_global, b, val_l, val_r = best[s]
            if f_global < 0:
                continue
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
            codes = table.codes[rows[mrows], split_feat[mslots]].astype(np.int64)
            side = (codes <= split_bin[mslots]).astype(np.int64)
            node_of_row[mrows] = child_map[mslots, 1 - side]
        front_start = len(store.feature) - n_children
        n_front = n_children
        depth += 1

    return store.finish(), node_of_row


class _GrowState:
    """Per-fit arrays shared by every level of the growth loop."""

    def __init__(self, table, mode, target, w, weighted, n_chan, rows):
        self.table = table
        self.mode = mode
        self.target = target
        self.w = w
        self.weighted = weighted
        self.n_chan = n_chan
        self.rows = rows
        self.wy = w * target if mode == "variance" else None

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


def _chan_sum(parts) -> np.ndarray:
    """Sum over the channel axis in the order numpy's `sum(axis=-1)` uses on
    a channel-last array: left to right below eight channels, numpy's own
    pairwise blocks from eight on."""
    if len(parts) >= 8:
        return np.stack(list(parts), axis=-1).sum(axis=-1)
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    return total


def _score_stats(stats: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Purity score to maximize, plus the weight total; channel axis first."""
    if mode == "gini":
        total = _chan_sum(stats)
        sq = _chan_sum([s * s for s in stats])
    else:
        total, swy = stats
        sq = swy * swy
    return sq / np.where(total > 0, total, 1.0), total


def _find_splits(
    state: _GrowState,
    counts: np.ndarray,
    totals: np.ndarray,
    act: np.ndarray,
    slots: np.ndarray,
    feats: np.ndarray,
    splittable: np.ndarray,
    min_samples_leaf: int,
    max_b: int,
) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Best (feature, bin, child values) per frontier node; feature=-1 if none.

    Histograms are channel-major, `(n_chan, node, feature, bin)`, so the
    prefix sums over bins and the per-channel score arithmetic run along
    contiguous memory. In gini mode the bincount index is
    `class * cells + cell`, which leaves each cell's rows and their
    summation order as they are; channel sums go through `_chan_sum`. Scores, and so the chosen splits
    and leaf values, are bit-identical to those of a channel-last layout.
    """
    table = state.table
    n_front, k = feats.shape
    n_chan = state.n_chan
    results: list[tuple[int, int, np.ndarray, np.ndarray]] = [
        (-1, -1, totals[s], totals[s]) for s in range(n_front)
    ]

    # Chunk frontier nodes so histogram arrays stay within the cell budget.
    per_node_cells = k * max_b * n_chan
    nodes_per_chunk = max(1, _CELL_BUDGET // max(per_node_cells, 1))
    order = np.argsort(slots, kind="stable")
    bounds = np.searchsorted(slots[order], np.arange(n_front + 1))
    k_range = np.arange(k, dtype=np.int64)

    for start in range(0, n_front, nodes_per_chunk):
        stop = min(start + nodes_per_chunk, n_front)
        sel = order[bounds[start] : bounds[stop]]
        if sel.size == 0:
            continue
        c_slots = slots[sel] - start
        c_act = act[sel]
        c_n = stop - start

        full = k == table.codes.shape[1]
        cols = None if full else feats[start:stop][c_slots]
        if full:
            # flat_codes already holds feature*max_b + bin.
            flat = table.flat_codes[state.rows[c_act]] + (c_slots * (k * max_b))[:, None]
        else:
            bn = table.codes[state.rows[c_act][:, None], cols].astype(np.int64)
            flat = (c_slots[:, None] * k + k_range) * max_b + bn
        cells = c_n * k * max_b
        weights = np.repeat(state.w[c_act], k) if state.weighted else None

        if state.mode == "gini":
            packed = (flat + (state.target[c_act] * cells)[:, None]).ravel()
            hists = np.bincount(packed, weights=weights, minlength=n_chan * cells)
        else:
            sw = np.bincount(flat.ravel(), weights=weights, minlength=cells)
            swy = np.bincount(flat.ravel(), weights=np.repeat(state.wy[c_act], k), minlength=cells)
            hists = np.concatenate([sw, swy])
        hists = hists.astype(np.float64, copy=False).reshape(n_chan, c_n, k, max_b)

        stat_l = np.cumsum(hists, axis=-1)[..., :-1]
        stat_r = totals[start:stop].T[:, :, None, None] - stat_l
        score_l, tot_l = _score_stats(stat_l, state.mode)
        score = score_l + _score_stats(stat_r, state.mode)[0]
        parent = _score_stats(totals[start:stop].T, state.mode)[0]

        if state.weighted:
            hist_cnt = np.bincount(flat.ravel(), minlength=cells).reshape(c_n, k, max_b)
            cnt_l = np.cumsum(hist_cnt, axis=-1)[..., :-1]
        else:
            cnt_l = tot_l  # unit weights: the left weight total is the row count
        cnt_r = counts[start:stop, None, None] - cnt_l

        valid = (cnt_l >= min_samples_leaf) & (cnt_r >= min_samples_leaf)
        if cols is None:
            bmax = (table.n_bins - 1)[None, :, None]
        else:
            bmax = (table.n_bins[feats[start:stop]] - 1)[:, :, None]
        valid &= np.arange(max_b - 1)[None, None, :] < bmax
        valid &= splittable[start:stop, None, None]
        score = np.where(valid, score, -np.inf)

        flat_score = score.reshape(c_n, -1)
        best_idx = np.argmax(flat_score, axis=1)
        best_score = flat_score[np.arange(c_n), best_idx]
        gain = best_score - parent
        denom = counts[start:stop].astype(np.float64)
        ok = np.isfinite(best_score) & (gain / np.where(denom > 0, denom, 1.0) > _GAIN_EPS)

        for j in np.flatnonzero(ok):
            s = start + j
            fi, b = divmod(int(best_idx[j]), max_b - 1)
            results[s] = (
                int(feats[s, fi]),
                b,
                state.node_value(stat_l[:, j, fi, b]),
                state.node_value(stat_r[:, j, fi, b]),
            )
    return results


class DecisionTree(BaseClassifier):
    """Single CART classifier with Gini impurity splits."""

    def __init__(self, spec: ClassifierSpec):
        super().__init__(spec)
        self.tree_: FittedTree | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X, y = check_training_inputs(X, y)
        codes = self._encode(y)
        params = TreeParams(
            max_depth=self.spec.params.get("max_depth"),
            min_samples_split=self.spec.params.get("min_samples_split", 2),
            min_samples_leaf=self.spec.params.get("min_samples_leaf", 1),
        )
        table = bin_features(X, self.spec.params.get("max_bins", DEFAULT_MAX_BINS))
        self.tree_, _ = grow_tree(table, "gini", codes, params, n_classes=len(self.classes_))
        self._d = X.shape[1]
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.tree_ is None:
            raise ValueError("classifier is not fitted")
        X = self._check_predict_input(X, self._d)
        return normalize_rows(self.tree_.predict_value(X))
