"""A latency value model shared by the learned baselines.

Bao/HybridQO/Balsa/Loger each learn "plan -> expected latency".  This module
provides a common cheap featurization (operator mix, optimizer estimates,
table membership hashes, tree shape) and an MLP regressor on log-latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.catalog.catalog import Catalog
from repro.nn import functional as F
from repro.nn.layers import mlp
from repro.nn.optim import Adam, clip_grad_norm
from repro.optimizer.dp import Prefix
from repro.optimizer.plans import JOIN_METHODS, Plan
from repro.sql.ast import Query

_TABLE_HASH_BUCKETS = 16


class PlanFeaturizer:
    """Plan -> fixed-length feature vector."""

    def __init__(self, catalog: Catalog) -> None:
        self._table_index = {name: i for i, name in enumerate(catalog.schema.table_names)}

    @property
    def dim(self) -> int:
        # join-method counts (3) + scan counts (2) + shape (3) + estimates (4)
        # + table hash buckets
        return 3 + 2 + 3 + 4 + _TABLE_HASH_BUCKETS

    def featurize(self, query: Query, plan: Union[Plan, Prefix]) -> np.ndarray:
        """Features of a plan, or of a prefix of one (the constructive
        baselines score partial plans): both are the same six tuples."""
        method_counts = {m: 0.0 for m in JOIN_METHODS}
        for method in plan.methods:
            method_counts[method] += 1.0
        num_joins = float(len(plan.methods))
        index_scans = float(plan.scan_types.count("index"))
        seq_scans = len(plan.scan_types) - index_scans
        max_est_rows = max([1.0, *plan.est_rows[len(plan.aliases) :]])
        table_hash = np.zeros(_TABLE_HASH_BUCKETS)
        for alias in plan.aliases:
            table_hash[self._table_index[query.tables[alias]] % _TABLE_HASH_BUCKETS] += 1.0
        tables = max(1.0, seq_scans + index_scans)
        norm = max(1.0, num_joins)
        features = [
            method_counts["hash"] / norm,
            method_counts["merge"] / norm,
            method_counts["nestloop"] / norm,
            seq_scans / tables,
            index_scans / tables,
            tables / 20.0,
            num_joins / 20.0,
            num_joins / 20.0,
            math.log1p(plan.est_rows[-1]) / 20.0,
            math.log1p(plan.est_costs[-1]) / 25.0,
            math.log1p(max_est_rows) / 20.0,
            math.log1p(len(query.filters) + 1) / 5.0,
        ]
        return np.concatenate([np.array(features), table_hash / tables])


@dataclass
class ValueSample:
    features: np.ndarray
    latency_ms: float


class ValueModel:
    """MLP regressor on log(latency); the learned baselines' cost oracle."""

    def __init__(
        self,
        input_dim: int,
        hidden: Sequence[int] = (64, 64),
        lr: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.rng = rng if rng is not None else np.random.default_rng()
        self.network = mlp([input_dim, *hidden, 1], rng=self.rng, activation="relu")
        self.optimizer = Adam(self.network.parameters(), lr=lr)
        self._samples: List[ValueSample] = []
        self.trained = False

    # ------------------------------------------------------------------
    def add_sample(self, features: np.ndarray, latency_ms: float) -> None:
        self._samples.append(ValueSample(features=features, latency_ms=max(latency_ms, 1e-3)))

    @property
    def num_samples(self) -> int:
        return len(self._samples)

    def fit(self, epochs: int = 30, minibatch: int = 64) -> float:
        """Train on all accumulated samples; returns final loss."""
        if not self._samples:
            return 0.0
        features = np.stack([s.features for s in self._samples])
        targets = np.log1p(np.array([s.latency_ms for s in self._samples]))
        last_loss = 0.0
        for _ in range(epochs):
            order = self.rng.permutation(len(self._samples))
            for start in range(0, len(order), minibatch):
                idx = order[start : start + minibatch]
                pred, pullback = self.network(features[idx])
                loss, grad = F.mse_loss(pred.reshape(-1), targets[idx])
                self.optimizer.zero_grad()
                pullback(grad.reshape(pred.shape))
                clip_grad_norm(self.network.parameters(), 5.0)
                self.optimizer.step()
                last_loss = float(loss)
        self.trained = True
        return last_loss

    def predict(self, features: np.ndarray) -> float:
        """Predicted latency in ms."""
        return float(self.predict_batch(features)[0])

    def predict_batch(self, features: np.ndarray) -> np.ndarray:
        """Predicted latencies in ms, one per row: the network's forward,
        its pullback dropped."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        log_latency = self.network(features)[0].reshape(-1)
        return np.expm1(np.clip(log_latency, 0.0, 30.0))
