"""The Asymmetric Advantage Model (paper §IV).

The AAM contains:

* a **state network** ``phi``: embeddings for the QueryFormer-lite node
  features, a reachability-masked transformer, root pooling, and a linear
  head merging the step encoding into the final ``statevec`` — shared with
  the planner's agent;
* a **position-aware output layer**: the pair (statevec_l + pos_left,
  statevec_r + pos_right) passes through FC1, the difference through FC2,
  yielding the 3-way advantage score {0, 1, 2} (point set {0.05, 0.50});
* the **asymmetric focal loss** with label smoothing (paper §IV-C), which
  counters the label imbalance created by most plan edits being harmful.

**Distinct-row contract.**  Training pairs are drawn from a much smaller
set of plans (both orientations of every pair, one plan against many), so
the pairwise forward (:meth:`AdvantageModel.forward`, for training,
``evaluate`` and scoring alike) runs the state network once per distinct
``(EncodedPlan object, step)`` row of a batch (:func:`distinct_rows`), all
of them in one packed forward (:class:`StateNetwork`), and gathers each
side's statevecs by index.  A gathered row's gradient is the sum over its
uses, so loss and gradients are those of the two-sided forward; only float
summation order differs.

**One forward.**  :meth:`StateNetwork.forward` and
:meth:`AdvantageModel.forward` return ``(output, pullback)``.  Training
calls the pullback; every served, simulated and tournament statevec, and
every score, runs the same forward and drops it.  A forward reads each
parameter's ``.data`` when it runs and caches no array, because
``load_state_dict`` rebinds ``.data`` and Adam updates it in place.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.encoding import (
    EncodedPlan,
    NUM_OPS,
    NUM_PRED_OPS,
    NUM_STRUCT_TYPES,
    left_deep_shape,
)
from repro.engine.memo import Memo
from repro.nn import functional as F
from repro.nn.layers import (
    Embedding,
    LayerNorm,
    Linear,
    Module,
    Parameter,
    TransformerEncoderLayer,
    dense_backward,
    gather_backward,
    leading_tokens,
    scatter_rows,
)
from repro.nn.optim import Adam, clip_grad_norm
from repro.sql.ast import StatementKey

NUM_SCORES = 3  # the paper's point set {0.05, 0.50} -> scores {0, 1, 2}


@dataclass
class AAMConfig:
    """Hyper-parameters for the AAM and its training."""

    d_model: int = 64
    d_embed: int = 16
    d_state: int = 64
    num_heads: int = 4
    num_layers: int = 2
    ff_hidden: int = 128
    head_hidden: int = 64
    lr: float = 1e-3
    epochs: int = 3
    minibatch_size: int = 64
    gamma_positive: float = 1.0   # focal decay for true-label terms
    gamma_negative: float = 4.0   # focal decay for the rest (gamma+ < gamma-)
    label_smoothing: float = 0.1  # epsilon
    max_grad_norm: float = 5.0


class StateNetwork(Module):
    """``phi``: encoded plan + step status -> statevec (paper §IV-A).

    **Packed layout.**  A batch is one ``(T, d_model)`` token matrix, ``T``
    the sum of the rows' real node counts: rows are laid end to end in
    (stable) node-count order, no row is padded, and feature assembly,
    ``input_proj``, every LayerNorm, the attention projections and the
    feed-forward each run once per batch on that matrix.  Attention runs
    per *segment* — a run of rows with equal node count is a contiguous
    token slice, attended as ``(rows, heads, nodes, head_dim)`` under the
    rows' reachability masks — inside one array function
    (:func:`repro.nn.functional.attend_segments`).  Results come back in
    input order.

    The read-out is the plan root alone (QueryFormer's super-node pooling),
    so the last encoder layer computes only what that reads: every node
    still supplies its keys and values, but queries, attention rows, the
    feed-forward block and ``final_norm`` run for each row's first token
    only (``layer(x, rows=1)``).  Earlier layers output every token, because
    the next layer attends over all of them.

    A row's statevec is bitwise-equal per call shape only: BLAS blocks a
    token's dot products by ``T``, so the same plan in a different batch can
    differ by ~1e-15.
    """

    def __init__(
        self,
        num_tables: int,
        num_columns: int,
        max_nodes: int,
        config: AAMConfig,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.config = config
        self.max_nodes = max_nodes
        d = config.d_embed
        self.op_embed = Embedding(NUM_OPS, d, rng=rng)
        self.table_embed = Embedding(num_tables, d, rng=rng)
        self.column_embed = Embedding(num_columns, d, rng=rng)
        self.pred_op_embed = Embedding(NUM_PRED_OPS, d, rng=rng)
        self.height_embed = Embedding(max_nodes, d, rng=rng)
        self.struct_embed = Embedding(NUM_STRUCT_TYPES, d, rng=rng)
        self.value_direction = Parameter(rng.normal(0.0, 0.05, size=d))
        # node vector: op | table | join cols | filters | height | struct
        self.input_proj = Linear(6 * d, config.d_model, rng=rng)
        self.layers = [
            TransformerEncoderLayer(config.d_model, config.num_heads, config.ff_hidden, rng=rng)
            for _ in range(config.num_layers)
        ]
        for i, layer in enumerate(self.layers):
            setattr(self, f"encoder{i}", layer)
        self.final_norm = LayerNorm(config.d_model)
        # +1 for the step encoding appended after pooling.
        self.state_proj = Linear(config.d_model + 1, config.d_state, rng=rng)

    # ------------------------------------------------------------------
    def _layout(self, plans: Sequence[EncodedPlan]):
        """The packed layout of a batch: ``(order, segments, ints, fints,
        fvals)``, the rows' stable node-count order, their segments and
        :func:`node_vectors`' feature arrays in that order."""
        counts = [p.num_nodes for p in plans]
        order = sorted(range(len(plans)), key=counts.__getitem__)
        ordered = [plans[i] for i in order]
        # Every row of a segment is a left-deep plan of the same node count,
        # so one reachability term serves the segment and every layer.
        segments = [
            (len(list(run)), nodes, reachability_term(nodes))
            for nodes, run in groupby(ordered, key=attrgetter("num_nodes"))
        ]
        return (
            order, segments,
            np.concatenate([p.int_block for p in ordered], axis=1),
            np.concatenate([p.fint_block for p in ordered], axis=1),
            np.concatenate([p.filter_vals for p in ordered]),
        )

    def _tables(self) -> Tuple[Parameter, ...]:
        """:func:`node_vectors`' parameter operands, in order."""
        embeds = (
            self.op_embed, self.table_embed, self.height_embed, self.struct_embed,
            self.column_embed, self.pred_op_embed,
        )
        return tuple(embed.weight for embed in embeds) + (self.value_direction,)

    def forward(self, plans: Sequence[EncodedPlan], steps: np.ndarray):
        """Batch of encoded plans + step fractions -> (B, d_state), and its
        pullback (which returns ``None``: plans have no gradient)."""
        order, segments, ints, fints, fvals = self._layout(plans)
        tables = self._tables()
        vectors = node_vectors(*(param.data for param in tables), ints, fints, fvals)
        proj, state = self.input_proj, self.state_proj
        x = F.linear(vectors, proj.weight.data, proj.bias.data)
        last = len(self.layers) - 1
        layer_backs = []
        for i, layer in enumerate(self.layers):
            x, layer_back = layer(x, segments, 1 if i == last else None)
            layer_backs.append(layer_back)
        index = None if self.layers else leading_tokens(segments, 1)
        shape, encoded = x.shape, x if index is None else x[index]
        root, norm_back = self.final_norm(encoded)  # pre-order encoding puts the plan root first
        pooled, width = pool_roots(root, order, steps), root.shape[1]

        def pullback(grad):
            grad = dense_backward(grad, pooled, state.weight, state.bias)
            grad = norm_back(grad[order, :width])
            if index is not None:
                grad = gather_backward(grad, index, shape)
            for layer_back in reversed(layer_backs):
                grad = layer_back(grad)
            grad = dense_backward(grad, vectors, proj.weight, proj.bias)
            grads = node_vectors_backward(grad, ints, fints, fvals, [p.data for p in tables])
            for param, table_grad in zip(tables, grads):
                param.accumulate(table_grad)

        return F.linear(pooled, state.weight.data, state.bias.data), pullback


def pool_roots(root: np.ndarray, order: Sequence[int], steps: np.ndarray) -> np.ndarray:
    """``root | step`` rows, put back in input order: row ``order[i]`` of
    the result is ``root[i]``, with the steps as a last column.  Its
    backward is ``grad[order, :width]``."""
    width = root.shape[1]
    pooled = np.empty((len(order), width + 1), dtype=np.float64)
    pooled[order, :width] = root
    pooled[:, width] = np.asarray(steps, dtype=np.float64).reshape(-1)
    return pooled


def node_vectors_backward(grad, ints, fints, fvals, tables):
    """Gradients of :func:`node_vectors` for its seven parameter operands
    (``tables``, the arrays it read), in order: each table's in one
    bincount scatter (:func:`scatter_rows`)."""
    (fcols, fops), sizes = fints, [len(table) for table in tables[:6]]
    d = grad.shape[1] // 6
    grads = [
        scatter_rows(ints[slot], grad[:, slot * d : (slot + 1) * d], size)
        for slot, size in zip((0, 1, 4, 5), sizes)
    ]
    g_join, g_filters = grad[:, 2 * d : 3 * d], grad[:, 3 * d : 4 * d]
    g_slots = np.broadcast_to(g_filters[:, None, :], fcols.shape + (d,)).reshape(-1, d)
    grads.append(
        scatter_rows(
            np.concatenate([ints[2], ints[3], fcols.reshape(-1)]),
            np.concatenate([g_join, g_join, g_slots]),
            sizes[4],
        )
    )
    grads.append(scatter_rows(fops.reshape(-1), g_slots, sizes[5]))
    grads.append(fvals.sum(axis=1) @ g_filters)
    return grads


def node_vectors(op, table, height, struct, column, pred_op, direction, ints, fints, fvals):
    """``(T, 6 * d_embed)`` node vectors of a packed batch.

    The operands are the op, table, height and struct embedding tables, the
    column and predicate-op tables and the value direction.  ``ints`` is
    ``(6, T)`` (ops, tables, join columns left and right, heights,
    structs), ``fints`` ``(2, T, F)`` (filter columns and predicate ops)
    and ``fvals`` ``(T, F)``.  Embeddings index their weight tables
    directly: ids are in range by encoder construction.
    """
    d = op.shape[1]
    fcols, fops = fints
    feat = np.empty((ints.shape[1], 6 * d), dtype=np.float64)
    for weight, slot in ((op, 0), (table, 1), (height, 4), (struct, 5)):
        feat[:, slot * d : (slot + 1) * d] = weight[ints[slot]]
    join_cols = feat[:, 2 * d : 3 * d]
    join_cols[...] = column[ints[2]]
    join_cols += column[ints[3]]
    # filters: sum over slots of (col + op + value * direction)
    f = column[fcols]                               # (T, F, d)
    f += pred_op[fops]
    f += fvals[..., None] * direction
    feat[:, 3 * d : 4 * d] = f.sum(axis=1)
    return feat


@functools.cache
def reachability_term(nodes: int) -> np.ndarray:
    """The additive attention term of every left-deep plan of ``nodes``
    nodes: ``(1, 1, nodes, nodes)``, 0 where :func:`left_deep_shape`'s
    reachability mask allows a pair and -1e9 where it does not, broadcast
    over a segment's rows and heads.  It depends on the node count alone,
    never on the weights; read-only."""
    reach = left_deep_shape((nodes + 1) // 2, nodes).reach
    term = np.where(reach, 0.0, -1e9)[None, None]
    term.flags.writeable = False
    return term


def distinct_rows(
    left: Sequence[EncodedPlan],
    left_steps: np.ndarray,
    right: Sequence[EncodedPlan],
    right_steps: np.ndarray,
) -> Tuple[List[EncodedPlan], np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``(plan, step)`` rows of a batch of pairs.

    Returns ``(plans, steps, left_index, right_index)`` with
    ``plans[left_index[i]] is left[i]`` and ``steps[left_index[i]] ==
    left_steps[i]`` (likewise on the right), rows in first-use order.  A
    plan is identified by object identity: the buffer hands every pair of
    one query the same :class:`EncodedPlan` objects, and two equal
    encodings held in different objects merely cost one extra row.
    """
    rows: Dict[Tuple[int, float], int] = {}
    plans: List[EncodedPlan] = []
    steps: List[float] = []
    indices = []
    for side, side_steps in ((left, left_steps), (right, right_steps)):
        index = np.empty(len(side), dtype=np.int64)
        for i, (plan, step) in enumerate(zip(side, np.asarray(side_steps).tolist())):
            key = (id(plan), step)
            row = rows.get(key)
            if row is None:
                row = rows[key] = len(plans)
                plans.append(plan)
                steps.append(step)
            index[i] = row
        indices.append(index)
    return plans, np.array(steps, dtype=np.float64), indices[0], indices[1]


class AdvantageModel(Module):
    """``theta_adv``: pairwise plan-advantage classifier (paper §IV-B)."""

    def __init__(
        self,
        num_tables: int,
        num_columns: int,
        max_nodes: int,
        config: Optional[AAMConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.config = config if config is not None else AAMConfig()
        rng = rng if rng is not None else np.random.default_rng()
        # Monotone weight version, the one every cache derived from the
        # weights keys on; :meth:`_bump_version` moves it.
        self.version = 0
        # Monotone count of state-network rows :meth:`forward` has run
        # (one per distinct (plan, step) of a batch of pairs).
        self.rows_forwarded = 0
        # Shared inference statevec cache: the planner's policy states and
        # the environments' advantage queries embed the same (query, plan,
        # step) triples, so they must not pay for the transformer twice.
        # Bounded, or a long-lived deployed optimizer would keep one vector
        # per plan forever.
        self._statevec_cache: Memo[Tuple[int, StatementKey, str, float], np.ndarray] = Memo(500_000)
        self.state_network = StateNetwork(num_tables, num_columns, max_nodes, self.config, rng)
        d = self.config.d_state
        self.position_embed = Embedding(2, d, rng=rng)  # 0 = left, 1 = right
        self.fc1 = Linear(d, self.config.head_hidden, rng=rng)
        self.fc2 = Linear(self.config.head_hidden, NUM_SCORES, rng=rng)

    # ------------------------------------------------------------------
    def _bump_version(self) -> None:
        """The weights changed: stale statevecs and scores must never answer."""
        self.version += 1
        self._statevec_cache.clear()

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self._bump_version()

    def forward(
        self,
        left: Sequence[EncodedPlan],
        left_steps: np.ndarray,
        right: Sequence[EncodedPlan],
        right_steps: np.ndarray,
    ):
        """Logits of Adv(CP_l, CP_r) scores, shape (B, 3), and their pullback.

        The state network runs once per *distinct* ``(EncodedPlan object,
        step)`` row of ``left`` and ``right`` together (see
        :func:`distinct_rows`), in one packed forward, and each side
        gathers its statevecs by index.  A row's gradient is the sum over
        its uses, so logits, loss and gradients equal the two-sided
        forward's up to float summation order.
        """
        plans, steps, left_index, right_index = distinct_rows(
            left, left_steps, right, right_steps
        )
        self.rows_forwarded += len(plans)
        vecs, state_back = self.state_network(plans, steps)
        logits, head_back = self._head(vecs[left_index], vecs[right_index])

        def pullback(grad):
            grad_l, grad_r = head_back(grad)
            state_back(
                gather_backward(grad_l, left_index, vecs.shape)
                + gather_backward(grad_r, right_index, vecs.shape)
            )

        return logits, pullback

    def _head(self, vec_l: np.ndarray, vec_r: np.ndarray):
        """The position-aware pairwise head: logits (B, 3) and their
        pullback, which returns the two sides' statevec gradients.  A
        position row broadcast over the batch adds what a gathered copy of
        it would, element for element; its gradient is that gather's."""
        positions, fc1, fc2 = self.position_embed.weight, self.fc1, self.fc2
        w1, b1 = fc1.weight.data, fc1.bias.data
        in_l, in_r = vec_l + positions.data[0], vec_r + positions.data[1]
        hidden_l, hidden_r = F.linear(in_l, w1, b1, "relu"), F.linear(in_r, w1, b1, "relu")
        diff = hidden_l - hidden_r

        def pullback(grad):
            grad_diff = dense_backward(grad, diff, fc2.weight, fc2.bias)
            grad_l = dense_backward(grad_diff, in_l, fc1.weight, fc1.bias, hidden_l, "relu")
            grad_r = dense_backward(-grad_diff, in_r, fc1.weight, fc1.bias, hidden_r, "relu")
            num = len(positions.data)
            positions.accumulate(scatter_rows(np.zeros(len(grad_l), dtype=np.int64), grad_l, num))
            positions.accumulate(scatter_rows(np.ones(len(grad_r), dtype=np.int64), grad_r, num))
            return grad_l, grad_r

        return F.linear(diff, fc2.weight.data, fc2.bias.data), pullback

    def predict_scores(
        self,
        left: Sequence[EncodedPlan],
        left_steps: np.ndarray,
        right: Sequence[EncodedPlan],
        right_steps: np.ndarray,
    ) -> np.ndarray:
        """Hard advantage scores in {0, 1, 2}: the argmax of
        :meth:`forward`'s logits."""
        return np.argmax(self.forward(left, left_steps, right, right_steps)[0], axis=-1)

    def statevecs_lazy(
        self,
        items: Sequence[Tuple[StatementKey, str, Tuple["Query", "Plan"], float]],
        encoder,
    ) -> np.ndarray:
        """Statevecs for (query key, plan_sig, (query, plan), step_fraction) items.

        Hits are free and deduplicated misses share one packed
        state-network forward.  Items carry the raw ``(query, plan)`` pair
        instead of an :class:`EncodedPlan`; the cache key is pure
        signatures, so hits never touch the encoder at all, and misses are
        encoded in one ``encoder.encode_many`` batch.  Keys carry
        :attr:`version`, so entries can never answer for retrained weights
        (the cache is also cleared on retrain to bound memory).
        """
        def embed(misses):
            encoded = encoder.encode_many([pair for _, _, pair, _ in misses])
            return self.state_network(encoded, np.array([frac for *_, frac in misses]))[0]

        version = self.version
        keys = [(version, qsig, psig, frac) for qsig, psig, _, frac in items]
        return np.stack(self._statevec_cache.many(keys, items, embed))

    def predict_scores_from_statevecs(self, vec_l: np.ndarray, vec_r: np.ndarray) -> np.ndarray:
        """Hard scores from precomputed statevecs (head-only inference).

        Lets callers that cache state representations (the scoring
        environments) skip the transformer entirely for plans they have
        already embedded under the current weights.
        """
        vec_l = np.asarray(vec_l, dtype=np.float64)
        vec_r = np.asarray(vec_r, dtype=np.float64)
        return np.argmax(self._head(vec_l, vec_r)[0], axis=-1)


def asymmetric_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    gamma_positive: float,
    gamma_negative: float,
    label_smoothing: float,
) -> Tuple[float, np.ndarray]:
    """Asymmetric focal loss with label smoothing (paper §IV-C), and its
    gradient with respect to ``logits``.

    Hard examples (low probability on the true label, high on wrong ones)
    are up-weighted by ``(1 - p_hat)^gamma``; negatives decay faster
    (``gamma- > gamma+``) so the abundant score-0 samples do not dominate.
    The weights are constants of the gradient (they read the probabilities'
    values only), and the gradient runs the op chain's backward steps in
    tape order from a seed of 1.
    """
    labels = np.asarray(labels, dtype=np.int64)
    batch, num_classes = logits.shape
    log_probs, log_softmax_back = F.log_softmax(logits)
    probs = np.exp(log_probs)

    one_hot = np.zeros((batch, num_classes))
    one_hot[np.arange(batch), labels] = 1.0
    # p_hat: classification "easiness" per paper eq. (4).
    p_hat = np.where(one_hot > 0, probs, 1.0 - probs)
    gamma = np.where(one_hot > 0, gamma_positive, gamma_negative)
    focal_weight = (1.0 - p_hat) ** gamma

    epsilon = label_smoothing
    smoothed = np.where(one_hot > 0, 1.0 - epsilon, epsilon / (num_classes - 1))

    weights = smoothed * focal_weight
    scale = 1.0 / batch
    loss = -(weights * log_probs).sum() * scale
    # loss = -sum(weights * log_probs) * scale: mul, neg, sum, mul
    grad = np.broadcast_to(-scale, log_probs.shape) * weights
    return float(loss), log_softmax_back(grad)


@dataclass
class AAMSample:
    """One training pair: (CP_l, CP_r) with its true advantage score."""

    left: EncodedPlan
    left_step: float
    right: EncodedPlan
    right_step: float
    label: int


class AAMTrainer:
    """Supervised training of the AAM from execution-buffer pairs."""

    def __init__(
        self,
        model: AdvantageModel,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.model = model
        self.config = model.config
        self.rng = rng if rng is not None else np.random.default_rng()
        self.optimizer = Adam(model.parameters(), lr=self.config.lr)

    def train(self, samples: Sequence[AAMSample]) -> Dict[str, float]:
        """Run the configured epochs over the sample set; returns metrics.

        Besides loss / accuracy / batches the metrics count the work:
        ``pairs`` trained on, ``rows`` = 2 x pairs x epochs (one
        state-network row per side of every pair seen) and
        ``distinct_rows``, the rows the minibatches actually forwarded
        (see :meth:`AdvantageModel.forward`).
        """
        if not samples:
            return {
                "loss": 0.0, "accuracy": 0.0, "batches": 0,
                "pairs": 0, "rows": 0, "distinct_rows": 0,
            }
        cfg = self.config
        total_loss = 0.0
        batches = 0
        rows_before = self.model.rows_forwarded
        try:
            for _ in range(cfg.epochs):
                order = self.rng.permutation(len(samples))
                for start in range(0, len(samples), cfg.minibatch_size):
                    chunk = [samples[i] for i in order[start : start + cfg.minibatch_size]]
                    loss = self._step(chunk)
                    total_loss += loss
                    batches += 1
        finally:
            # Once the weights stop moving: statevecs and scores a concurrent
            # reader got from half-trained weights keep the old version key.
            self.model._bump_version()
        distinct_rows = self.model.rows_forwarded - rows_before
        return {
            "loss": total_loss / max(batches, 1),
            "accuracy": self.evaluate(samples),
            "batches": batches,
            "pairs": len(samples),
            "rows": 2 * len(samples) * cfg.epochs,
            "distinct_rows": distinct_rows,
        }

    def _step(self, chunk: Sequence[AAMSample]) -> float:
        logits, pullback = self.model(
            [s.left for s in chunk],
            np.array([s.left_step for s in chunk]),
            [s.right for s in chunk],
            np.array([s.right_step for s in chunk]),
        )
        labels = np.array([s.label for s in chunk])
        loss, grad = asymmetric_loss(
            logits,
            labels,
            gamma_positive=self.config.gamma_positive,
            gamma_negative=self.config.gamma_negative,
            label_smoothing=self.config.label_smoothing,
        )
        self.optimizer.zero_grad()
        pullback(grad)
        clip_grad_norm(self.model.parameters(), self.config.max_grad_norm)
        self.optimizer.step()
        return loss

    def evaluate(self, samples: Sequence[AAMSample]) -> float:
        """Hard-label accuracy over a sample set, one inference pass per
        minibatch of pairs in the samples' order, so its peak memory is a
        training step's, not the buffer's."""
        if not samples:
            return 0.0
        correct, size = 0, self.config.minibatch_size
        for start in range(0, len(samples), size):
            chunk = samples[start : start + size]
            predicted = self.model.predict_scores(
                [s.left for s in chunk],
                np.array([s.left_step for s in chunk]),
                [s.right for s in chunk],
                np.array([s.right_step for s in chunk]),
            )
            correct += int((predicted == np.array([s.label for s in chunk])).sum())
        return correct / len(samples)
