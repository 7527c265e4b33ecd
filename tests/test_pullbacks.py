"""Every pullback against the autograd tape it replaced, bitwise.

Each module's one ``forward`` returns ``(output, pullback)``; the oracle is
``tests/reference_tape.py``, the tape and the modules' taped compositions.
Outputs, input gradients and parameter gradients must be
``np.array_equal`` to the tape's — not close: a pullback that adds a
tensor's gradient arrivals in another order than the tape's walk rounds
differently and fails here.  The three training steps (an AAM minibatch,
a PPO minibatch, a value-model fit) are held the same way after clipping
and Adam, at drawn batch sizes and with 0, 1 and 2 encoder layers.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_tape as tape
from repro.baselines.value_model import ValueModel
from repro.core.aam import AAMConfig, AAMSample, AAMTrainer, AdvantageModel, asymmetric_loss, distinct_rows
from repro.core.encoding import PlanEncoder
from repro.nn.layers import (
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    MultiHeadAttention,
    ReLU,
    Sequential,
    Tanh,
    TransformerEncoderLayer,
    mlp,
)
from repro.rl.policy import ActorCritic
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.rollout import Batch

STEPS = (0.0, 1 / 3, 2 / 3, 1.0)


def assert_grads_equal(module, expected):
    """Every parameter's ``.grad`` ``np.array_equal`` to ``expected`` (name ->
    gradient), ``None`` where the tape reached no parameter."""
    got = {name: param.grad for name, param in module.named_parameters()}
    assert got.keys() == expected.keys()
    for name, want in expected.items():
        assert (got[name] is None) == (want is None), name
        if want is not None:
            assert np.array_equal(got[name], want), name


def run_both(module, forward, taped, inputs, seed):
    """``forward(*inputs)`` and its pullback of a drawn upstream gradient,
    against ``taped(L, *leaf inputs)`` and the tape's backward: outputs,
    input gradients and parameter gradients, bitwise."""
    out, pullback = forward(*inputs)
    upstream = np.random.default_rng(seed).standard_normal(out.shape)
    module.zero_grad()
    grad_in = pullback(upstream)
    grads = {name: param.grad for name, param in module.named_parameters()}
    module.zero_grad()

    L = tape.Leaves(module)
    leaf = tape.Tensor(inputs[0].copy(), requires_grad=True)
    ref = taped(L, leaf, *inputs[1:])
    ref.backward(upstream)
    assert np.array_equal(out, ref.data)
    assert np.array_equal(grad_in, leaf.grad)
    for name, want in L.grads().items():
        assert np.array_equal(grads[name], want), name


def segments_of(rng, rows_per_segment, nodes_per_segment, masked=True):
    """Packed segments with random reachability terms (diagonal kept)."""
    segments = []
    for rows, nodes in zip(rows_per_segment, nodes_per_segment):
        additive = None
        if masked:
            reach = rng.random((rows, 1, nodes, nodes)) < 0.6
            reach |= np.eye(nodes, dtype=bool)
            additive = np.where(reach, 0.0, -1e9)
        segments.append((rows, nodes, additive))
    return segments


class TestModulePullbacks:
    @pytest.mark.parametrize("seed", range(3))
    def test_linear_and_sequential(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((7, 5))
        layer = Linear(5, 4, rng=rng)
        run_both(layer, layer.forward, lambda L, t: tape.linear(L, layer, t), (x,), seed)
        for seq in (
            mlp([5, 8, 6, 3], rng=rng, activation="tanh"),
            mlp([5, 8, 3], rng=rng, activation="relu"),
            Sequential(Linear(5, 4, rng=rng, bias=False), ReLU(), Tanh(), Linear(4, 2, rng=rng)),
        ):
            run_both(seq, seq.forward, lambda L, t, seq=seq: tape.sequential(L, seq, t), (x,), seed)

    def test_layer_norm(self, rng):
        norm = LayerNorm(6)
        norm.gamma.data = rng.standard_normal(6)
        norm.beta.data = rng.standard_normal(6)
        x = rng.standard_normal((9, 6)) * 3.0 + 1.0
        run_both(norm, norm.forward, lambda L, t: tape.layer_norm(L, norm, t), (x,), 1)

    def test_embedding_repeated_ids(self, rng):
        emb = Embedding(5, 3, rng=rng)
        ids = np.array([[1, 1, 3], [0, 4, 1]])
        out, pullback = emb(ids)
        upstream = rng.standard_normal(out.shape)
        assert pullback(upstream) is None
        L = tape.Leaves(emb)
        ref = tape.embedding(L, emb, ids)
        ref.backward(upstream)
        assert np.array_equal(out, ref.data)
        assert np.array_equal(emb.weight.grad, L[emb.weight].grad)

    @pytest.mark.parametrize("rows", [None, 1, 2])
    @pytest.mark.parametrize("kind", ["attention", "feed_forward", "encoder"])
    def test_attention_blocks(self, kind, rows):
        rng = np.random.default_rng(len(kind) + (rows or 0))
        dim, heads = 6, 2
        segments = segments_of(rng, (3, 2, 1), (4, 5, 1))
        segments[1] = (2, 5, None)
        x = rng.standard_normal((sum(r * n for r, n, _ in segments), dim))
        if kind == "attention":
            block = MultiHeadAttention(dim, heads, rng=rng)
            taped = lambda L, t: tape.attention(L, block, t, segments, rows)
            forward = lambda t: block(t, segments, rows)
        elif kind == "encoder":
            block = TransformerEncoderLayer(dim, heads, 10, rng=rng)
            for norm in (block.norm1, block.norm2):  # off the identity init
                norm.gamma.data = rng.uniform(0.5, 1.5, dim)
                norm.beta.data = rng.standard_normal(dim) * 0.1
            taped = lambda L, t: tape.encoder_layer(L, block, t, segments, rows)
            forward = lambda t: block(t, segments, rows)
        else:
            block = FeedForward(dim, 10, rng=rng)
            taped = lambda L, t: tape.feed_forward(L, block, t)
            forward = block.forward
        run_both(block, forward, taped, (x,), 7)


# ---------------------------------------------------------------------------
# the state network, the head and the AAM's training step
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def plan_pool(request):
    """A model factory and 48 expert plans of mixed node counts.  ``d_model``
    is no power of two, so a LayerNorm dividing by it shows."""
    workload = request.getfixturevalue("job_workload")
    db = workload.database
    encoder = PlanEncoder(db.catalog, max_nodes=40)

    def make_model(seed, num_layers):
        config = AAMConfig(
            d_model=24, d_embed=8, d_state=20, num_heads=2, num_layers=num_layers,
            ff_hidden=40, minibatch_size=16,
        )
        return AdvantageModel(
            encoder.num_tables, encoder.num_columns, 40, config=config, rng=np.random.default_rng(seed),
        )

    plans = [encoder.encode(w.query, db.plan(w.query).plan) for w in workload.all_queries[::2][:48]]
    assert len({p.num_nodes for p in plans}) >= 5
    return Pool(make_model, plans)


class Pool(tuple):
    """``(make_model, plans)``, with a short repr for hypothesis's reports."""

    def __new__(cls, make_model, plans):
        return super().__new__(cls, (make_model, plans))

    def __repr__(self) -> str:
        return f"Pool({len(self[1])} plans)"


def drawn_samples(plans, count, seed):
    """``count`` pairs, repeated plans and both orientations among them."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(count):
        l, r = (int(i) for i in rng.choice(len(plans), size=2, replace=False))
        a, b = (STEPS[int(i)] for i in rng.integers(len(STEPS), size=2))
        label = int(rng.integers(3))
        samples.append(AAMSample(plans[l], a, plans[r], b, label))
        if rng.random() < 0.5:
            samples.append(AAMSample(plans[r], b, plans[l], a, 2 - label))
    return samples[:count]


class TestAdvantageModelPullbacks:
    @pytest.mark.parametrize("num_layers", [0, 1, 2])
    def test_state_network_and_head(self, plan_pool, num_layers):
        make_model, plans = plan_pool
        model = make_model(num_layers, num_layers)
        for param in model.parameters():  # off the init: gammas, betas, biases
            param.data = param.data + np.random.default_rng(3).normal(0.0, 0.05, param.data.shape)
        samples = drawn_samples(plans, 40, seed=num_layers)
        pairs = (
            [s.left for s in samples], np.array([s.left_step for s in samples]),
            [s.right for s in samples], np.array([s.right_step for s in samples]),
        )
        rows, steps, _, _ = distinct_rows(*pairs)

        vecs, state_back = model.state_network(rows, steps)
        upstream = np.random.default_rng(1).standard_normal(vecs.shape)
        model.zero_grad()
        assert state_back(upstream) is None
        grads = {name: param.grad for name, param in model.named_parameters()}
        L = tape.Leaves(model)
        ref = tape.state_network(L, model.state_network, rows, steps)
        ref.backward(upstream)
        assert np.array_equal(vecs, ref.data)
        for name, want in L.grads().items():
            assert (grads[name] is None) == (want is None), name
            if want is not None:
                assert np.array_equal(grads[name], want), name

        logits, pullback = model(*pairs)
        loss, grad = asymmetric_loss(logits, [s.label for s in samples], 1.0, 4.0, 0.1)
        model.zero_grad()
        pullback(grad)
        L = tape.Leaves(model)
        ref_logits = tape.advantage(L, model, *pairs)
        ref_loss = tape.asymmetric_loss(ref_logits, [s.label for s in samples], 1.0, 4.0, 0.1)
        ref_loss.backward()
        assert np.array_equal(logits, ref_logits.data)
        assert loss == float(ref_loss.data)
        assert_grads_equal(model, L.grads())

    @settings(max_examples=12, deadline=None)
    @given(num_layers=st.sampled_from([0, 1, 2]), size=st.integers(1, 40), seed=st.integers(0, 2**16))
    def test_aam_steps_equal_the_tape(self, plan_pool, num_layers, size, seed):
        """Two minibatch steps: gradients after clipping, loss, and every
        parameter after Adam (whose moments carry the first step)."""
        make_model, plans = plan_pool
        model, twin = make_model(seed, num_layers), make_model(seed, num_layers)
        trainer = AAMTrainer(model, rng=np.random.default_rng(0))
        reference = AAMTrainer(twin, rng=np.random.default_rng(0))
        for step in range(2):
            chunk = drawn_samples(plans, size, seed + step)
            assert trainer._step(chunk) == tape.aam_step(reference, chunk)
            assert_grads_equal(model, {name: p.grad for name, p in twin.named_parameters()})
            for (name, param), (_, ref) in zip(model.named_parameters(), twin.named_parameters()):
                assert np.array_equal(param.data, ref.data), name


# ---------------------------------------------------------------------------
# the policy and the PPO minibatch; the value model's fit
# ---------------------------------------------------------------------------
def drawn_minibatch(rng, size, state_dim, num_actions):
    masks = rng.random((size, num_actions)) < 0.6
    actions = rng.integers(num_actions, size=size)
    masks[np.arange(size), actions] = True
    return Batch(
        states=rng.normal(0.0, 2.0, (size, state_dim)),
        actions=actions,
        old_log_probs=rng.normal(-1.0, 0.3, size),
        advantages=rng.standard_normal(size),
        returns=rng.standard_normal(size),
        action_masks=masks,
    )


class TestPolicyPullbacks:
    @settings(max_examples=15, deadline=None)
    @given(size=st.integers(1, 64), seed=st.integers(0, 2**16))
    def test_ppo_minibatches_equal_the_tape(self, size, seed):
        rng = np.random.default_rng(seed)
        policy = ActorCritic(10, 7, hidden_sizes=(16, 12), rng=rng)
        for param in policy.parameters():  # off the init's scales, so ratios clip
            param.data = param.data + rng.normal(0.0, 0.3, param.data.shape)
        twin = copy.deepcopy(policy)
        config = PPOConfig(lr=1e-2, clip_ratio=0.1)
        trainer = PPOTrainer(policy, config, rng=np.random.default_rng(0))
        reference = PPOTrainer(twin, config, rng=np.random.default_rng(0))
        for _ in range(2):
            mini = drawn_minibatch(rng, size, 10, 7)
            assert trainer._update_minibatch(mini) == tape.ppo_minibatch(reference, mini)
            assert_grads_equal(policy, {name: p.grad for name, p in twin.named_parameters()})
            for (name, param), (_, ref) in zip(policy.named_parameters(), twin.named_parameters()):
                assert np.array_equal(param.data, ref.data), name

    def test_forward_outputs_and_state_gradient(self, rng):
        policy = ActorCritic(6, 5, hidden_sizes=(8,), rng=rng)
        states = rng.standard_normal((9, 6))
        masks = rng.random((9, 5)) < 0.5
        masks[:, 2] = True
        (log_probs, values), pullback = policy(states, masks)
        grad_lp, grad_v = rng.standard_normal(log_probs.shape), rng.standard_normal(values.shape)
        policy.zero_grad()
        grad_states = pullback((grad_lp, grad_v))
        L = tape.Leaves(policy)
        leaf = tape.Tensor(states.copy(), requires_grad=True)
        dist, ref_values = tape.actor_critic(L, policy, leaf, masks)
        (dist.log_probs * tape.Tensor(grad_lp)).sum().backward()
        (ref_values * tape.Tensor(grad_v)).sum().backward()
        assert np.array_equal(log_probs, dist.log_probs.data)
        assert np.array_equal(values, ref_values.data)
        assert np.array_equal(grad_states, leaf.grad)


def test_value_fit_equals_the_tape():
    rng = np.random.default_rng(4)
    model = ValueModel(12, rng=np.random.default_rng(3))
    for _ in range(90):
        features = rng.uniform(-1.0, 1.0, size=12)
        model.add_sample(features, float(np.exp(2.0 + features[:3].sum())))
    twin = copy.deepcopy(model)
    assert model.fit(epochs=3, minibatch=32) == tape.value_fit(twin, epochs=3, minibatch=32)
    for (name, param), (_, ref) in zip(model.network.named_parameters(), twin.network.named_parameters()):
        assert np.array_equal(param.grad, ref.grad), name
        assert np.array_equal(param.data, ref.data), name
