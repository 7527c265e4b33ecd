"""Fused backward bodies and whole-network parity with the tape.

The fused ops of the test oracle (``tests/reference_tape.py``) run
``repro.nn``'s array functions and backward bodies: ``fused_linear``, the
one-node LayerNorm, and :func:`fused_attention`, the segment function's
reference in ``tests/reference_attention.py``.  Each must give gradients
equal to the unfused ``Tensor`` chain bit for bit, and agree with central
finite differences.

The modules' one forward is then held to the taped compositions: every
statevec, logit, score and policy step is ``np.array_equal`` to the tape's
over the weights' current ``.data``.
"""

import numpy as np
import pytest

import reference_tape as tape
from reference_attention import fused_attention
from reference_tape import Tensor
from repro.nn import functional as F


def _finite_diff(loss_fn, arr: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``loss_fn`` (a float of ``arr``)."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = loss_fn()
        flat[i] = keep - h
        lo = loss_fn()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2.0 * h)
    return grad


class TestFusedLinear:
    @pytest.mark.parametrize("activation", [None, "relu", "tanh"])
    def test_grads_equal_unfused_chain(self, activation, rng):
        xd = rng.normal(size=(5, 7))
        wd = rng.normal(size=(7, 4))
        bd = rng.normal(size=4)
        seed = rng.normal(size=(5, 4))

        x1, w1, b1 = (Tensor(a.copy(), requires_grad=True) for a in (xd, wd, bd))
        fused = tape.fused_linear(x1, w1, b1, activation=activation)
        (fused * Tensor(seed)).sum().backward()

        x2, w2, b2 = (Tensor(a.copy(), requires_grad=True) for a in (xd, wd, bd))
        pre = x2 @ w2 + b2
        if activation == "relu":
            unfused = pre.relu()
        elif activation == "tanh":
            unfused = pre.tanh()
        else:
            unfused = pre
        (unfused * Tensor(seed)).sum().backward()

        assert np.array_equal(fused.data, unfused.data)
        assert np.array_equal(x1.grad, x2.grad)
        assert np.array_equal(w1.grad, w2.grad)
        assert np.array_equal(b1.grad, b2.grad)

    @pytest.mark.parametrize("activation", [None, "relu", "tanh"])
    def test_grads_match_finite_differences(self, activation, rng):
        xd = rng.normal(size=(3, 4))
        wd = rng.normal(size=(4, 2))
        bd = rng.normal(size=2)
        seed = rng.normal(size=(3, 2))
        # Keep pre-activations away from relu's kink so the finite
        # difference never straddles the non-differentiable point.
        pre = xd @ wd + bd
        bd = bd + np.where(np.abs(pre) < 1e-2, 0.2, 0.0).max(axis=0)

        def loss():
            out = tape.fused_linear(Tensor(xd), Tensor(wd), Tensor(bd), activation=activation)
            return float((out.data * seed).sum())

        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        (tape.fused_linear(x, w, b, activation=activation) * Tensor(seed)).sum().backward()

        for param, analytic in ((xd, x.grad), (wd, w.grad), (bd, b.grad)):
            numeric = _finite_diff(loss, param)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_vector_input_outer_product_branch(self, rng):
        """1-D input exercises the ``np.outer`` weight-gradient branch."""
        xd, wd = rng.normal(size=6), rng.normal(size=(6, 3))
        x1, w1 = Tensor(xd.copy(), requires_grad=True), Tensor(wd.copy(), requires_grad=True)
        tape.fused_linear(x1, w1, activation="tanh").sum().backward()
        x2, w2 = Tensor(xd.copy(), requires_grad=True), Tensor(wd.copy(), requires_grad=True)
        (x2 @ w2).tanh().sum().backward()
        assert np.array_equal(w1.grad, w2.grad)
        assert np.array_equal(x1.grad, x2.grad)


class TestFusedLayerNorm:
    def test_grads_equal_unfused_chain(self, rng):
        xd = rng.normal(size=(2, 5, 6)) * 3.0 + 1.0
        gd, bd = rng.normal(size=6), rng.normal(size=6)
        seed = rng.normal(size=(2, 5, 6))

        def chain(x, gamma, beta):
            """``LayerNorm.forward`` as the eleven-op chain it was (oracle)."""
            mean = x.mean(axis=-1, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=-1, keepdims=True)
            normed = centered / (var + 1e-5).sqrt()
            return normed * gamma + beta

        def fused(x, gamma, beta):
            return tape.Normalize.apply(x, x, gamma, beta, eps=1e-5)

        def run(norm):
            x, gamma, beta = (Tensor(a.copy(), requires_grad=True) for a in (xd, gd, bd))
            hidden = x * 2.0  # interior, and it reaches the output twice
            out = hidden + norm(hidden, gamma, beta)
            (out * Tensor(seed)).sum().backward()
            return out.data, x.grad, gamma.grad, beta.grad

        for got, expected in zip(run(fused), run(chain)):
            assert np.array_equal(got, expected)


class TestFusedAttention:
    @staticmethod
    def _unfused(q, k, v, additive, scale):
        scores = (q @ k.transpose(-2, -1)) * scale
        if additive is not None:
            scores = scores + Tensor(additive)
        shifted = scores - Tensor(scores.data.max(axis=-1, keepdims=True))
        e = shifted.exp()
        attn = e / e.sum(axis=-1, keepdims=True)
        return attn @ v

    @pytest.mark.parametrize("masked", [False, True])
    def test_grads_equal_unfused_chain(self, masked, rng):
        shape = (2, 2, 5, 3)  # (batch, heads, nodes, head_dim)
        qd, kd, vd = (rng.normal(size=shape) for _ in range(3))
        seed = rng.normal(size=shape)
        scale = 1.0 / np.sqrt(shape[-1])
        additive = None
        if masked:
            reach = rng.random(size=(2, 1, 5, 5)) < 0.7
            reach |= np.eye(5, dtype=bool)  # keep every row non-empty
            additive = np.where(reach, 0.0, -1e9)

        q1, k1, v1 = (Tensor(a.copy(), requires_grad=True) for a in (qd, kd, vd))
        fused = fused_attention(q1, k1, v1, additive, scale)
        (fused * Tensor(seed)).sum().backward()

        q2, k2, v2 = (Tensor(a.copy(), requires_grad=True) for a in (qd, kd, vd))
        unfused = self._unfused(q2, k2, v2, additive, scale)
        (unfused * Tensor(seed)).sum().backward()

        assert np.array_equal(fused.data, unfused.data)
        assert np.array_equal(q1.grad, q2.grad)
        assert np.array_equal(k1.grad, k2.grad)
        assert np.array_equal(v1.grad, v2.grad)

    def test_grads_match_finite_differences(self, rng):
        shape = (1, 2, 4, 3)
        qd, kd, vd = (rng.normal(size=shape) for _ in range(3))
        seed = rng.normal(size=shape)
        scale = 0.5

        def loss():
            out = fused_attention(Tensor(qd), Tensor(kd), Tensor(vd), None, scale)
            return float((out.data * seed).sum())

        q, k, v = (Tensor(a, requires_grad=True) for a in (qd, kd, vd))
        (fused_attention(q, k, v, None, scale) * Tensor(seed)).sum().backward()

        for param, analytic in ((qd, q.grad), (kd, k.grad), (vd, v.grad)):
            numeric = _finite_diff(loss, param)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


@pytest.fixture(scope="module")
def aam_setup(request):
    from repro.core.aam import AAMConfig, AdvantageModel
    from repro.core.encoding import PlanEncoder

    workload = request.getfixturevalue("job_workload")
    db = workload.database
    encoder = PlanEncoder(db.catalog, max_nodes=40)
    config = AAMConfig(
        d_model=32, d_embed=8, d_state=32, num_heads=2, num_layers=2, ff_hidden=32
    )
    model = AdvantageModel(
        encoder.num_tables, encoder.num_columns, 40,
        config=config, rng=np.random.default_rng(5),
    )
    queries = [w for w in workload.all_queries if w.query.num_tables >= 3][:5]
    plans = [encoder.encode(w.query, db.plan(w.query).plan) for w in queries]
    return model, plans


STEPS = (0.0, 1 / 3, 2 / 3, 1.0)


@pytest.fixture(scope="module")
def plan_pool(request):
    """A model factory (``num_layers`` and seed vary) and 48 expert plans of
    mixed node counts.  ``d_model`` is no power of two, so a LayerNorm that
    divides by it (``np.mean``) instead of multiplying by its inverse
    rounds differently and shows."""
    from repro.core.aam import AAMConfig, AdvantageModel
    from repro.core.encoding import PlanEncoder

    workload = request.getfixturevalue("job_workload")
    db = workload.database
    encoder = PlanEncoder(db.catalog, max_nodes=40)

    def make_model(seed, num_layers=2):
        config = AAMConfig(
            d_model=24, d_embed=8, d_state=20, num_heads=2, num_layers=num_layers, ff_hidden=40
        )
        return AdvantageModel(
            encoder.num_tables, encoder.num_columns, 40,
            config=config, rng=np.random.default_rng(seed),
        )

    plans = [encoder.encode(w.query, db.plan(w.query).plan) for w in workload.all_queries[::2][:48]]
    assert len({p.num_nodes for p in plans}) >= 5
    return make_model, plans


def drawn_batch(plans, size, seed):
    """``size`` plans of mixed node counts (repeats once ``size`` > 48) and
    steps cycling through all four step values, shuffled."""
    rng = np.random.default_rng(seed)
    batch = [plans[int(i)] for i in rng.choice(len(plans), size=size, replace=size > len(plans))]
    steps = rng.permutation(np.resize(STEPS, size))
    assert size == 1 or len({p.num_nodes for p in batch}) > 1
    return batch, steps


def drawn_pairs(plans, count, seed):
    """Both orientations of ``count`` drawn pairs: repeated rows, mixed sizes."""
    rng = np.random.default_rng(seed)
    left, ls, right, rs = [], [], [], []
    for _ in range(count):
        l, r = (plans[int(i)] for i in rng.choice(len(plans), size=2, replace=False))
        a, b = (STEPS[int(i)] for i in rng.integers(len(STEPS), size=2))
        left += [l, r]
        ls += [a, b]
        right += [r, l]
        rs += [b, a]
    return left, np.array(ls), right, np.array(rs)


def taped_statevecs(network, plans, steps):
    return tape.state_network(tape.Leaves(network), network, plans, steps)


class TestWholeNetworkParity:
    """Inference runs the one forward; it must be bitwise the tape's."""

    @pytest.mark.parametrize("num_layers", [0, 1, 2])
    @pytest.mark.parametrize("size", [1, 2, 15, 17, 48, 96])
    def test_statevecs_kernel_bitwise_equals_taped_forward(self, plan_pool, size, num_layers):
        """Packed segments, the root-only last layer (or none), every step
        value."""
        make_model, plans = plan_pool
        network = make_model(3, num_layers=num_layers).state_network
        batch, steps = drawn_batch(plans, size, seed=size)
        vecs, _ = network(batch, steps)
        taped = taped_statevecs(network, batch, steps)
        assert taped.requires_grad  # the reference really is the tape
        assert vecs.shape == (size, 20)
        assert np.array_equal(vecs, taped.data)

    @pytest.mark.parametrize("num_layers", [0, 1, 2])
    def test_head_and_predict_scores_bitwise_equal_taped_logits(self, plan_pool, num_layers):
        from repro.core.aam import distinct_rows

        make_model, plans = plan_pool
        model = make_model(4, num_layers=num_layers)
        pairs = drawn_pairs(plans, 30, seed=num_layers)
        logits = tape.advantage(tape.Leaves(model), model, *pairs).data
        rows, steps, left_index, right_index = distinct_rows(*pairs)
        vecs, _ = model.state_network(rows, steps)
        vec_l, vec_r = vecs[left_index], vecs[right_index]
        assert np.array_equal(model(*pairs)[0], logits)
        assert np.array_equal(model._head(vec_l, vec_r)[0], logits)
        L = tape.Leaves(model)
        assert np.array_equal(
            model._head(vec_r, vec_l)[0], tape.head(L, model, Tensor(vec_r), Tensor(vec_l)).data
        )
        hard = np.argmax(logits, axis=-1)
        assert len(set(hard.tolist())) > 1  # the scores are not all one class
        assert np.array_equal(model.predict_scores(*pairs), hard)
        assert np.array_equal(model.predict_scores_from_statevecs(vec_l, vec_r), hard)

    def test_kernels_read_the_weights_at_call_time(self, plan_pool):
        """``load_state_dict`` rebinds every ``.data`` and Adam writes into
        it in place: the next statevecs and scores read either."""
        make_model, plans = plan_pool
        model, other = make_model(5), make_model(6)
        batch, steps = drawn_batch(plans, 17, seed=7)
        pairs = drawn_pairs(plans, 10, seed=8)
        before = model.state_network(batch, steps)[0]

        model.load_state_dict(other.state_dict())
        loaded = model.state_network(batch, steps)[0]
        assert not np.array_equal(loaded, before)
        assert np.array_equal(loaded, other.state_network(batch, steps)[0])
        assert np.array_equal(model.predict_scores(*pairs), other.predict_scores(*pairs))
        vecs = other.state_network(batch, steps)[0]
        assert np.array_equal(model._head(vecs, vecs[::-1])[0], other._head(vecs, vecs[::-1])[0])

        for param in model.parameters():  # an in-place step, as Adam takes
            param.data += 0.01
        assert np.array_equal(
            model.state_network(batch, steps)[0], taped_statevecs(model.state_network, batch, steps).data
        )
        assert np.array_equal(
            model._head(vecs, vecs[::-1])[0],
            tape.head(tape.Leaves(model), model, Tensor(vecs), Tensor(vecs[::-1])).data,
        )

    def test_statenet_fast_path_bitwise_equals_tape(self, aam_setup):
        model, plans = aam_setup
        steps = np.linspace(0.0, 1.0, len(plans))
        taped = taped_statevecs(model.state_network, plans, steps).data
        assert np.array_equal(model.state_network(plans, steps)[0], taped)

    def test_statenet_single_plan_parity(self, aam_setup):
        model, plans = aam_setup
        taped = taped_statevecs(model.state_network, [plans[0]], np.array([0.5])).data
        assert np.array_equal(model.state_network([plans[0]], np.array([0.5]))[0], taped)

    def test_policy_fast_path_bitwise_equals_tape(self, rng):
        """The sampled and the greedy step against the taped policy."""
        from repro.rl.policy import ActorCritic

        policy = ActorCritic(state_dim=16, num_actions=9, hidden_sizes=(32, 32), rng=rng)
        states = rng.normal(size=(8, 16))
        masks = rng.random(size=(8, 9)) < 0.6
        masks[:, 0] = True  # every row keeps at least one legal action

        dist_t, values_t = tape.actor_critic(tape.Leaves(policy), policy, Tensor(states), masks)
        assert values_t.requires_grad  # the parameters put it on the tape
        actions, log_probs, values = policy.act_batch(
            states, masks, [np.random.default_rng(i) for i in range(8)]
        )
        greedy, _, _ = policy.act_batch(states, masks, [None] * 8, deterministic=True)
        noise = np.stack([np.random.default_rng(i).gumbel(size=9) for i in range(8)])
        assert np.array_equal(actions, np.argmax(dist_t.logits.data + noise, axis=-1))
        assert np.array_equal(log_probs, dist_t.log_prob(actions).data)
        assert np.array_equal(values, values_t.data)
        assert np.array_equal(greedy, np.argmax(dist_t.logits.data, axis=-1))

    def test_full_forward_builds_zero_tape_nodes(self, aam_setup, rng, op_spy):
        """A policy + AAM inference pass runs each array function exactly as
        often as the forwards compose it: no pullback runs and nothing is
        computed twice."""
        from repro.rl.policy import ActorCritic

        model, plans = aam_setup
        policy = ActorCritic(state_dim=32, num_actions=9, rng=rng)
        with op_spy.record() as ops:
            vecs = model.state_network(plans, np.zeros(len(plans)))[0]
            rngs = [np.random.default_rng(i) for i in range(len(plans))]
            actions, log_probs, values = policy.act_batch(vecs, None, rngs)
            scores = model.predict_scores_from_statevecs(vecs, vecs)
        assert values.shape == (len(plans),)
        assert len(scores) == len(plans)
        # two encoder layers of six dense layers, input and state projection;
        # actor and critic of three each; the head's three
        assert ops.calls(F.linear) == (2 * 6 + 2) + 2 * 3 + 3
        assert ops.calls(F.attend_segments) == 2
        assert len(ops) == ops.calls(F.linear) + 2 + (2 * 2 + 1)  # and five norms

    def test_tape_counter_is_live(self, rng, op_spy):
        """Sanity: the spy sees the forward's dense layers, and the tape's
        fused ops, which run the same array function."""
        from repro.rl.policy import ActorCritic

        policy = ActorCritic(state_dim=8, num_actions=4, rng=rng)
        states = rng.normal(size=(3, 8))
        with op_spy.record() as ops:
            (log_probs, values), _ = policy(states)
        assert ops.calls(F.linear) == 6  # two hidden layers and a head, twice
        with op_spy.record() as ops:
            tape.actor_critic(tape.Leaves(policy), policy, Tensor(states))
        assert ops.calls(F.linear) == 6
