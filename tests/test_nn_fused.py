"""Fused inference kernels: gradient correctness and bitwise forward parity.

The fused kernels (:func:`fused_linear`, and :func:`fused_attention`, the
segment kernel's reference in ``tests/reference_attention.py``) and the
layer-level no_grad fast paths promise two things:

* **training**: one tape node whose backward composes the unfused ops'
  closures exactly — gradients equal the unfused chain bit for bit, and
  both agree with central finite differences;
* **inference**: the no_grad fast path evaluates the identical numpy
  expression sequence as the tape path, so whole-network forwards
  (StateNetwork, ActorCritic) are bitwise-equal across the two paths and
  construct zero tape nodes.
"""

import numpy as np
import pytest

from reference_attention import fused_attention
from repro.nn import functional as F
from repro.nn import profile
from repro.nn.layers import LayerNorm
from repro.nn.tensor import Tensor, no_grad


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
        fused = F.fused_linear(x1, w1, b1, activation=activation)
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
            with no_grad():
                out = F.fused_linear(Tensor(xd), Tensor(wd), Tensor(bd), activation=activation)
            return float((out.data * seed).sum())

        x, w, b = (Tensor(a, requires_grad=True) for a in (xd, wd, bd))
        (F.fused_linear(x, w, b, activation=activation) * Tensor(seed)).sum().backward()

        for param, analytic in ((xd, x.grad), (wd, w.grad), (bd, b.grad)):
            numeric = _finite_diff(loss, param)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_vector_input_outer_product_branch(self, rng):
        """1-D input exercises the ``np.outer`` weight-gradient branch."""
        xd, wd = rng.normal(size=6), rng.normal(size=(6, 3))
        x1, w1 = Tensor(xd.copy(), requires_grad=True), Tensor(wd.copy(), requires_grad=True)
        F.fused_linear(x1, w1, activation="tanh").sum().backward()
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
            layer = LayerNorm(6)
            layer.gamma, layer.beta = gamma, beta
            return layer(x)

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
            with no_grad():
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
    encoder = PlanEncoder(db.schema, max_nodes=40, statistics=db.statistics)
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


class TestWholeNetworkParity:
    """The no_grad fast path must be bitwise-equal to the tape path."""

    def test_statenet_fast_path_bitwise_equals_tape(self, aam_setup):
        model, plans = aam_setup
        steps = np.linspace(0.0, 1.0, len(plans))
        tape = model.state_network(plans, steps).data
        with no_grad():
            fast = model.state_network(plans, steps).data
        assert np.array_equal(tape, fast)

    def test_statenet_single_plan_parity(self, aam_setup):
        model, plans = aam_setup
        tape = model.state_network([plans[0]], np.array([0.5])).data
        with no_grad():
            fast = model.state_network([plans[0]], np.array([0.5])).data
        assert np.array_equal(tape, fast)

    def test_policy_fast_path_bitwise_equals_tape(self, rng):
        from repro.rl.policy import ActorCritic

        policy = ActorCritic(state_dim=16, num_actions=9, hidden_sizes=(32, 32), rng=rng)
        states = rng.normal(size=(8, 16))
        masks = rng.random(size=(8, 9)) < 0.6
        masks[:, 0] = True  # every row keeps at least one legal action

        dist_t, values_t = policy(Tensor(states), masks)
        with no_grad():
            dist_f, values_f = policy(Tensor(states), masks)
        assert np.array_equal(dist_t.log_probs.data, dist_f.log_probs.data)
        assert np.array_equal(values_t.data, values_f.data)

    def test_full_forward_builds_zero_tape_nodes(self, aam_setup, rng):
        """A policy + AAM forward under no_grad never touches the tape."""
        from repro.rl.policy import ActorCritic

        model, plans = aam_setup
        policy = ActorCritic(state_dim=32, num_actions=9, rng=rng)
        with profile.profile() as prof:
            with no_grad():
                vecs = model.state_network.statevecs(
                    plans, np.zeros(len(plans))
                )
                dist, values = policy(Tensor(vecs), None)
                scores = model.predict_scores_from_statevecs(vecs, vecs)
        assert prof.tape_nodes == 0
        assert prof.inference_tensors > 0
        assert values.shape == (len(plans),)
        assert len(scores) == len(plans)

    def test_tape_counter_is_live(self, rng):
        """Sanity: the same forward *with* grads does build tape nodes."""
        from repro.rl.policy import ActorCritic

        policy = ActorCritic(state_dim=8, num_actions=4, rng=rng)
        with profile.profile() as prof:
            dist, values = policy(Tensor(rng.normal(size=(3, 8))), None)
        assert prof.tape_nodes > 0
