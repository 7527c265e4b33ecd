"""RL component tests: GAE, rollout buffer, masked policy, PPO learning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_tape as tape
from reference_tape import CategoricalMasked, Tensor
from repro.nn import functional as F
from repro.rl.gae import compute_gae
from repro.rl.policy import ActorCritic
from repro.rl.ppo import PPOConfig, PPOTrainer
from repro.rl.rollout import RolloutBuffer, Transition


class TestGAE:
    def test_single_step_episode(self):
        adv, ret = compute_gae(np.array([1.0]), np.array([0.0]), np.array([1.0]))
        assert adv[0] == pytest.approx(1.0)
        assert ret[0] == pytest.approx(1.0)

    def test_no_bootstrap_across_done(self):
        rewards = np.array([1.0, 1.0])
        values = np.array([0.0, 0.0])
        dones = np.array([1.0, 1.0])
        adv, _ = compute_gae(rewards, values, dones, gamma=0.9, lam=0.9)
        np.testing.assert_allclose(adv, [1.0, 1.0])

    def test_bootstrap_uses_last_value(self):
        adv, _ = compute_gae(np.array([0.0]), np.array([0.0]), np.array([0.0]),
                             last_value=10.0, gamma=0.5, lam=1.0)
        assert adv[0] == pytest.approx(5.0)

    def test_matches_discounted_return_when_lambda_1(self):
        rewards = np.array([1.0, 1.0, 1.0])
        values = np.zeros(3)
        dones = np.array([0.0, 0.0, 1.0])
        _, returns = compute_gae(rewards, values, dones, gamma=0.5, lam=1.0)
        assert returns[0] == pytest.approx(1 + 0.5 + 0.25)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            compute_gae(np.ones(2), np.ones(3), np.ones(2))


class TestRolloutBuffer:
    def _transition(self, reward=1.0, done=True):
        return Transition(
            state=np.zeros(3), action=0, reward=reward, done=done,
            value=0.0, log_prob=-0.5, action_mask=np.ones(2, dtype=bool),
        )

    def test_finalize_empty_raises(self):
        with pytest.raises(ValueError):
            RolloutBuffer().finalize()

    def test_finalize_shapes(self):
        buffer = RolloutBuffer()
        for _ in range(5):
            buffer.add(self._transition())
        batch = buffer.finalize()
        assert batch.states.shape == (5, 3)
        assert batch.action_masks.shape == (5, 2)

    def test_minibatch_iteration_covers_all(self):
        buffer = RolloutBuffer()
        for i in range(10):
            buffer.add(self._transition(reward=float(i)))
        batch = buffer.finalize()
        seen = 0
        for mini in RolloutBuffer.iter_minibatches(batch, 3, np.random.default_rng(0)):
            seen += len(mini.actions)
        assert seen == 10

    def test_advantage_normalization(self):
        buffer = RolloutBuffer()
        for i in range(8):
            buffer.add(self._transition(reward=float(i)))
        batch = buffer.finalize()
        minis = list(RolloutBuffer.iter_minibatches(batch, 8, np.random.default_rng(0)))
        assert abs(minis[0].advantages.mean()) < 1e-8


def act(policy, state, mask, rng, deterministic=False):
    """One state's ``(action, log_prob, value)`` through ``act_batch``."""
    masks = None if mask is None else np.atleast_2d(mask)
    actions, log_probs, values = policy.act_batch(
        np.atleast_2d(state), masks, [rng], deterministic=deterministic
    )
    if deterministic:
        return int(actions[0]), None, None
    return int(actions[0]), float(log_probs[0]), float(values[0])


def flat_policy(num_actions, favourite=None):
    """A policy whose logits are 0 everywhere, or 100 at ``favourite``."""
    policy = ActorCritic(2, num_actions, hidden_sizes=(4,), rng=np.random.default_rng(0))
    last = policy.actor.layer2
    last.weight.data = np.zeros_like(last.weight.data)
    last.bias.data = np.zeros_like(last.bias.data)
    if favourite is not None:
        last.bias.data[favourite] = 100.0
    return policy


class TestCategoricalMasked:
    def test_masked_actions_never_sampled(self):
        rng = np.random.default_rng(0)
        policy = flat_policy(4)
        mask = np.array([True, False, True, False])
        samples = {act(policy, np.ones(2), mask, rng)[0] for _ in range(100)}
        assert samples == {0, 2}

    def test_all_masked_raises(self):
        policy = flat_policy(3)
        with pytest.raises(ValueError):
            policy(np.ones((1, 2)), np.zeros((1, 3), dtype=bool))

    def test_mode_respects_mask(self):
        policy = flat_policy(2, favourite=0)
        mask = np.array([False, True])
        assert act(policy, np.ones(2), None, None, deterministic=True)[0] == 0
        assert act(policy, np.ones(2), mask, None, deterministic=True)[0] == 1

    def test_entropy_uniform(self):
        dist = CategoricalMasked(Tensor(np.zeros((1, 4))))
        assert dist.entropy().data[0] == pytest.approx(np.log(4))
        (log_probs, _), _ = flat_policy(4)(np.ones((1, 2)))
        assert -(np.exp(log_probs) * log_probs).sum() == pytest.approx(np.log(4))

    def test_log_prob_consistent(self):
        logits = Tensor(np.array([[1.0, 2.0, 3.0]]))
        dist = CategoricalMasked(logits)
        total = np.exp(dist.log_probs.data).sum()
        assert total == pytest.approx(1.0)
        assert np.array_equal(F.log_softmax(logits.data)[0], dist.log_probs.data)


class TestActorCritic:
    def test_act_deterministic_stable(self):
        rng = np.random.default_rng(0)
        policy = ActorCritic(4, 6, hidden_sizes=(16,), rng=rng)
        mask = np.ones(6, dtype=bool)
        a1, _, _ = act(policy, np.ones(4), mask, rng, deterministic=True)
        a2, _, _ = act(policy, np.ones(4), mask, rng, deterministic=True)
        assert a1 == a2

    def test_act_respects_mask(self):
        rng = np.random.default_rng(0)
        policy = ActorCritic(4, 6, hidden_sizes=(16,), rng=rng)
        mask = np.zeros(6, dtype=bool)
        mask[3] = True
        for _ in range(20):
            action, _, _ = act(policy, np.ones(4), mask, rng)
            assert action == 3

    def test_value_scalar(self):
        """A sampled step returns one value per state, the critic's."""
        policy = ActorCritic(4, 6, rng=np.random.default_rng(1))
        rngs = [np.random.default_rng(i) for i in range(3)]
        _, _, values = policy.act_batch(np.ones((3, 4)), None, rngs)
        assert values.shape == (3,) and values.dtype == np.float64
        critic, _ = policy.critic(np.ones((3, 4)))
        assert np.array_equal(values, critic.reshape(-1))


@st.composite
def greedy_steps(draw):
    """A policy seed, a batch of states and masks with a legal action per row."""
    rows = draw(st.integers(1, 8))
    actions = draw(st.integers(1, 9))
    states = draw(
        st.lists(st.floats(-5, 5), min_size=rows * 4, max_size=rows * 4).map(
            lambda xs: np.array(xs).reshape(rows, 4)
        )
    )
    row = st.lists(st.booleans(), min_size=actions, max_size=actions)
    masks = np.array(draw(st.lists(row, min_size=rows, max_size=rows)))
    legal = draw(st.lists(st.integers(0, actions - 1), min_size=rows, max_size=rows))
    masks[np.arange(rows), legal] = True
    return draw(st.integers(0, 2**16)), states, masks


class TestGreedyStep:
    """``act_batch(deterministic=True)`` runs only the masked actor logits."""

    @settings(max_examples=40, deadline=None)
    @given(step=greedy_steps())
    def test_actions_are_the_masked_mode(self, step):
        seed, states, masks = step
        policy = ActorCritic(4, masks.shape[1], hidden_sizes=(8,), rng=np.random.default_rng(seed))
        dist = CategoricalMasked(tape.sequential(tape.Leaves(policy), policy.actor, Tensor(states)), masks)
        mode = np.argmax(dist.logits.data, axis=-1)
        actions, log_probs, values = policy.act_batch(
            states, masks, [None] * len(states), deterministic=True
        )
        assert np.array_equal(actions, mode)
        assert log_probs is None and values is None

    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_infer_and_greedy_step_equal_the_taped_actor_bitwise(self, batch):
        """``Sequential.forward`` is the taped forward, bit for bit; the
        greedy step is the argmax of its masked logits."""
        rng = np.random.default_rng(batch)
        policy = ActorCritic(12, 7, hidden_sizes=(16, 16), rng=rng)
        for param in policy.parameters():  # off the init's scales: tanh saturates
            param.data = param.data + rng.normal(0.0, 0.5, size=param.data.shape)
        states = rng.normal(0.0, 3.0, size=(batch, 12))
        masks = rng.random((batch, 7)) < 0.5
        masks[:, 6] = True
        L = tape.Leaves(policy)
        for net in (policy.actor, policy.critic):
            taped = tape.sequential(L, net, Tensor(states)).data
            assert np.array_equal(net(states)[0], taped)
        logits = tape.sequential(L, policy.actor, Tensor(states)).data
        actions, log_probs, values = policy.act_batch(
            states, masks, [None] * batch, deterministic=True
        )
        assert np.array_equal(actions, np.argmax(np.where(masks, logits, -np.inf), axis=-1))
        assert log_probs is None and values is None

    @settings(max_examples=20, deadline=None)
    @given(step=greedy_steps(), row=st.integers(0, 7))
    def test_a_row_without_legal_actions_raises(self, step, row):
        seed, states, masks = step
        masks[row % len(masks)] = False
        policy = ActorCritic(4, masks.shape[1], hidden_sizes=(8,), rng=np.random.default_rng(seed))
        with pytest.raises(ValueError, match="at least one action"):
            policy.act_batch(states, masks, [None] * len(states), deterministic=True)

    def test_rollout_buffer_refuses_greedy_transitions(self):
        buffer = RolloutBuffer()
        mask = np.ones(2, dtype=bool)
        with pytest.raises(ValueError, match="greedy"):
            buffer.add(Transition(np.ones(2), 0, 1.0, True, None, None, mask))
        assert len(buffer) == 0


class TestSampledStep:
    """``act_batch`` without ``deterministic`` is the taped policy: the
    masked logits, log-probs and values of the tape's forward, and the
    Gumbel-max draw of row ``i`` from ``rngs[i]``."""

    @staticmethod
    def draw(batch):
        rng = np.random.default_rng(100 + batch)
        policy = ActorCritic(12, 7, hidden_sizes=(16, 16), rng=rng)
        for param in policy.parameters():  # off the init's scales
            param.data = param.data + rng.normal(0.0, 0.5, size=param.data.shape)
        states = rng.normal(0.0, 3.0, size=(batch, 12))
        masks = rng.random((batch, 7)) < 0.5
        masks[:, 3] = True
        return policy, states, masks

    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_sampled_step_equals_the_taped_forward_bitwise(self, batch):
        policy, states, masks = self.draw(batch)
        actions, log_probs, values = policy.act_batch(
            states, masks, [np.random.default_rng(i) for i in range(batch)]
        )
        dist, taped_values = tape.actor_critic(tape.Leaves(policy), policy, Tensor(states), masks)
        assert dist.logits.requires_grad  # the reference really is the tape
        noise = np.stack([np.random.default_rng(i).gumbel(size=7) for i in range(batch)])
        want = np.argmax(dist.logits.data + noise, axis=-1)
        assert np.array_equal(actions, want)
        assert masks[np.arange(batch), actions].all()
        assert np.array_equal(log_probs, dist.log_prob(want).data)
        assert np.array_equal(values, taped_values.data)

    def test_log_softmax_array_is_the_taped_log_softmax(self):
        logits = np.random.default_rng(5).normal(0.0, 30.0, size=(9, 11))
        taped = tape.log_softmax(Tensor(logits, requires_grad=True)).data
        assert np.array_equal(F.log_softmax(logits)[0], taped)


class TestPPOLearning:
    def test_contextual_bandit(self):
        """PPO must learn a state-dependent optimal action."""
        rng = np.random.default_rng(0)
        policy = ActorCritic(2, 2, hidden_sizes=(32,), rng=rng)
        trainer = PPOTrainer(policy, PPOConfig(lr=5e-3, epochs=4, minibatch_size=32), rng=rng)
        mask = np.ones(2, dtype=bool)
        for _ in range(25):
            buffer = trainer.make_buffer()
            for _ in range(64):
                context = int(rng.integers(2))
                state = np.eye(2)[context]
                action, log_prob, value = act(policy, state, mask, rng)
                reward = 1.0 if action == context else 0.0
                buffer.add(Transition(state, action, reward, True, value, log_prob, mask))
            trainer.update(buffer.finalize())
        for context in (0, 1):
            action, _, _ = act(policy, np.eye(2)[context], mask, rng, deterministic=True)
            assert action == context

    def test_kl_early_stop_reports(self):
        rng = np.random.default_rng(0)
        policy = ActorCritic(2, 2, hidden_sizes=(8,), rng=rng)
        trainer = PPOTrainer(policy, PPOConfig(lr=0.5, epochs=10, minibatch_size=8, target_kl=1e-4), rng=rng)
        buffer = trainer.make_buffer()
        mask = np.ones(2, dtype=bool)
        for _ in range(32):
            action, log_prob, value = act(policy, np.ones(2), mask, rng)
            buffer.add(Transition(np.ones(2), action, rng.random(), True, value, log_prob, mask))
        stats = trainer.update(buffer.finalize())
        # The huge lr should trip the KL guard before all epochs finish.
        assert stats["updates"] < 10 * 4


@settings(max_examples=30, deadline=None)
@given(
    gamma=st.floats(min_value=0.5, max_value=0.999),
    rewards=st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=12),
)
def test_gae_zero_when_values_perfect(gamma, rewards):
    """If values equal the true returns, advantages vanish (lam=1)."""
    rewards = np.array(rewards)
    n = len(rewards)
    dones = np.zeros(n)
    dones[-1] = 1.0
    returns = np.zeros(n)
    acc = 0.0
    for i in range(n - 1, -1, -1):
        acc = rewards[i] + gamma * acc
        returns[i] = acc
    adv, _ = compute_gae(rewards, returns, dones, gamma=gamma, lam=1.0)
    np.testing.assert_allclose(adv, 0.0, atol=1e-9)
