"""Training is pinned to the bit: a crc32 over every trained parameter.

Both pins were computed with the autograd tape, before gradients became
hand-written pullbacks; any change to a pullback, a loss, the optimizer or
the order in which gradients are added moves them.  They are never
re-pinned to make a change pass: a moved hash is a changed training run.
"""

import zlib

import numpy as np

from repro.baselines.value_model import ValueModel
from repro.core.aam import AAMConfig
from repro.core.trainer import FossConfig, FossTrainer


def parameter_crc(modules) -> str:
    """crc32 over every parameter's bytes, module by module, in name order."""
    crc = 0
    for module in modules:
        for name, param in module.named_parameters():
            crc = zlib.crc32(name.encode(), crc)
            crc = zlib.crc32(np.ascontiguousarray(param.data).tobytes(), crc)
    return f"{crc:08x}"


def test_foss_train_two_iterations_parameter_hash(job_workload):
    """AAM training (bootstrap and retrains) and PPO updates of two agents,
    with a two-layer state network, over two iterations."""
    config = FossConfig(
        max_steps=3,
        episodes_per_update=12,
        bootstrap_episodes=8,
        aam_retrain_threshold=10,
        random_sample_episodes=2,
        validation_budget=10,
        num_agents=2,
        seed=5,
        aam=AAMConfig(
            d_model=24, d_embed=8, d_state=20, num_heads=2, num_layers=2, ff_hidden=40, epochs=1
        ),
    )
    trainer = FossTrainer(job_workload, config)
    stats = trainer.train(2)
    assert trainer.aam.version >= 2  # the AAM trained more than once
    assert all(planner.ppo.optimizer._t > 0 for planner in trainer.planners)
    assert len(stats) == 2
    modules = [trainer.aam] + [planner.policy for planner in trainer.planners]
    assert parameter_crc(modules) == PIN_FOSS_TRAIN_2


def test_value_model_fit_parameter_hash():
    rng = np.random.default_rng(11)
    model = ValueModel(12, rng=np.random.default_rng(3))
    for _ in range(150):
        features = rng.uniform(-1.0, 1.0, size=12)
        model.add_sample(features, float(np.exp(2.0 + features[:3].sum())))
    model.fit(epochs=4, minibatch=32)
    assert parameter_crc([model.network]) == PIN_VALUE_FIT


PIN_FOSS_TRAIN_2 = "ed2e45c4"
PIN_VALUE_FIT = "567dbf1f"
