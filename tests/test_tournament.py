"""The multi-agent tournament (paper Fig. 1): the pure fold and served plans.

:func:`repro.core.inference.decide` folds one query's pairwise AAM verdicts
to its winner; the property below holds it to the rule written out here.
The digests pin what a bootstrapped 2-, 3- and 4-agent optimizer serves
over every JOB and Stack query, so a change to how the tournament's
requests are built or read shows as a changed plan.
"""

import zlib
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.inference import decide
from repro.core.trainer import FossTrainer
from repro.optimizer.plans import plan_signature

from test_batching import batching_config


def reference_winner(count, verdicts):
    """The winner so far meets each later challenger, yielding on a verdict > 0."""
    pairs = list(combinations(range(count), 2))
    winner = 0
    for challenger in range(1, count):
        if verdicts[pairs.index((winner, challenger))] > 0:
            winner = challenger
    return winner


@st.composite
def tournaments(draw):
    count = draw(st.integers(1, 4))
    pairs = count * (count - 1) // 2
    return count, draw(st.lists(st.sampled_from([0, 1, 2]), min_size=pairs, max_size=pairs))


@settings(max_examples=300, deadline=None)
@given(tournaments())
def test_decide_is_the_temporal_fold(tournament):
    count, verdicts = tournament
    assert decide(count, verdicts) == reference_winner(count, verdicts)


# crc32 of the served (plan_signature, chosen_step) list over train + test,
# per (workload fixture, agents); every finalist position wins somewhere.
SERVED_DIGESTS = {
    ("job_workload", 2): 0x799E4B01,
    ("job_workload", 3): 0xAEA31FD2,
    ("job_workload", 4): 0xEDDFA5FC,
    ("stack_workload", 2): 0xB2B06082,
    ("stack_workload", 3): 0x057BF6D0,
    ("stack_workload", 4): 0xBCA1A978,
}


@pytest.mark.parametrize("fixture, agents", sorted(SERVED_DIGESTS))
def test_served_tournament_digest(request, fixture, agents):
    workload = request.getfixturevalue(fixture)
    trainer = FossTrainer(workload, batching_config(num_agents=agents))
    trainer.bootstrap()
    served = trainer.make_optimizer().optimize_many(
        [wq.query for wq in workload.train + workload.test]
    )
    digest = zlib.crc32(repr([(plan_signature(r.plan), r.chosen_step) for r in served]).encode())
    assert digest == SERVED_DIGESTS[(fixture, agents)], f"{digest:#010x}"
