"""Doctor-like plans for a query, shared by the executor and SQLite tests.

The plans a FOSS episode reaches: the expert's own, a short run of the
planner's swap / override edits of it, and a full shuffle with random
operators.
"""

from repro.optimizer.plans import JOIN_METHODS


def doctor_like_plans(database, query, rng):
    """The expert's plan, a 1-3 step swap / override edit of it, and a full
    shuffle with random operators (which brings cross joins)."""
    expert = database.plan(query).plan
    order, methods = list(expert.aliases), list(expert.methods)
    edited_order, edited_methods = list(order), list(methods)
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.5:
            i, j = rng.choice(len(order), size=2, replace=False)
            edited_order[i], edited_order[j] = edited_order[j], edited_order[i]
        else:
            edited_methods[int(rng.integers(len(methods)))] = JOIN_METHODS[int(rng.integers(3))]
    shuffled = list(order)
    rng.shuffle(shuffled)
    random_methods = [JOIN_METHODS[int(rng.integers(3))] for _ in methods]
    space = database.enumerator.join_space(query)  # fresh: leaves the shared fixture's caches alone
    return [
        expert,
        space.complete(edited_order, edited_methods),
        space.complete(shuffled, random_methods),
    ]
