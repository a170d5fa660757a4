"""Sieve's own metamorphic relations, on one long-lived warm Sieve.

Policy inserts, deletes, revocations to empty and re-grants interleave
with reads of every querier through ``Sieve.serve``, so each read meets
the guard tier and the plan cache in whatever state the writes before
it left them.  No oracle of the admitted rows is needed:

* an insert never removes a row from anyone's answer, and a delete
  never adds one;
* a querier revoked to empty reads nothing of the protected relation —
  under ``WHERE``, ``JOIN``, an aggregate and a scalar subquery;
* every answer equals a new Sieve's on the same store at the same epoch;
* a re-grant after a revoke maintains the held guarded expression (same
  rGE row, nothing regenerated) instead of selecting guards afresh.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import connect
from repro.core import Sieve
from repro.policy import GroupDirectory, ObjectCondition, Policy, PolicyStore
from repro.storage.schema import ColumnType, Schema

PURPOSE = "analytics"
QUERIERS = ("ann", "ben", "cat")
OWNERS = 6
QUERIES = {
    "where": "SELECT id, v FROM t WHERE v < 60",
    "join": "SELECT t.id, u.label FROM t JOIN u ON t.owner = u.owner WHERE t.v >= 10",
    "aggregate": "SELECT COUNT(*), SUM(v), MIN(v) FROM t",
    "subquery": "SELECT u.owner, (SELECT COUNT(*) FROM t WHERE t.owner = u.owner) AS n FROM u",
}


def _world():
    db = connect("mysql")
    db.create_table("t", Schema.of(("id", ColumnType.INT), ("owner", ColumnType.INT), ("v", ColumnType.INT)))
    db.insert("t", [(i, i % OWNERS, (i * 37) % 100) for i in range(72)])
    db.create_table("u", Schema.of(("owner", ColumnType.INT), ("label", ColumnType.VARCHAR)))
    db.insert("u", [(owner, f"shop-{owner}") for owner in range(OWNERS)])
    db.create_index("t", "owner")
    db.create_index("t", "v")
    db.analyze()
    return db, PolicyStore(db, GroupDirectory())


def _grant(querier, rng):
    owner = rng.randrange(OWNERS)
    conditions = [ObjectCondition("owner", "=", owner)]
    if rng.random() < 0.5:
        low = rng.randrange(80)
        conditions.append(ObjectCondition("v", ">=", low, "<=", low + rng.randrange(10, 40)))
    return Policy(owner=owner, querier=querier, purpose=PURPOSE, table="t", object_conditions=tuple(conditions))


def _answers(sieve):
    """Every querier's answer to every query, as multisets, the epoch
    they were planned at, and the queriers whose guards a read selected
    afresh."""
    answers, epochs, regenerated = {}, set(), set()
    for querier in QUERIERS:
        for name, sql in QUERIES.items():
            execution = sieve.serve(sql, querier, PURPOSE)
            answers[querier, name] = Counter(execution.result.rows)
            epochs.add(execution.policy_epoch)
            if execution.regenerated_tables:
                regenerated.add(querier)
    assert len(epochs) == 1
    return answers, epochs.pop(), regenerated


def _admitted(answer, name):
    """What a query's answer shows of the protected relation, as a
    multiset that only grows with what a querier may see: the rows, the
    count of an aggregate, a scalar subquery's counts per outer row."""
    if name == "aggregate":
        ((count, _sum, _min),) = answer
        return Counter({"rows": count})
    if name == "subquery":
        return Counter({owner: n for owner, n in answer})
    return answer


def _assert_empty(answers, querier):
    assert answers[querier, "where"] == Counter()
    assert answers[querier, "join"] == Counter()
    assert answers[querier, "aggregate"] == Counter({(0, None, None): 1})
    assert answers[querier, "subquery"] == Counter({(owner, 0): 1 for owner in range(OWNERS)})


@pytest.mark.parametrize("seed", [3, 11])
def test_writes_move_answers_one_way_on_a_warm_sieve(seed):
    rng = random.Random(seed)
    db, store = _world()
    for querier in QUERIERS:
        for _ in range(3):
            store.insert(_grant(querier, rng))
    sieve = Sieve(db, store)
    before, _epoch, _regenerated = _answers(sieve)
    revoked: dict[str, int] = {}  # querier -> rGE id of the expression held across its revoke
    for step in range(24):
        querier = rng.choice(QUERIERS)
        held = store.policies_for(querier, PURPOSE, "t")
        if querier in revoked:
            kind = "insert"  # the re-grant
        elif step % 6 == 5 and held:
            kind = "revoke"
        else:
            kind = "delete" if held and rng.random() < 0.4 else "insert"
        if kind == "insert":
            store.insert(_grant(querier, rng))
        elif kind == "delete":
            store.delete(rng.choice(held).id)
        else:
            revoked[querier] = sieve.guard_store.peek(querier, PURPOSE, "t").created_at
            for policy in held:
                store.delete(policy.id)

        after, epoch, regenerated = _answers(sieve)
        for (who, name), answer in after.items():
            was, now = _admitted(before[who, name], name), _admitted(answer, name)
            if kind == "insert":
                assert now & was == was, (step, kind, who, name)  # nothing removed
            else:
                assert now | was == was, (step, kind, who, name)  # nothing added
        if kind == "revoke":
            _assert_empty(after, querier)
        elif querier in revoked:  # re-granted
            assert querier not in regenerated
            assert sieve.guard_store.peek(querier, PURPOSE, "t").created_at == revoked.pop(querier)
        assert store.epoch == epoch
        fresh, fresh_epoch, _regenerated = _answers(Sieve(db, store))
        assert (fresh, fresh_epoch) == (after, epoch), step
        before = after
