"""Property-based tests: the hub tier is a pure function of table and flags.

For random calibrated tables, allowed-tier lists (in any order, with
unknown names mixed in) and ledgers of observed runs, the chosen tier
must be the table entry when it is allowed, else the most preferred
allowed tier — and no observed run, however fast or slow, may move it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hub.costmodel import TIER_PREFERENCE, CostModel

KEYS = ("fp:a", "fp:b", "shape:c")
NAMES = TIER_PREFERENCE + ("gpu",)

tables = st.dictionaries(st.sampled_from(KEYS), st.sampled_from(NAMES))
allowed_lists = st.lists(st.sampled_from(NAMES), unique=True).flatmap(
    st.permutations
)
observations = st.lists(
    st.tuples(
        st.sampled_from(KEYS),
        st.sampled_from(TIER_PREFERENCE),
        st.floats(min_value=0.0, max_value=10.0),
        st.integers(min_value=0, max_value=100_000),
    ),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(tables, allowed_lists, observations, st.sampled_from(KEYS))
def test_choice_is_the_table_rule_and_ignores_the_ledger(
    table, allowed, runs, key
):
    model = CostModel(table=table)
    before = model.selection(key, allowed)
    for run in runs:
        model.observe(*run)
    assert model.selection(key, allowed) == before
    known = [tier for tier in TIER_PREFERENCE if tier in allowed]
    if not known:
        assert before is None
    elif table.get(key) in known:
        assert before == table[key]
    else:
        assert before == known[0]
