"""Parity between the two ordered maps that share a node-handle API.

The interval tree's red-black tree and the data plane's blocked sorted
array both offer ``find_node``, ``insert_absent``, ``remove_node`` and
an in-order ``nodes()`` walk.  Random op sequences over that shared
surface leave both with identical observable state.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import sortedarray
from repro.store.rbtree import RBTree
from repro.store.sortedarray import SortedArrayMap


class TestImplementationParity:
    """Random op sequences leave both maps identical, by property."""

    keys = st.text(alphabet="abc01|", min_size=0, max_size=5)
    ops = st.lists(
        st.tuples(st.sampled_from(["insert", "remove", "find"]), keys),
        min_size=1,
        max_size=120,
    )

    @settings(max_examples=150, deadline=None)
    @given(ops)
    def test_random_op_sequences_identical(self, sequence):
        # Two-key blocks make the sorted array split and empty blocks.
        with mock.patch.object(sortedarray, "LOAD", 2):
            rb, sa = RBTree(), SortedArrayMap()
            for step, (op, key) in enumerate(sequence):
                if op == "insert":
                    n1, c1 = rb.insert_absent(key, step)
                    n2, c2 = sa.insert_absent(key, step)
                    assert c1 == c2
                    assert (n1.key, n1.value) == (n2.key, n2.value)
                else:
                    n1, n2 = rb.find_node(key), sa.find_node(key)
                    assert (n1 is None) == (n2 is None)
                    if n1 is not None:
                        assert (n1.key, n1.value) == (n2.key, n2.value)
                        if op == "remove":
                            rb.remove_node(n1)
                            sa.remove_node(n2)
                assert len(rb) == len(sa)
            sa.check_invariants()
            rb.check_invariants()
            assert [(n.key, n.value) for n in rb.nodes()] == [
                (n.key, n.value) for n in sa.nodes()
            ]
