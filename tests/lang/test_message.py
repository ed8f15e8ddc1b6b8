"""Unit tests for message uids and the message model."""

import heapq

import pytest
from hypothesis import given, strategies as st

from repro.errors import IRError
from repro.lang.interpreter import _cap_taint
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid, UidFactory


class TestUidFactory:
    def test_sequence_is_monotonic(self):
        f = UidFactory("10.0.0.1", 3)
        uids = [f.next_uid() for _ in range(5)]
        assert [u.seq for u in uids] == [1, 2, 3, 4, 5]
        assert all(u.address == "10.0.0.1" and u.process_id == 3 for u in uids)

    def test_independent_factories(self):
        a, b = UidFactory("h1", 1), UidFactory("h2", 2)
        assert a.next_uid() != b.next_uid()

    def test_requires_address(self):
        with pytest.raises(IRError):
            UidFactory("", 1)


class TestMessageUid:
    def test_equality_and_hash(self):
        u1 = MessageUid("h", 1, 5)
        u2 = MessageUid("h", 1, 5)
        assert u1 == u2
        assert hash(u1) == hash(u2)

    def test_ordering_is_total(self):
        uids = [MessageUid("b", 1, 1), MessageUid("a", 2, 9), MessageUid("a", 1, 3)]
        assert sorted(uids)[0] == MessageUid("a", 1, 3)

    def test_str_format(self):
        assert str(MessageUid("h", 2, 7)) == "h/2#7"

    def test_key_is_the_ordered_triple(self):
        uid = MessageUid("h", 2, 7)
        assert uid.key == ("h", 2, 7)
        assert hash(uid) == hash(uid.key)


#: Multi-sender taint sets: a few hosts x processes, sequence numbers
#: that interleave across senders.
_uids = st.builds(
    MessageUid,
    st.sampled_from(["10.0.0.1", "10.0.0.2", "fe-3", "hub"]),
    st.integers(0, 4),
    st.integers(0, 200),
)


class TestKeyedTaintCap:
    @given(st.frozensets(_uids, max_size=80), st.integers(1, 40))
    def test_keyed_cap_equals_rich_comparison_cap(self, taint, limit):
        """Keying nlargest on the stored tuple keeps exactly the set the
        uids' own ordering keeps."""
        expected = taint if len(taint) <= limit else frozenset(heapq.nlargest(limit, taint))
        assert _cap_taint(taint, limit) == expected


class TestMessage:
    def test_with_causes(self):
        uid = MessageUid("h", 1, 1)
        cause = MessageUid("h", 1, 2)
        m = Message(uid, "go", EXTERNAL, "A", {"x": 1})
        m2 = m.with_causes(frozenset({cause}))
        assert m2.cause_uids == frozenset({cause})
        assert m2.uid == m.uid
        assert m.cause_uids == frozenset()

    def test_defaults(self):
        m = Message(MessageUid("h", 1, 1), "go", EXTERNAL, "A")
        assert m.sampled is True
        assert m.root_uid is None
        assert dict(m.fields) == {}

    def test_str(self):
        m = Message(MessageUid("h", 1, 1), "go", "A", CLIENT)
        assert "go" in str(m)
        assert "A" in str(m)
