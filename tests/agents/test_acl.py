"""Tests for ACL messages."""

import pytest

from repro.agents.acl import ACLMessage, Performative, split_aid


def test_split_aid():
    assert split_aid("ma1@host1") == ("ma1", "host1")


@pytest.mark.parametrize("bad", ["noat", "@host", "name@", ""])
def test_split_aid_rejects_malformed(bad):
    with pytest.raises(ValueError):
        split_aid(bad)


def test_performative_from_string():
    msg = ACLMessage(performative="inform")
    assert msg.performative is Performative.INFORM


def test_add_receiver_validates():
    msg = ACLMessage(Performative.REQUEST)
    msg.add_receiver("aa@host2")
    assert msg.receivers == ["aa@host2"]
    with pytest.raises(ValueError):
        msg.add_receiver("nohost")


def test_create_reply_threads_conversation():
    request = ACLMessage(Performative.REQUEST, sender="aa@h1",
                         conversation_id="conv-7", reply_with="rw-3",
                         protocol="migration")
    reply = request.create_reply(Performative.AGREE, content="ok")
    assert reply.receivers == ["aa@h1"]
    assert reply.conversation_id == "conv-7"
    assert reply.in_reply_to == "rw-3"
    assert reply.protocol == "migration"
    assert reply.content == "ok"


def test_reply_without_sender_rejected():
    with pytest.raises(ValueError):
        ACLMessage(Performative.INFORM).create_reply(Performative.AGREE)


class TestMatches:
    def make(self):
        return ACLMessage(Performative.INFORM, sender="ma@h1",
                          conversation_id="c1", in_reply_to="r1",
                          protocol="sync")

    def test_match_all_fields(self):
        assert self.make().matches(performative=Performative.INFORM,
                                   sender="ma@h1", conversation_id="c1",
                                   in_reply_to="r1", protocol="sync")

    def test_empty_template_matches(self):
        assert self.make().matches()

    @pytest.mark.parametrize("kwargs", [
        {"performative": Performative.REQUEST},
        {"sender": "other@h9"},
        {"conversation_id": "nope"},
        {"in_reply_to": "nope"},
        {"protocol": "nope"},
    ])
    def test_mismatches(self, kwargs):
        assert not self.make().matches(**kwargs)


def test_copy_is_deep_for_receivers():
    msg = ACLMessage(Performative.INFORM, receivers=["a@h"])
    clone = msg.copy()
    clone.receivers.append("b@h")
    assert msg.receivers == ["a@h"]
