import pytest

from ibac import wire


@pytest.fixture
def wire_trace():
    """``wire_trace(sim)`` makes every record ``sim`` puts on a link encode
    to bytes that decode to an equal record, and returns the list it fills
    with ``(time, sender, receiver, bytes)`` for each send."""

    def attach(sim) -> list:
        trace = []
        send = sim._send

        def tracing_send(rt, iface, message, t):
            data = wire.encode_message(message)
            assert wire.decode_message(data) == message
            trace.append((t, rt.node_id, rt.ifaces[iface][0].node_id, data))
            send(rt, iface, message, t)

        sim._send = tracing_send
        return trace

    return attach
