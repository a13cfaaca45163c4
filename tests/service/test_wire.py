"""The wire stack under the campaign service and the agents.

A client that stalls inside its request body, or trickles it, must not
hold a server thread: both servers drop it within the handler's timeout
and keep answering everyone else.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from repro.service import wire
from repro.service.agent import AgentServer, CampaignAgent
from repro.service.client import ServiceClient
from repro.service.server import CampaignServer, CampaignService

#: Read timeout of the servers under test (production: ``wire.IO_TIMEOUT``).
TIMEOUT = 1.0


@pytest.fixture(autouse=True)
def _short_timeout(monkeypatch):
    monkeypatch.setattr(wire._Handler, "timeout", TIMEOUT)


def seconds_until_dropped(address, path: bytes) -> float:
    """Promise a 100-byte body, send 4 bytes of it and wait for the close."""
    with socket.create_connection(address, timeout=TIMEOUT + 10) as sock:
        sock.sendall(b"POST " + path + b' HTTP/1.1\r\nContent-Length: 100\r\n\r\n{"id')
        started = time.monotonic()
        assert sock.recv(4096) == b""  # closed unanswered
        return time.monotonic() - started


def seconds_until_trickle_dropped(address, path: bytes, meanwhile) -> float:
    """Promise a 100-byte body, call ``meanwhile``, then send one byte of
    the body every half timeout; wait at most 10 timeouts for the close
    (the whole body would take 50)."""
    with socket.create_connection(address, timeout=TIMEOUT / 2) as sock:
        sock.sendall(b"POST " + path + b" HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
        started = time.monotonic()
        meanwhile()
        while time.monotonic() - started < 10 * TIMEOUT:
            try:
                sock.sendall(b" ")
                if sock.recv(4096) == b"":  # closed unanswered
                    break
            except socket.timeout:
                continue
            except OSError:  # reset: the server closed with bytes unread
                break
        return time.monotonic() - started


def test_service_drops_a_stalled_request_body(tmp_path):
    service = CampaignService(str(tmp_path / "root"))
    server = CampaignServer(service)
    host, port = server.start()
    try:
        assert seconds_until_dropped((host, port), b"/submit") < TIMEOUT + 4
        assert ServiceClient(host, port).health()["ok"] is True
    finally:
        service.close()
        server.stop()


def test_agent_drops_a_stalled_request_body(tmp_path):
    server = AgentServer(CampaignAgent(workdir=str(tmp_path / "agent")))
    host, port = server.start()
    try:
        assert seconds_until_dropped((host, port), b"/run") < TIMEOUT + 4
        (line,) = wire.request(host, port, "POST", "/cancel", {"id": "nope"})
        assert json.loads(line)["error"]["kind"] == "unknown-job"
    finally:
        server.stop()


def test_service_drops_a_trickling_request_body(tmp_path):
    """Each byte arrives within the read timeout, but the body as a whole
    must arrive by one deadline; ``/health`` answers while it trickles."""
    service = CampaignService(str(tmp_path / "root"))
    server = CampaignServer(service)
    host, port = server.start()
    client = ServiceClient(host, port)
    try:
        healthy = []
        seconds = seconds_until_trickle_dropped(
            (host, port), b"/submit", lambda: healthy.append(client.health()["ok"])
        )
        assert seconds < TIMEOUT + 4
        assert healthy == [True]
        assert client.health()["ok"] is True
    finally:
        service.close()
        server.stop()
