"""Tests for the completion clients, token accounting, retries, and caching."""

import datetime
import http.client
import http.server
import ipaddress
import json
import math
import select
import socket
import ssl
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import ragfuse.cli as cli
from conftest import FIXTURES, make_passage, make_question, run_python, spy_backend, write_config
from ragfuse.llm import (
    BudgetError,
    CompletionRequest,
    LiveClient,
    ResponseCache,
    RuleClient,
    RuleError,
    ScriptClient,
    ScriptError,
    MAX_TOKEN_COUNT,
    TransportError,
    count_tokens,
    load_script,
)
from ragfuse.corpus import CorpusError, load_questions
from ragfuse.prompts import render_closed_book, render_concatenation

QUESTION = make_question("q1", "what color is the harbor light", ("green", "harbor green"))
PASSAGES = [
    make_passage("a#0", "the harbor light shines green over the mole", title="Harbor"),
    make_passage("b#0", "fishing boats leave before dawn", title="Boats"),
]


def test_count_tokens_is_a_whitespace_split():
    assert count_tokens("a b  c") == 3
    assert count_tokens("") == 0
    assert count_tokens("  leading and trailing  ") == 3


@given(st.text() | st.text(st.characters(max_codepoint=0x7F)))
# ASCII text is counted through a byte table; U+001C-U+001F are separators
# that str.split() splits on but bytes.split() does not. U+0085, U+00A0 and
# U+3000 are separators outside ASCII.
@example("")
@example("a\x1cb\x1dc\x1ed\x1fe")
@example("\x1c\x1d \x1e\x1f")
@example("a\x85b")
@example("a\u00a0b")
@example("a\u3000b")
@example("\t\n\x0b\x0c\r word \x7f")
def test_count_tokens_equals_the_length_of_a_whitespace_split(text):
    assert count_tokens(text) == len(text.split())


def test_count_tokens_additive_over_space_join():
    left, right = "one two three", "four five"
    assert count_tokens(f"{left} {right}") == count_tokens(left) + count_tokens(right)


def rule_client(**kwargs) -> RuleClient:
    return RuleClient([QUESTION], **kwargs)


def test_rule_client_returns_first_alias_found_in_passages():
    client = rule_client()
    prompt = render_concatenation(PASSAGES, QUESTION)
    response = client.complete(CompletionRequest(prompt_text=prompt))
    assert response.text == "green"
    assert response.prompt_tokens == count_tokens(prompt)
    assert response.completion_tokens == 1


def test_rule_client_alias_order_beats_passage_order():
    question = make_question("q1", "what color is the harbor light", ("harbor green", "green"))
    client = RuleClient([question])
    # "harbor green" is not in any passage, "green" is: the second alias wins,
    # but only after the first alias misses everywhere.
    response = client.complete(
        CompletionRequest(prompt_text=render_concatenation(PASSAGES, question))
    )
    assert response.text == "green"


def test_rule_client_answers_sentinel_when_no_alias_present():
    client = rule_client()
    prompt = render_concatenation([PASSAGES[1]], QUESTION)
    assert client.complete(CompletionRequest(prompt_text=prompt)).text == "unknown"


def test_rule_client_matches_case_insensitively_across_title():
    question = make_question("q1", "what color is the harbor light", ("HARBOR",))
    client = RuleClient([question])
    prompt = render_concatenation(PASSAGES, question)
    assert client.complete(CompletionRequest(prompt_text=prompt)).text == "HARBOR"


def test_rule_client_is_pure():
    client = rule_client()
    request = CompletionRequest(prompt_text=render_concatenation(PASSAGES, QUESTION))
    assert client.complete(request) == client.complete(request)


def test_rule_client_rejects_unregistered_question():
    client = rule_client()
    other = make_question("q2", "something else entirely", ("x",))
    with pytest.raises(RuleError, match="not registered"):
        client.complete(CompletionRequest(prompt_text=render_concatenation(PASSAGES, other)))


def test_rule_client_answers_each_question_against_its_own_gold():
    # q1 and q2 share their text; the request's question id decides the gold.
    first = make_question("q1", "who built it", ("alice",))
    second = make_question("q2", "who built it", ("bob",))
    client = RuleClient([first, second])
    passages = [make_passage("a#0", "bob and alice built the tower together")]
    prompt = render_concatenation(passages, first)
    for question, gold in ((first, "alice"), (second, "bob")):
        request = CompletionRequest(prompt_text=prompt, question_id=question.question_id)
        assert client.complete(request).text == gold
    with pytest.raises(RuleError, match="not registered"):
        client.complete(CompletionRequest(prompt_text=prompt, question_id="q3"))


def test_rule_client_rejects_shared_text_without_an_id():
    first = make_question("q1", "who built it", ("alice",))
    twin = make_question("q1b", "who built it", ("alice",))
    passages = [make_passage("a#0", "bob and alice built the tower together")]
    request = CompletionRequest(prompt_text=render_concatenation(passages, first))
    # a text shared with the same gold answers is still unambiguous
    assert RuleClient([first, twin]).complete(request).text == "alice"
    second = make_question("q2", "who built it", ("bob",))
    with pytest.raises(RuleError, match="shared by different gold answers"):
        RuleClient([first, second]).complete(request)


def test_rule_client_rejects_prompt_without_question():
    with pytest.raises(RuleError, match="question"):
        rule_client().complete(CompletionRequest(prompt_text="no structure here"))


def test_closed_book_prompt_reaches_rule_client():
    # template round-trip: the rule backend parses the closed-book prompt too
    client = rule_client()
    response = client.complete(CompletionRequest(prompt_text=render_closed_book(QUESTION)))
    assert response.text == "unknown"  # no passages to find an alias in


def test_budget_enforced_before_responding():
    client = rule_client(max_prompt_tokens=5)
    reached = spy_backend(client)
    with pytest.raises(BudgetError, match="over the budget"):
        client.complete(CompletionRequest(prompt_text="one two three four five six"))
    assert reached == []


def test_empty_prompt_rejected():
    with pytest.raises(ValueError):
        rule_client().complete(CompletionRequest(prompt_text="   "))


def test_every_complete_call_reaches_the_backend_once():
    client = rule_client()
    reached = spy_backend(client)
    request = CompletionRequest(prompt_text=render_concatenation(PASSAGES, QUESTION))
    response = client.complete(request)
    assert reached == [request]
    assert response.prompt_tokens == count_tokens(request.prompt_text)
    assert response.completion_tokens == count_tokens(response.text)


def test_script_client_looks_up_by_question_and_exchange():
    client = ScriptClient({("q1", "concat"): "unknown"})
    response = client.complete(
        CompletionRequest(prompt_text="x", question_id="q1", exchange_key="concat")
    )
    assert response.text == "unknown"


def test_script_client_missing_key_is_an_error():
    client = ScriptClient({("q1", "concat"): "a"})
    with pytest.raises(ScriptError, match="no scripted response"):
        client.complete(CompletionRequest(prompt_text="x", question_id="q1", exchange_key="pf:0"))


def test_script_client_requires_request_metadata():
    client = ScriptClient({("q1", "concat"): "a"})
    with pytest.raises(ScriptError, match="question_id and exchange_key"):
        client.complete(CompletionRequest(prompt_text="x"))


def test_load_script_round_trip(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text(
        '{"question_id": "q1", "exchange_key": "concat", "response": "unknown"}\n'
        '{"question_id": "q1", "exchange_key": "pf:0", "response": "Paris"}\n',
        encoding="utf-8",
    )
    assert load_script(path) == {("q1", "concat"): "unknown", ("q1", "pf:0"): "Paris"}


def test_load_script_errors_name_lines(tmp_path):
    path = tmp_path / "script.jsonl"
    path.write_text('{"question_id": "q1", "exchange_key": "concat"}\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=r":1: missing field 'response'"):
        load_script(path)
    path.write_text(
        '{"question_id": "q1", "exchange_key": "concat", "response": "a"}\n'
        '{"question_id": "q1", "exchange_key": "concat", "response": "b"}\n',
        encoding="utf-8",
    )
    with pytest.raises(CorpusError, match=r":2: duplicate"):
        load_script(path)


# ---------------------------------------------------------------------------
# Live client against a fake transport


def ok_body(text: str, usage: dict | None = None) -> dict:
    body = {"choices": [{"message": {"content": text}}]}
    if usage is not None:
        body["usage"] = usage
    return body


def make_transport(outcomes):
    """Transport returning each outcome in turn; records payloads and sleeps."""
    calls: list[dict] = []

    def transport(payload: dict):
        calls.append(payload)
        outcome = outcomes[min(len(calls) - 1, len(outcomes) - 1)]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return transport, calls


def live_client(outcomes, **kwargs) -> tuple[LiveClient, list, list]:
    transport, calls = make_transport(outcomes)
    sleeps: list[float] = []
    client = LiveClient(
        endpoint="http://example.invalid/v1/chat/completions",
        model="test-model",
        transport=transport,
        sleep=sleeps.append,
        **kwargs,
    )
    return client, calls, sleeps


def test_live_client_uses_provider_usage():
    client, calls, _ = live_client(
        [(200, ok_body("Paris", {"prompt_tokens": 41, "completion_tokens": 7}))],
        max_response_tokens=9,
    )
    response = client.complete(CompletionRequest(prompt_text="a b c"))
    assert (response.text, response.prompt_tokens, response.completion_tokens) == ("Paris", 41, 7)
    assert len(calls) == 1
    payload = calls[0]
    assert payload["model"] == "test-model"
    assert payload["messages"] == [{"role": "user", "content": "a b c"}]
    assert payload["max_tokens"] == 9
    assert payload["temperature"] == 0.0


def test_live_client_falls_back_to_whitespace_counts():
    client, _, _ = live_client([(200, ok_body("two words"))])
    response = client.complete(CompletionRequest(prompt_text="a b c"))
    assert (response.prompt_tokens, response.completion_tokens) == (3, 2)


def test_live_client_retries_429_and_5xx_with_backoff():
    client, calls, sleeps = live_client([(429, {}), (503, {}), (200, ok_body("ok"))])
    assert client.complete(CompletionRequest(prompt_text="x")).text == "ok"
    assert len(calls) == 3
    assert sleeps == [1.0, 2.0]


def test_live_client_retries_transport_errors():
    client, calls, sleeps = live_client(
        [TransportError("boom"), (200, ok_body("recovered"))]
    )
    assert client.complete(CompletionRequest(prompt_text="x")).text == "recovered"
    assert len(calls) == 2 and sleeps == [1.0]


def test_live_client_gives_up_after_three_retries():
    client, calls, sleeps = live_client([(500, {})])
    with pytest.raises(TransportError, match="gave up after 4 attempts"):
        client.complete(CompletionRequest(prompt_text="x"))
    assert len(calls) == 4
    assert sleeps == [1.0, 2.0, 4.0]


def test_live_client_client_errors_fail_immediately():
    client, calls, sleeps = live_client([(404, {"error": "no such model"})])
    with pytest.raises(TransportError, match="HTTP 404"):
        client.complete(CompletionRequest(prompt_text="x"))
    assert len(calls) == 1 and sleeps == []


def test_live_client_malformed_body_is_a_transport_error():
    client, _, _ = live_client([(200, {"choices": []})])
    with pytest.raises(TransportError, match="malformed"):
        client.complete(CompletionRequest(prompt_text="x"))


@pytest.mark.parametrize(
    "body",
    [
        ok_body(None),  # OpenAI-style endpoints send null content
        ok_body(42),
        ok_body(["Paris"]),
        ok_body("Paris", "lots"),
        ok_body("Paris", [41, 7]),
        ok_body("Paris", {"prompt_tokens": "41", "completion_tokens": 7}),
        ok_body("Paris", {"prompt_tokens": 41, "completion_tokens": True}),
        ok_body("Paris", {"prompt_tokens": -7, "completion_tokens": 10**30}),
        ok_body("Paris", {"prompt_tokens": 41, "completion_tokens": -1}),
        ok_body("Paris", {"prompt_tokens": MAX_TOKEN_COUNT + 1, "completion_tokens": 1}),
        ok_body("Paris", {"prompt_tokens": 41, "completion_tokens": 10**30}),
    ],
)
def test_live_client_rejects_an_unusable_body_without_caching_or_billing(tmp_path, body):
    cache_path = tmp_path / "cache.jsonl"
    client, calls, _ = live_client([(200, body)], cache=ResponseCache(cache_path))
    with pytest.raises(TransportError, match="malformed completion body"):
        client.complete(CompletionRequest(prompt_text="x"))
    assert len(calls) == 1
    assert not cache_path.exists()


def test_token_counts_up_to_the_cap_are_billed_and_cached_as_given(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    usage = {"prompt_tokens": MAX_TOKEN_COUNT, "completion_tokens": MAX_TOKEN_COUNT}
    client, _, _ = live_client([(200, ok_body("Paris", usage))], cache=ResponseCache(cache_path))
    response = client.complete(CompletionRequest(prompt_text="x"))
    assert (response.prompt_tokens, response.completion_tokens) == (MAX_TOKEN_COUNT,) * 2
    (entry,) = ResponseCache(cache_path)._entries.values()
    assert entry == ("Paris", MAX_TOKEN_COUNT, MAX_TOKEN_COUNT)


@pytest.mark.parametrize("cap", [0, -5])
def test_a_nonpositive_response_cap_is_refused_before_any_payload_is_sent(cap):
    transport, calls = make_transport([(200, ok_body("Paris"))])
    with pytest.raises(ValueError, match=f"max_response_tokens must be >= 1, got {cap}"):
        LiveClient(endpoint="e", model="m", transport=transport, max_response_tokens=cap)
    assert calls == []


# LiveClient's check is covered above, with its payloads.
@pytest.mark.parametrize(
    "build",
    [
        lambda cap: RuleClient([QUESTION], max_response_tokens=cap),
        lambda cap: ScriptClient({}, max_response_tokens=cap),
    ],
)
def test_the_offline_clients_check_their_response_cap_when_built(build):
    assert build(1).max_response_tokens == 1
    with pytest.raises(ValueError, match="max_response_tokens must be >= 1, got 0"):
        build(0)


def test_live_client_enforces_max_in_flight():
    active, seen = [], []
    lock = threading.Lock()

    def transport(payload):
        with lock:
            active.append(None)
            seen.append(len(active))
        time.sleep(0.02)
        with lock:
            active.pop()
        return 200, ok_body("ok")

    client = LiveClient(
        endpoint="http://example.invalid",
        model="m",
        max_in_flight=2,
        transport=transport,
        sleep=lambda _: None,
    )
    with ThreadPoolExecutor(8) as pool:
        futures = [
            pool.submit(client.complete, CompletionRequest(prompt_text=f"p {i}"))
            for i in range(8)
        ]
        for future in futures:
            future.result()
    assert max(seen) <= 2
    with pytest.raises(ValueError):
        LiveClient(endpoint="e", model="m", max_in_flight=0, transport=transport)


@pytest.mark.parametrize(
    "timeout, message",
    [
        (math.inf, "timeout must be > 0 and finite"),
        (math.nan, "timeout must be > 0 and finite"),
        (0, "timeout must be > 0 and finite"),
        (-1, "timeout must be > 0 and finite"),
        (1e300, "timeout must be at most"),
        (2 * threading.TIMEOUT_MAX, "timeout must be at most"),
    ],
)
def test_live_client_rejects_an_unusable_timeout_at_construction(timeout, message):
    # socket.settimeout takes at most threading.TIMEOUT_MAX seconds: inf and
    # 1e300 used to pass construction, then die at the first call with an
    # OverflowError, and -1 with "Timeout value out of range".
    with pytest.raises(ValueError, match=message):
        LiveClient(endpoint="http://127.0.0.1:9/v1", model="m", timeout=timeout)
    LiveClient(endpoint="http://127.0.0.1:9/v1", model="m", timeout=threading.TIMEOUT_MAX)


# ---------------------------------------------------------------------------
# Live client through its own HTTP transport, against a loopback server


class _ReplayHandler(http.server.BaseHTTPRequestHandler):
    """Answers the nth POST with the server's nth reply (the last one repeats):
    a (status, body bytes) pair, a function of the payload that gives one,
    "garbage" for an unparsable status line, or "stall" for no reply until the
    server is released."""

    def do_POST(self):
        server = self.server
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.seen.append((self.headers.get("Authorization"), payload))
            reply = server.replies[min(len(server.seen), len(server.replies)) - 1]
        if callable(reply):
            reply = reply(payload)
        if reply == "stall":
            server.released.wait(timeout=10)
        elif reply == "garbage":
            self.wfile.write(b"garbage\r\n\r\n")
        else:
            status, body = reply
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    def log_message(self, format, *args):
        pass


class _CountingServer(http.server.ThreadingHTTPServer):
    """A loopback server on an ephemeral port that counts the connections it
    accepts and the most it holds open at once; ``closed`` is released each
    time it closes one."""

    daemon_threads = True

    def __init__(self, handler: type) -> None:
        super().__init__(("127.0.0.1", 0), handler)
        self.lock, self.seen, self.replies = threading.Lock(), [], []
        self.released = threading.Event()
        self.url = f"http://127.0.0.1:{self.server_port}/v1/chat/completions"
        self.accepted = self.open = self.open_max = 0
        self.closed = threading.Semaphore(0)

    def process_request(self, request, client_address):
        with self.lock:
            self.accepted += 1
            self.open += 1
            self.open_max = max(self.open_max, self.open)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.lock:
            self.open -= 1
        self.closed.release()


class _KeepAliveHandler(_ReplayHandler):
    protocol_version = "HTTP/1.1"


class _IdleCloseHandler(_KeepAliveHandler):
    """Replies without Connection: close, so the client keeps the connection,
    then closes it."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


class _TimeoutReplyHandler(_KeepAliveHandler):
    """Replies without Connection: close, then writes a 408 that no request
    asked for and closes, as a server does whose keep-alive timer fires."""

    def do_POST(self):
        super().do_POST()
        self.wfile.write(
            b"HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        )
        self.close_connection = True


class _CloseUnderTheSecondRequestHandler(_KeepAliveHandler):
    """Replies to the first request on a connection and keeps it, then reads
    the second and closes without a reply, as a server does whose keep-alive
    timer fires just as a request arrives."""

    def do_POST(self):
        if getattr(self, "answered", False):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.close_connection = True
            return
        self.answered = True
        super().do_POST()


class _ResetWhenReleasedHandler(_KeepAliveHandler):
    """Replies to the first request and keeps its connection until the server
    is released, then resets it: with SO_LINGER 0 the close sends RST, no FIN."""

    def do_POST(self):
        super().do_POST()
        if len(self.server.seen) == 1:
            self.server.released.wait(timeout=10)
            self.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            self.connection.close()
            self.close_connection = True


class _StopListeningHandler(_ReplayHandler):
    """Stops the server and closes its listening socket before it replies, so
    that every later connection is refused."""

    def do_POST(self):
        self.server.shutdown()  # serve_forever runs on its own thread
        self.server.socket.close()
        super().do_POST()


class _ProxyHandler(_ReplayHandler):
    """A proxy: records the target of each request line and its
    Proxy-Authorization in server.targets, then replies itself."""

    def do_POST(self):
        with self.server.lock:
            self.server.targets.append((self.path, self.headers.get("Proxy-Authorization")))
        super().do_POST()


class _TunnelHandler(http.server.BaseHTTPRequestHandler):
    """A CONNECT proxy: records the target of each request line and its
    Proxy-Authorization in server.targets, then relays bytes both ways until
    either side closes."""

    def do_CONNECT(self):
        with self.server.lock:
            self.server.targets.append((self.path, self.headers.get("Proxy-Authorization")))
        host, _, port = self.path.rpartition(":")
        with socket.create_connection((host, int(port)), timeout=10) as upstream:
            self.send_response(200)
            self.end_headers()
            ends = {self.connection: upstream, upstream: self.connection}
            while True:
                readable, _, _ = select.select(list(ends), [], [], 10)
                chunks = [(ends[sock], sock.recv(65536)) for sock in readable]
                if not readable or not all(chunk for _, chunk in chunks):
                    break
                for other, chunk in chunks:
                    other.sendall(chunk)
        self.close_connection = True

    def log_message(self, format, *args):
        pass


@pytest.fixture
def serve(monkeypatch):
    """Starts a _CountingServer for a handler class, over TLS given a server
    context; each is shut down after the test."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    started = []

    def start(handler: type = _ReplayHandler, tls: ssl.SSLContext | None = None) -> _CountingServer:
        server = _CountingServer(handler)
        if tls is not None:
            server.socket = tls.wrap_socket(server.socket, server_side=True)
            server.url = server.url.replace("http:", "https:", 1)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.released.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


@pytest.fixture
def tls(tmp_path, monkeypatch):
    """A server TLS context with a self-signed certificate for 127.0.0.1, which
    clients made during the test trust through SSL_CERT_FILE."""
    x509 = pytest.importorskip("cryptography.x509")
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(x509.NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(hours=1))
        .not_valid_after(now + datetime.timedelta(hours=1))
        .add_extension(
            x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]),
            critical=False,
        )
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
        .sign(key, hashes.SHA256())
    )
    cert_path, key_path = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(
        key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
    )
    monkeypatch.setenv("SSL_CERT_FILE", str(cert_path))
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_path, key_path)
    return context


@pytest.fixture
def endpoint(serve):
    """A loopback HTTP/1.0 server on an ephemeral port; set .replies before use."""
    return serve()


def http_client(url: str, **kwargs) -> tuple[LiveClient, list]:
    sleeps: list[float] = []
    return LiveClient(endpoint=url, model="test-model", sleep=sleeps.append, **kwargs), sleeps


def json_reply(status: int, body: dict) -> tuple[int, bytes]:
    return status, json.dumps(body).encode("utf-8")


def test_http_transport_posts_the_payload_and_reads_provider_usage(endpoint):
    usage = {"prompt_tokens": 41, "completion_tokens": 7}
    endpoint.replies = [json_reply(200, ok_body("Paris", usage))]
    for api_key in ("sk-test", None):
        client, sleeps = http_client(endpoint.url, api_key=api_key, max_response_tokens=9)
        response = client.complete(CompletionRequest(prompt_text="a b c"))
        assert (response.text, response.prompt_tokens, response.completion_tokens) == ("Paris", 41, 7)
        assert sleeps == []
    assert [auth for auth, _ in endpoint.seen] == ["Bearer sk-test", None]
    assert endpoint.seen[0][1] == {
        "model": "test-model",
        "messages": [{"role": "user", "content": "a b c"}],
        "temperature": 0.0,
        "max_tokens": 9,
    }


def test_http_transport_client_error_fails_at_once(endpoint):
    endpoint.replies = [json_reply(404, {"error": "no such model"})]
    client, sleeps = http_client(endpoint.url)
    with pytest.raises(TransportError, match="HTTP 404.*no such model"):
        client.complete(CompletionRequest(prompt_text="x"))
    assert len(endpoint.seen) == 1 and sleeps == []


def test_http_transport_retries_a_server_error(endpoint):
    endpoint.replies = [json_reply(503, {}), json_reply(200, ok_body("ok"))]
    client, sleeps = http_client(endpoint.url)
    assert client.complete(CompletionRequest(prompt_text="x")).text == "ok"
    assert len(endpoint.seen) == 2 and sleeps == [1.0]


def test_http_transport_non_json_body_is_malformed(endpoint):
    endpoint.replies = [(200, b"<html>not json</html>")]
    client, sleeps = http_client(endpoint.url)
    with pytest.raises(TransportError, match="malformed"):
        client.complete(CompletionRequest(prompt_text="x"))
    assert len(endpoint.seen) == 1 and sleeps == []


@pytest.mark.parametrize("failure", ["refused", "stall", "garbage"])
def test_http_transport_failures_are_retried_then_reported(endpoint, failure):
    url = endpoint.url
    with socket.socket() as unlistened:
        if failure == "refused":
            # Bound but not listening: the kernel refuses every connection.
            unlistened.bind(("127.0.0.1", 0))
            url = f"http://127.0.0.1:{unlistened.getsockname()[1]}/v1/chat/completions"
        endpoint.replies = [failure]
        client, sleeps = http_client(url, timeout=0.2)
        with pytest.raises(TransportError, match="gave up after 4 attempts: request to"):
            client.complete(CompletionRequest(prompt_text="x"))
    assert sleeps == [1.0, 2.0, 4.0]
    assert len(endpoint.seen) == (0 if failure == "refused" else 4)


def test_an_http11_endpoint_serves_sequential_calls_over_one_connection(serve):
    server = serve(_KeepAliveHandler)
    server.replies = [json_reply(200, ok_body("ok"))]
    client, sleeps = http_client(server.url)
    for i in range(5):
        assert client.complete(CompletionRequest(prompt_text=f"p {i}")).text == "ok"
    assert (server.accepted, len(server.seen), sleeps) == (1, 5, [])


def test_an_http10_endpoint_has_each_connection_it_closes_replaced(endpoint):
    endpoint.replies = [json_reply(200, ok_body("ok"))]
    client, sleeps = http_client(endpoint.url, max_in_flight=2)
    for i in range(5):
        assert client.complete(CompletionRequest(prompt_text=f"p {i}")).text == "ok"
    assert len(endpoint.seen) == 5 and sleeps == []
    assert endpoint.accepted <= 5 + 2


@pytest.mark.parametrize(
    "handler, scheme",
    [(_IdleCloseHandler, "http"), (_IdleCloseHandler, "https"), (_TimeoutReplyHandler, "https")],
)
def test_a_kept_connection_closed_while_idle_is_replaced_without_a_failed_attempt(
    serve, request, handler, scheme
):
    # Over TLS only the idle check guards this: a request sent on the closed
    # connection fails with an SSL error, or reads the unrequested 408, and
    # either costs a backoff. Over plain HTTP the resend at once covers it too.
    server = serve(handler, request.getfixturevalue("tls") if scheme == "https" else None)
    server.replies = [json_reply(200, ok_body("ok"))]
    client, sleeps = http_client(server.url)
    for i in range(3):
        assert client.complete(CompletionRequest(prompt_text=f"p {i}")).text == "ok"
        # the server has closed the connection the client keeps
        assert server.closed.acquire(timeout=10)
    assert [payload["messages"][0]["content"] for _, payload in server.seen] == ["p 0", "p 1", "p 2"]
    assert sleeps == []


def test_a_kept_connection_closed_under_its_request_is_resent_at_once_on_a_new_one(serve):
    server = serve(_CloseUnderTheSecondRequestHandler)
    server.replies = [json_reply(200, ok_body("ok"))]
    client, sleeps = http_client(server.url)
    for i in range(3):
        assert client.complete(CompletionRequest(prompt_text=f"p {i}")).text == "ok"
    assert [payload["messages"][0]["content"] for _, payload in server.seen] == ["p 0", "p 1", "p 2"]
    assert sleeps == [] and server.accepted == 3


def test_a_kept_connection_reset_while_idle_is_replaced_without_a_failed_attempt(serve):
    # The idle check's read raises ConnectionResetError, not returns b"": the
    # connection is dropped as one the server closed.
    server = serve(_ResetWhenReleasedHandler)
    server.replies = [json_reply(200, ok_body("ok"))]
    client, sleeps = http_client(server.url)
    assert client.complete(CompletionRequest(prompt_text="p 0")).text == "ok"
    server.released.set()  # only now: a reset before the reply is read destroys it
    assert server.closed.acquire(timeout=10)
    assert client.complete(CompletionRequest(prompt_text="p 1")).text == "ok"
    assert (server.accepted, len(server.seen), sleeps) == (2, 2, [])


def test_a_replacement_that_cannot_connect_leaves_the_call_its_reply(serve):
    server = serve(_StopListeningHandler)
    server.replies = [json_reply(200, ok_body("ok"))]
    client, sleeps = http_client(server.url)
    # The reply closes its connection, and opening the replacement is refused.
    assert client.complete(CompletionRequest(prompt_text="p 0")).text == "ok"
    assert sleeps == []
    with pytest.raises(TransportError, match="gave up after 4 attempts: request to"):
        client.complete(CompletionRequest(prompt_text="p 1"))
    assert sleeps == [1.0, 2.0, 4.0] and len(server.seen) == 1


@pytest.mark.parametrize("handler, connections", [(_ReplayHandler, 6), (_KeepAliveHandler, 1)])
def test_an_https_endpoint_makes_one_handshake_a_connection(serve, tls, handler, connections):
    # A TLS 1.3 server sends session tickets after its handshake, so a
    # connection opened ahead of its call has records to read while it waits.
    # It is still open and must be used, not dropped for a second handshake.
    server = serve(handler, tls)
    server.replies = [json_reply(200, ok_body("ok"))]
    client, sleeps = http_client(server.url)
    for i in range(5):
        assert client.complete(CompletionRequest(prompt_text=f"p {i}")).text == "ok"
        time.sleep(0.05)  # the tickets reach the client between calls
    assert len(server.seen) == 5 and sleeps == []
    # HTTP/1.0: one connection a call, and the one opened after the last
    assert server.accepted <= connections


def test_no_more_connections_are_open_at_once_than_calls_allowed_in_flight(serve):
    server = serve(_KeepAliveHandler)
    server.replies = [json_reply(200, ok_body("ok"))]
    client, sleeps = http_client(server.url, max_in_flight=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            texts = list(
                pool.map(
                    lambda i: client.complete(CompletionRequest(prompt_text=f"p {i}")).text,
                    range(40),
                )
            )
    finally:
        sys.setswitchinterval(interval)
    assert texts == ["ok"] * 40 and sleeps == []
    prompts = sorted(payload["messages"][0]["content"] for _, payload in server.seen)
    assert prompts == sorted(f"p {i}" for i in range(40))
    assert server.open_max <= 2


def client_connections(server: _CountingServer) -> int:
    """The connections a server accepted before a probe of its own, which it
    accepts after every connection already made: they queue in order."""
    probe = http.client.HTTPConnection("127.0.0.1", server.server_port, timeout=10)
    try:
        probe.request("GET", "/")  # no do_GET: a 501 reply
        probe.getresponse().read()
    finally:
        probe.close()
    return server.accepted - 1


def test_a_live_sweep_runs_its_three_modes_over_one_client_and_one_cache(
    serve, tmp_path, monkeypatch, capsys
):
    # Each mode used to build its own client, with its own connections and its
    # own read of the cache file, as three direct runs still do.
    rule = RuleClient(load_questions(FIXTURES / "toy_questions.jsonl"))

    def answer(payload: dict) -> tuple[int, bytes]:
        request = CompletionRequest(prompt_text=payload["messages"][0]["content"])
        return json_reply(200, ok_body(rule.complete(request).text))

    caches = []

    class CountedCache(ResponseCache):
        def __init__(self, path):
            caches.append(path)
            super().__init__(path)

    monkeypatch.setattr(cli, "ResponseCache", CountedCache)
    runs = {}
    for name, placements in (
        ("sweep", ["sweep"]), ("direct", ["retrieval_order", "gold_top", "gold_bottom"])
    ):
        server = serve()
        server.replies = [answer]
        root = tmp_path / name
        root.mkdir()
        caches.clear()
        usage = []
        for placement in placements:
            config_path = write_config(
                root / "run.yaml", out=root / placement, placement=placement, strategies="all",
                backend="live", endpoint=server.url, model="m", max_in_flight=1,
                cache=root / "cache.jsonl",
            )
            assert cli.main(["run", "--config", str(config_path)]) == 0
            printed = capsys.readouterr().out.splitlines()
            usage += [line for line in printed if line.startswith("usage:")]
        # Each run has its own server, and a cache key names the server: compare the rows' replies.
        rows = [json.loads(line) for line in (root / "cache.jsonl").read_text().splitlines()]
        cached = sorted((row["text"], row["prompt_tokens"], row["completion_tokens"]) for row in rows)
        runs[name] = (usage, cached, len(server.seen), client_connections(server), len(caches))
    usage, cached, answered, connections, built = runs["sweep"]
    assert len(usage) == 3
    assert runs["direct"] == (usage, cached, answered, answered + 3, 3)
    # HTTP/1.0: one connection a call, and the one opened after the last
    assert (connections, built) == (answered + 1, 1)


def test_a_proxy_from_the_environment_gets_the_whole_url_and_the_credentials(serve, monkeypatch):
    direct, proxy = serve(), serve(_ProxyHandler)
    direct.replies = proxy.replies = [json_reply(200, ok_body("ok"))]
    proxy.targets = []
    for name in ("no_proxy", "NO_PROXY", "http_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTP_PROXY", f"http://u:p@127.0.0.1:{proxy.server_port}")
    client, _ = http_client(direct.url)
    assert client.complete(CompletionRequest(prompt_text="x")).text == "ok"
    assert proxy.targets == [(direct.url, "Basic dTpw")]  # base64 of u:p
    assert direct.seen == []
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    client, _ = http_client(direct.url)
    assert client.complete(CompletionRequest(prompt_text="x")).text == "ok"
    assert len(proxy.targets) == 1 and len(direct.seen) == 1


def test_an_https_endpoint_is_tunnelled_through_a_proxy_with_the_credentials(
    serve, tls, monkeypatch
):
    direct, proxy = serve(_KeepAliveHandler, tls), serve(_TunnelHandler)
    direct.replies = [json_reply(200, ok_body("ok"))]
    proxy.targets = []
    for name in ("no_proxy", "NO_PROXY", "https_proxy", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("HTTPS_PROXY", f"http://u:p@127.0.0.1:{proxy.server_port}")
    client, sleeps = http_client(direct.url)
    for i in range(3):
        assert client.complete(CompletionRequest(prompt_text=f"p {i}")).text == "ok"
    # one tunnel, kept for every call
    assert proxy.targets == [(f"127.0.0.1:{direct.server_port}", "Basic dTpw")]
    assert len(direct.seen) == 3 and sleeps == []


def test_live_client_sends_without_importing_requests(endpoint):
    endpoint.replies = [json_reply(200, ok_body("Paris"))]
    script = (
        "import sys\n"
        "from ragfuse.llm import CompletionRequest, LiveClient\n"
        "client = LiveClient(endpoint=sys.argv[1], model='m')\n"
        "print(client.complete(CompletionRequest(prompt_text='x')).text, 'requests' in sys.modules)\n"
    )
    done = run_python(script, endpoint.url)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Paris False\n"
    assert len(endpoint.seen) == 1


def test_response_cache_skips_transport_on_hit(tmp_path):
    cache_path = tmp_path / "cache.jsonl"
    usage = {"prompt_tokens": 10, "completion_tokens": 2}
    client, calls, _ = live_client(
        [(200, ok_body("cached answer", usage))], cache=ResponseCache(cache_path)
    )
    request = CompletionRequest(prompt_text="the same prompt")
    first = client.complete(request)
    second = client.complete(request)
    assert len(calls) == 1
    assert first == second
    # a fresh client over the same file resumes without any transport call
    resumed, resumed_calls, _ = live_client([(500, {})], cache=ResponseCache(cache_path))
    third = resumed.complete(request)
    assert resumed_calls == []
    assert (third.text, third.prompt_tokens, third.completion_tokens) == ("cached answer", 10, 2)


def test_response_cache_keys_on_model_and_prompt():
    def payload(model: str, prompt: str) -> dict:
        return {
            "model": model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": 0.0,
            "max_tokens": 64,
        }

    key_for = ResponseCache.key_for
    assert key_for(payload("m1", "p")) != key_for(payload("m2", "p"))
    assert key_for(payload("m1", "p")) != key_for(payload("m1", "q"))
    assert key_for(payload("m1", "p")) == key_for(payload("m1", "p"))


def test_response_cache_keys_on_the_endpoint_but_not_its_credentials():
    payload = {"model": "m", "messages": [{"role": "user", "content": "p"}]}
    key = ResponseCache.key_for(payload, "https://h:8/v1")
    assert ResponseCache.key_for(payload, "https://user:secret@h:8/v1") == key
    for other in ("http://h:8/v1", "https://g:8/v1", "https://h:9/v1", "https://h:8/v2"):
        assert ResponseCache.key_for(payload, other) != key


def test_a_cache_written_against_one_endpoint_does_not_answer_for_another(serve, tmp_path, capsys):
    # The key used to hash the payload alone, so a run against a second server
    # that names its model the same got the first server's replies from the cache.
    first, second = serve(), serve()
    first.replies = [json_reply(200, ok_body("Alpha"))]
    second.replies = [json_reply(200, ok_body("unknown"))]
    for server in (first, second):
        out = tmp_path / str(server.server_port)
        config_path = write_config(
            tmp_path / "run.yaml", out=out, strategies="all", backend="live",
            endpoint=server.url, model="m", cache=tmp_path / "cache.jsonl",
        )
        assert cli.main(["run", "--config", str(config_path)]) == 0
    # Every call of the second run reached the second server.
    rows = (out / "exchanges.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(second.seen) == len(rows) > 0
    assert {json.loads(row)["response"] for row in rows} == {"unknown"}
    records = (out / "records.jsonl").read_text(encoding="utf-8").splitlines()
    assert all(json.loads(record)["is_unknown"] for record in records)


def test_response_cache_keys_on_max_response_tokens(tmp_path):
    cache = ResponseCache(tmp_path / "cache.jsonl")
    long_client, long_calls, _ = live_client(
        [(200, ok_body("a long answer"))], cache=cache, max_response_tokens=64
    )
    short_client, short_calls, _ = live_client(
        [(200, ok_body("short"))], cache=cache, max_response_tokens=5
    )
    long = long_client.complete(CompletionRequest(prompt_text="p"))
    short = short_client.complete(CompletionRequest(prompt_text="p"))
    assert (len(long_calls), len(short_calls)) == (1, 1)
    assert (long.text, short.text) == ("a long answer", "short")
    assert short_calls[0]["max_tokens"] == 5


def test_response_cache_put_is_idempotent(tmp_path):
    cache = ResponseCache(tmp_path / "cache.jsonl")
    cache.put("k", "text", 1, 2)
    cache.put("k", "other", 9, 9)
    assert cache.get("k") == ("text", 1, 2)
    assert len((tmp_path / "cache.jsonl").read_text().splitlines()) == 1


def test_response_cache_resumes_after_a_torn_final_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    first = ResponseCache(path)
    first.put("a", "alpha", 1, 1)
    first.put("b", "beta", 2, 1)
    # an interrupted append: the third entry stops mid-string, multibyte
    # character cut in half, no newline
    torn = '{"completion_tokens": 1, "key": "c", "text": "gammé'.encode("utf-8")[:-1]
    path.write_bytes(path.read_bytes() + torn)
    resumed = ResponseCache(path)
    assert (resumed.get("a"), resumed.get("b"), resumed.get("c")) == (
        ("alpha", 1, 1),
        ("beta", 2, 1),
        None,
    )
    resumed.put("c", "gamma", 3, 1)
    resumed.put("d", "delta", 4, 1)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4 and path.read_bytes().endswith(b"\n")
    reloaded = ResponseCache(path)
    assert [reloaded.get(key) for key in "abcd"] == [
        ("alpha", 1, 1),
        ("beta", 2, 1),
        ("gamma", 3, 1),
        ("delta", 4, 1),
    ]


def test_response_cache_rejects_a_bad_line_in_the_middle(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("a", "alpha", 1, 1)
    good = path.read_text(encoding="utf-8")
    out_of_range = (
        '{"key": "b", "text": "t", "prompt_tokens": -7, "completion_tokens": 1}\n',
        '{"key": "b", "text": "t", "prompt_tokens": 1, "completion_tokens": -1}\n',
        f'{{"key": "b", "text": "t", "prompt_tokens": {MAX_TOKEN_COUNT + 1}, "completion_tokens": 1}}\n',
        '{"key": "b", "text": "t", "prompt_tokens": 1, "completion_tokens": 1000000000000000000000000000000}\n',
    )
    for bad in ('{"key": "b", "text": "be\n', "[1, 2]\n", '{"key": "b"}\n', *out_of_range):
        path.write_text(good + bad + good, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"{path.name}:2: unreadable cache entry"):
            ResponseCache(path)
