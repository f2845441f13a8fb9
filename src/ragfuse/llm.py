"""Completion clients: live OpenAI-compatible endpoint plus two mock backends."""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.parse  # pathlib imports it too, so it costs an offline run nothing
import weakref
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Mapping

from .corpus import CorpusError, Question, check_row, read_rows
from .prompts import DEFAULT_SENTINEL, extract_task


class BudgetError(RuntimeError):
    """Prompt exceeds the configured token budget."""


class TransportError(RuntimeError):
    """Live endpoint failed after exhausting retries, or returned garbage."""


class ScriptError(RuntimeError):
    """Scripted backend has no response for a requested exchange."""


class RuleError(RuntimeError):
    """Rule backend could not interpret a prompt."""


# A bytes.translate table: the ASCII whitespace that str.split() splits on
# becomes "0", every other byte "1". A token starts at each "1" that follows
# a "0" or the start of the text.
_SPACE_BYTES = bytes(
    0x30 if byte in b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f " else 0x31 for byte in range(256)
)


def count_tokens(text: str) -> int:
    """Whitespace token count, the accounting unit for budgets and reports:
    len(text.split()), counted without building the list when text is ASCII."""
    if not text.isascii():
        return len(text.split())
    marks = text.encode("ascii").translate(_SPACE_BYTES)
    return marks.count(b"01") + marks.startswith(b"1")


def check_max_response_tokens(max_response_tokens: int) -> None:
    """A reply may hold at least one token: an endpoint given max_tokens 0 or
    less either refuses the call or answers with nothing to score."""
    if max_response_tokens < 1:
        raise ValueError(f"max_response_tokens must be >= 1, got {max_response_tokens}")


# The largest token count taken from a provider or a cache row: the int32
# limit, far above any prompt or reply a model takes or writes. A larger count
# is a broken reply or row, and would be billed and summed as given.
MAX_TOKEN_COUNT = 2**31 - 1


def _is_token_count(count: object) -> bool:
    # bool is an int subclass, so the type is compared exactly.
    return type(count) is int and 0 <= count <= MAX_TOKEN_COUNT


@dataclass(frozen=True)
class CompletionRequest:
    """One prompt plus routing metadata (mock backends key on the metadata)."""

    prompt_text: str
    question_id: str | None = None
    exchange_key: str | None = None


@dataclass(frozen=True)
class CompletionResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int


class CompletionClient:
    """Base class handling budget checks and token counts. A client holds the
    run's prompt budget and reply cap; the cap is checked once, here."""

    def __init__(
        self, max_prompt_tokens: int | None = None, max_response_tokens: int = 64
    ) -> None:
        check_max_response_tokens(max_response_tokens)
        self.max_prompt_tokens = max_prompt_tokens
        self.max_response_tokens = max_response_tokens

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        if not request.prompt_text.strip():
            raise ValueError("prompt_text must be non-empty")
        prompt_tokens = count_tokens(request.prompt_text)
        if self.max_prompt_tokens is not None and prompt_tokens > self.max_prompt_tokens:
            raise BudgetError(
                f"prompt is {prompt_tokens} tokens, over the budget of "
                f"{self.max_prompt_tokens}"
            )
        text, reported_prompt, reported_completion = self._respond(request)
        return CompletionResponse(
            text=text,
            prompt_tokens=reported_prompt if reported_prompt is not None else prompt_tokens,
            completion_tokens=(
                reported_completion if reported_completion is not None else count_tokens(text)
            ),
        )

    def _respond(self, request: CompletionRequest) -> tuple[str, int | None, int | None]:
        raise NotImplementedError


class RuleClient(CompletionClient):
    """Deterministic mock: answers with the first gold alias found verbatim
    (case-insensitively) in any passage of the prompt, else the sentinel.
    The question is found by the request's question_id, or, for a request
    without one, by the prompt's question line."""

    def __init__(
        self,
        questions: Iterable[Question],
        sentinel: str = DEFAULT_SENTINEL,
        max_prompt_tokens: int | None = None,
        max_response_tokens: int = 64,
    ) -> None:
        super().__init__(max_prompt_tokens, max_response_tokens)
        self.sentinel = sentinel
        self._by_id: dict[str, Question] = {}
        # None marks a text shared by questions with different gold answers.
        self._by_text: dict[str, Question | None] = {}
        for question in questions:
            self._by_id[question.question_id] = question
            seen = self._by_text.setdefault(question.text, question)
            if seen is not None and seen.gold_answers != question.gold_answers:
                self._by_text[question.text] = None

    def _respond(self, request: CompletionRequest) -> tuple[str, int | None, int | None]:
        task = extract_task(request.prompt_text)
        if request.question_id is not None:
            key, registered = request.question_id, self._by_id
        elif task.question is not None:
            key, registered = task.question, self._by_text
        else:
            raise RuleError("prompt has no recognizable question line")
        if key not in registered:
            raise RuleError(f"question is not registered with the rule backend: {key!r}")
        question = registered[key]
        if question is None:
            raise RuleError(f"question text is shared by different gold answers: {key!r}")
        haystacks = [p.lower() for p in task.passages]
        for alias in question.gold_answers:
            needle = alias.lower()
            if any(needle in haystack for haystack in haystacks):
                return alias, None, None
        return self.sentinel, None, None


class ScriptClient(CompletionClient):
    """Replay mock: responses looked up by (question_id, exchange_key)."""

    def __init__(
        self,
        script: Mapping[tuple[str, str], str],
        max_prompt_tokens: int | None = None,
        max_response_tokens: int = 64,
    ) -> None:
        super().__init__(max_prompt_tokens, max_response_tokens)
        self._script = dict(script)

    def _respond(self, request: CompletionRequest) -> tuple[str, int | None, int | None]:
        if request.question_id is None or request.exchange_key is None:
            raise ScriptError(
                "scripted backend needs question_id and exchange_key on the request"
            )
        key = (request.question_id, request.exchange_key)
        if key not in self._script:
            raise ScriptError(
                f"no scripted response for question {request.question_id!r}, "
                f"exchange {request.exchange_key!r}"
            )
        return self._script[key], None, None


_SCRIPT_ROW = dict.fromkeys(("question_id", "exchange_key", "response"), (str,))


def load_script(path: str | Path) -> dict[tuple[str, str], str]:
    """Load a response script from JSONL rows of
    {question_id, exchange_key, response}."""
    script: dict[tuple[str, str], str] = {}
    for lineno, row in read_rows(path, _SCRIPT_ROW):
        pair = (row["question_id"], row["exchange_key"])
        if pair in script:
            raise CorpusError(f"{path}:{lineno}: duplicate script entry for {pair!r}")
        script[pair] = row["response"]
    return script


_CACHE_ROW = {"key": (str,), "text": (str,), "prompt_tokens": (int,), "completion_tokens": (int,)}


class ResponseCache:
    """Append-only JSONL cache keyed by a hash of the request payload and endpoint.

    Lets an interrupted live run resume without re-billing completed calls.
    An unterminated final line is what an interrupted append leaves behind:
    it is skipped on load and cut off before the next append. Any other
    unreadable line is corruption and raises CorpusError naming path:line.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: dict[str, tuple[str, int, int]] = {}
        self._torn_at: int | None = None
        self._append: BinaryIO | None = None
        if not self.path.exists():
            return
        with self.path.open("rb") as handle:
            size = 0
            for lineno, line in enumerate(handle, start=1):
                if not line.endswith(b"\n"):
                    self._torn_at = size
                    break
                size += len(line)
                if line.strip():
                    where = f"{self.path}:{lineno}: unreadable cache entry"
                    row = check_row(line, _CACHE_ROW, where)
                    counts = (row["prompt_tokens"], row["completion_tokens"])
                    if not all(_is_token_count(count) for count in counts):
                        raise CorpusError(f"{where}: token count outside 0..{MAX_TOKEN_COUNT}")
                    self._entries[row["key"]] = (
                        row["text"], row["prompt_tokens"], row["completion_tokens"]
                    )

    @staticmethod
    def key_for(payload: dict, endpoint: str = "") -> str:
        """Hash of the payload as sent and of the endpoint's scheme, host, port
        and path: every request parameter is in the key, and so is the server
        that answers, but not the credentials in the endpoint's URL."""
        # Imported here: hashlib maps OpenSSL, which only a cached live run needs.
        import hashlib

        parts = urllib.parse.urlsplit(endpoint)
        server = f"{parts.scheme}://{parts.netloc.rpartition('@')[2]}{parts.path}"
        keyed = json.dumps([server, payload], sort_keys=True)
        return hashlib.sha256(keyed.encode("utf-8")).hexdigest()

    def get(self, key: str) -> tuple[str, int, int] | None:
        with self._lock:
            return self._entries.get(key)

    def put(self, key: str, text: str, prompt_tokens: int, completion_tokens: int) -> None:
        record = {
            "key": key,
            "text": text,
            "prompt_tokens": prompt_tokens,
            "completion_tokens": completion_tokens,
        }
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = (text, prompt_tokens, completion_tokens)
            if self._append is None:  # opened once: a put makes one write call
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._append = self.path.open("ab")
                weakref.finalize(self, self._append.close)
                if self._torn_at is not None:
                    self._append.truncate(self._torn_at)
                    self._torn_at = None
            # Flushed before put returns, so that a killed process loses no row.
            self._append.write((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
            self._append.flush()


# A transport takes the JSON payload and returns (status_code, parsed body).
Transport = Callable[[dict], tuple[int, dict]]

_RETRY_DELAYS = (1.0, 2.0, 4.0)


def check_endpoint(endpoint: str) -> None:
    """An http(s) URL with a host. The transport picks its connection class by
    the scheme alone, so it would send any other scheme (ftp:, a typo) as
    plain HTTP, and a URL without a host names no address to connect to."""
    parts = urllib.parse.urlsplit(endpoint)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"endpoint must be an http:// or https:// URL with a host: {endpoint!r}")


def _http_transport(endpoint: str, api_key: str | None, timeout: float) -> Transport:
    """POST each payload through http.client over connections kept between
    calls. Raises ValueError unless endpoint passes check_endpoint.

    The proxy is taken once, from the HTTP(S)_PROXY/NO_PROXY environment, as
    urllib.request's ProxyHandler takes it: an http endpoint's URL goes to the
    proxy whole, an https endpoint is tunnelled through it, and user:pass@ in
    the proxy URL is sent as Basic Proxy-Authorization.

    A call takes the connection returned last, or opens one; one the server
    closed while idle is dropped first. If a kept connection is closed under
    its request, the request is sent again at once on a new one. A reply that
    closes its connection (every reply of an HTTP/1.0 server) has the
    replacement opened before the call returns, so that the next call finds
    it ready. LiveClient's gate bounds the calls at once, and so the
    connections kept."""
    check_endpoint(endpoint)
    # Imported here so that runs on the offline backends do not pay for it.
    import base64
    import http.client
    import ssl
    import urllib.request

    parts = urllib.parse.urlsplit(endpoint)
    target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
    headers = {
        "Content-Type": "application/json",
        "User-Agent": f"Python-urllib/{urllib.request.__version__}",
    }
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    address, tunnel_headers = parts.netloc, None
    proxy = urllib.request.getproxies().get(parts.scheme)
    if proxy and not urllib.request.proxy_bypass(parts.netloc):
        # A proxy given as host:port has no scheme to split off.
        proxy_parts = urllib.parse.urlsplit(proxy if "//" in proxy else f"//{proxy}")
        address = proxy_parts.netloc.rpartition("@")[2]
        proxy_headers = {}
        if proxy_parts.username and proxy_parts.password:
            user = urllib.parse.unquote(proxy_parts.username)
            password = urllib.parse.unquote(proxy_parts.password)
            credentials = base64.b64encode(f"{user}:{password}".encode("utf-8")).decode("ascii")
            proxy_headers["Proxy-Authorization"] = f"Basic {credentials}"
        if parts.scheme == "https":
            tunnel_headers = proxy_headers
        else:
            target = endpoint.partition("#")[0]
            headers.update(proxy_headers)
    connection_type = (
        http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    )
    idle: list[http.client.HTTPConnection] = []
    lock = threading.Lock()
    # What a non-blocking read of an idle, open connection raises. A TLS socket
    # first reads the records that carry no data, such as the session tickets a
    # TLS 1.3 server sends after its handshake.
    nothing_to_read = (BlockingIOError, ssl.SSLWantReadError)

    def dropped(sock) -> bool:
        # An idle connection has something to read only once its server has
        # closed it (or sent what no request asked for). Unlike select.select,
        # a read takes a descriptor of any number.
        sock.settimeout(0)
        try:
            sock.recv(1)
        except nothing_to_read:
            return False
        except OSError:
            pass
        finally:
            sock.settimeout(timeout)
        return True

    def connection() -> tuple[http.client.HTTPConnection, bool]:
        """The connection returned last if it is still open, else a new one;
        and whether it was kept."""
        with lock:
            conn = idle.pop() if idle else None
        if conn is None:
            conn = connection_type(address, timeout=timeout)
            if tunnel_headers is not None:
                conn.set_tunnel(parts.netloc, headers=tunnel_headers)
            return conn, False
        if conn.sock is None or dropped(conn.sock):
            conn.close()  # request() opens a new socket
            return conn, False
        return conn, True

    def exchange(conn: http.client.HTTPConnection, data: bytes) -> tuple[int, bytes, bool]:
        conn.request("POST", target, data, headers)
        # An error status is still a reply; LiveClient decides on retries.
        with conn.getresponse() as reply:
            return reply.status, reply.read(), reply.will_close

    def send(payload: dict) -> tuple[int, dict]:
        data = json.dumps(payload).encode("utf-8")
        conn, kept = connection()
        try:
            try:
                status, raw, closed = exchange(conn, data)
            except ConnectionError:
                if not kept:
                    raise
                # The server closed the kept connection after the check (its
                # keep-alive timer fired, say): send again at once on a new one.
                conn.close()
                status, raw, closed = exchange(conn, data)
        # HTTPException (a bad status line, a cut-off body) is not an OSError.
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise TransportError(f"request to {endpoint} failed: {exc}") from exc
        if closed:  # the reply closed the socket: open the next one now
            try:
                conn.connect()
            except (OSError, http.client.HTTPException):
                conn.close()  # request() opens one on the next call
        with lock:
            idle.append(conn)
        try:
            body = json.loads(raw)
        except ValueError:
            body = {}
        return status, body

    # The kept connections close once the client lets go of its transport.
    weakref.finalize(send, _close_all, idle)
    return send


def _close_all(connections: list) -> None:
    for conn in connections:
        conn.close()


def _completion_fields(body: object, status: int) -> tuple[str, int | None, int | None]:
    """The reply text and the token counts the provider reports, None where it
    reports none; TransportError unless the reply is text and each count an int
    in 0..MAX_TOKEN_COUNT."""
    try:
        text = body["choices"][0]["message"]["content"]
        usage = body.get("usage")
        usage = {} if usage is None else usage
        counts = (usage.get("prompt_tokens"), usage.get("completion_tokens"))
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise TransportError(f"malformed completion body (status {status})") from exc
    usable = all(n is None or _is_token_count(n) for n in counts)
    if not isinstance(text, str) or not usable:
        raise TransportError(f"malformed completion body (status {status})")
    return text, *counts


def check_live_settings(timeout: float, max_in_flight: int) -> None:
    """max_in_flight >= 1, and a timeout socket.settimeout takes: > 0, finite, <= TIMEOUT_MAX."""
    if max_in_flight < 1:
        raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
    if not 0 < timeout < math.inf:
        raise ValueError(f"timeout must be > 0 and finite, got {timeout}")
    if timeout > threading.TIMEOUT_MAX:
        raise ValueError(f"timeout must be at most {threading.TIMEOUT_MAX} s, got {timeout}")


class LiveClient(CompletionClient):
    """Client for an OpenAI-compatible chat completions endpoint.

    Without an injected transport, calls go through http.client (the
    standard library) over kept connections, with the proxy taken from the
    environment; endpoint must then be an http:// or https:// URL with a
    host, else ValueError.
    Retries transient failures (transport errors, HTTP 429 and 5xx) three
    times with 1s/2s/4s backoff; other HTTP statuses fail immediately. At
    most max_in_flight calls run concurrently.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        max_in_flight: int = 4,
        max_prompt_tokens: int | None = None,
        max_response_tokens: int = 64,
        cache: ResponseCache | None = None,
        transport: Transport | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        super().__init__(max_prompt_tokens, max_response_tokens)
        check_live_settings(timeout, max_in_flight)
        self.endpoint = endpoint
        self.model = model
        self.cache = cache
        self._transport = transport or _http_transport(endpoint, api_key, timeout)
        self._sleep = sleep
        self._gate = threading.Semaphore(max_in_flight)

    def _respond(self, request: CompletionRequest) -> tuple[str, int | None, int | None]:
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt_text}],
            "temperature": 0.0,
            "max_tokens": self.max_response_tokens,
        }
        cache_key = None
        if self.cache is not None:
            cache_key = ResponseCache.key_for(payload, self.endpoint)
            hit = self.cache.get(cache_key)
            if hit is not None:
                return hit
        return self._send_with_retries(payload, cache_key)

    def _send_with_retries(
        self, payload: dict, cache_key: str | None
    ) -> tuple[str, int | None, int | None]:
        """The reply's text and reported token counts. A reply is cached under
        cache_key, if given, before its call leaves the gate: so at any moment
        at most max_in_flight replies are paid for and not yet cached, which
        bounds what a killed run pays for again when it resumes."""
        failure: str = "no attempt made"
        for attempt in range(1 + len(_RETRY_DELAYS)):
            if attempt > 0:
                self._sleep(_RETRY_DELAYS[attempt - 1])
            with self._gate:
                try:
                    status, body = self._transport(payload)
                except TransportError as exc:
                    failure = str(exc)
                    continue
                if status == 429 or status >= 500:
                    failure = f"HTTP {status}"
                    continue
                if status >= 400:
                    raise TransportError(f"HTTP {status} from completion endpoint: {body}")
                text, prompt_tokens, completion_tokens = _completion_fields(body, status)
                if cache_key is not None:
                    prompt = payload["messages"][0]["content"]
                    self.cache.put(
                        cache_key,
                        text,
                        prompt_tokens if prompt_tokens is not None else count_tokens(prompt),
                        completion_tokens if completion_tokens is not None else count_tokens(text),
                    )
                return text, prompt_tokens, completion_tokens
        raise TransportError(f"gave up after {1 + len(_RETRY_DELAYS)} attempts: {failure}")
