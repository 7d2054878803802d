from __future__ import annotations

import json
import random
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from clozefuzz.brackets import BracketKind
from clozefuzz.infill import (
    DEFAULT_SENTINEL,
    BackendError,
    CompletionRequest,
    EchoBackend,
    HttpBackend,
    InfillConfig,
    MockBackend,
    ReplayBackend,
    backend_from_spec,
    infill,
)
from clozefuzz.masking import cloze, render

PLAIN = "fn main() { let x = compute(); }"
GATED = "#![feature(unsize, coerce_unsized)]\nfn main() {}"


def pick_variant(source, special):
    for variant in cloze(source):
        if variant.special == special:
            return variant
    raise AssertionError(f"no variant with special={special} in {source!r}")


def test_echo_backend_yields_no_candidates():
    cfg = InfillConfig(backend=EchoBackend())
    rng = random.Random(0)
    for variant in cloze(PLAIN):
        assert infill(variant, cfg, rng) == []


def test_nonspecial_gets_one_attempt_at_base_temperature():
    backend = MockBackend(["panic!()"])
    cfg = InfillConfig(backend=backend, base_temperature=0.8)
    variant = pick_variant(PLAIN, special=False)
    results = infill(variant, cfg, random.Random(1))
    assert len(backend.calls) == 1
    assert backend.calls[0].temperature == 0.8
    assert len(results) == 1
    assert results[0].temperature == 0.8


def test_special_gets_time_max_attempts_at_random_temperatures():
    backend = MockBackend([f"fill_{i}" for i in range(10)])
    cfg = InfillConfig(backend=backend, time_max=4)
    variant = pick_variant(GATED, special=True)
    infill(variant, cfg, random.Random(7))
    assert len(backend.calls) == 4
    temps = [call.temperature for call in backend.calls]
    assert all(0.0 <= t < 1.0 for t in temps)
    assert len(set(temps)) > 1  # actually drawn, not a constant

    fresh = random.Random(7)
    expected = [fresh.random() for _ in range(4)]
    # same rng state must reproduce the same schedule
    backend2 = MockBackend([f"fill_{i}" for i in range(10)])
    cfg2 = InfillConfig(backend=backend2, time_max=4)
    infill(variant, cfg2, random.Random(7))
    assert [c.temperature for c in backend2.calls] == temps == expected


def test_identity_and_duplicate_fills_are_dropped():
    variant = pick_variant(GATED, special=True)
    fills = ["flag_a", "flag_b", "flag_a", variant.original_interior]
    backend = MockBackend(fills)
    cfg = InfillConfig(backend=backend, time_max=4)
    results = infill(variant, cfg, random.Random(3))
    assert len(backend.calls) == 4
    assert [r.candidate_text for r in results] == [
        variant.prefix + "flag_a" + variant.suffix,
        variant.prefix + "flag_b" + variant.suffix,
    ]


def test_candidate_keeps_delimiters_and_request_carries_sentinel():
    backend = MockBackend(["1 + 2"])
    cfg = InfillConfig(backend=backend)
    variant = pick_variant(PLAIN, special=False)
    results = infill(variant, cfg, random.Random(0))
    request = backend.calls[0]
    assert DEFAULT_SENTINEL in render(request.variant, backend.sentinel)
    assert request.variant.original_interior == variant.original_interior
    assert request.max_tokens == cfg.max_fill_tokens
    for r in results:
        # splice point sits between the original open/close delimiters
        assert r.candidate_text.startswith(variant.prefix)
        assert r.candidate_text.endswith(variant.suffix)


def test_request_log_keeps_no_copy_of_the_seed():
    seed = "".join(
        f"fn f{i}(a: Vec<u8>) -> usize {{ let x = [a.len(), {i}]; x[0] }}\n"
        for i in range(1300)
    )
    assert len(seed) >= 80_000
    variants = cloze(seed, "big")
    backend = MockBackend([str(i) for i in range(64)])
    cfg = InfillConfig(backend=backend)
    rng = random.Random(0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(300):
            infill(variants[i % len(variants)], cfg, rng)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(backend.calls) == 300
    # one rendered copy per logged request would be 300 x 80 KB = 24 MB
    assert grown < 4_000_000


def test_a_backend_error_ends_the_variant():
    class Flaky:
        backend_id = "flaky"
        sentinel = DEFAULT_SENTINEL

        def __init__(self):
            self.n = 0

        def complete(self, request):
            self.n += 1
            if self.n == 1:
                raise BackendError("link down")
            return f"ok_{self.n}"

    variant = pick_variant(GATED, special=True)
    backend = Flaky()
    with pytest.raises(BackendError, match="link down"):
        infill(variant, InfillConfig(backend=backend, time_max=3), random.Random(0))
    assert backend.n == 1  # no later attempt is made


@pytest.mark.parametrize("fill", [1, None, b"bytes"])
def test_a_fill_that_is_not_text_is_a_backend_error(fill):
    class Odd:
        backend_id = "odd"
        sentinel = DEFAULT_SENTINEL

        def complete(self, request):
            return fill

    variant = pick_variant(PLAIN, special=False)
    with pytest.raises(BackendError, match="not text"):
        infill(variant, InfillConfig(backend=Odd()), random.Random(0))


def test_protocol_errors_propagate():
    class Broken:
        backend_id = "broken"
        sentinel = DEFAULT_SENTINEL

        def complete(self, request):
            raise BackendError("garbled")

    variant = pick_variant(PLAIN, special=False)
    cfg = InfillConfig(backend=Broken())
    with pytest.raises(BackendError):
        infill(variant, cfg, random.Random(0))


def test_a_fill_not_encodable_as_utf8_is_a_protocol_error():
    # JSON decodes a lone surrogate to a str that UTF-8 cannot encode
    backend = MockBackend([json.loads('"\\ud800"')])
    variant = pick_variant(PLAIN, special=False)
    with pytest.raises(BackendError):
        infill(variant, InfillConfig(backend=backend), random.Random(0))


def test_missing_backend_is_a_config_error():
    with pytest.raises(TypeError, match="backend"):
        InfillConfig()


def test_config_validation():
    backend = EchoBackend()
    with pytest.raises(ValueError):
        InfillConfig(backend=backend, time_max=0)
    with pytest.raises(ValueError):
        InfillConfig(backend=backend, base_temperature=1.5)
    with pytest.raises(ValueError):
        InfillConfig(backend=backend, max_fill_tokens=0)


# --- HTTP backend against a live local server --------------------------------


class _Handler(BaseHTTPRequestHandler):
    script = []  # list of (status, body_bytes, content_type, *extra_headers)
    received = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        type(self).received.append(
            {
                "raw": body,
                "json": json.loads(body),
                "auth": self.headers.get("Authorization"),
            }
        )
        if type(self).script:
            status, payload, ctype, *extra = type(self).script.pop(0)
        else:
            status, payload, ctype = 200, b'{"fill": "default"}', "application/json"
            extra = []
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        for name, value in extra:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_service():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    _Handler.script = []
    _Handler.received = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/complete", _Handler
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def _request(temp=0.8):
    # the body of `fn main() {}`, which renders to `fn main() {<infill>}`
    body = next(v for v in cloze("fn main() {}") if v.span.kind is BracketKind.BRACE)
    return CompletionRequest(variant=body, temperature=temp, max_tokens=64)


def test_request_is_a_view_of_its_variant():
    request = _request()
    assert render(request.variant, DEFAULT_SENTINEL) == "fn main() {<infill>}"
    assert request.variant.original_interior == ""
    # a backend renders the masked text with its own sentinel; the
    # request keeps none
    assert set(vars(request)) == {"variant", "temperature", "max_tokens"}


def test_http_backend_wire_format(http_service, monkeypatch):
    url, handler = http_service
    monkeypatch.setenv("INFILL_API_TOKEN", "sekrit")
    handler.script = [(200, b'{"fill": "loop {}"}', "application/json")]
    backend = HttpBackend(url)
    assert backend.complete(_request()) == "loop {}"
    seen = handler.received[0]
    assert seen["json"] == {
        "masked_text": "fn main() {<infill>}",
        "sentinel": "<infill>",
        "temperature": 0.8,
        "max_tokens": 64,
    }
    assert seen["auth"] == "Bearer sekrit"
    # byte for byte the body sent when a request held its masked text
    assert seen["raw"] == (
        b'{"masked_text": "fn main() {<infill>}", "sentinel": "<infill>", '
        b'"temperature": 0.8, "max_tokens": 64}'
    )


def test_http_backend_no_token_no_auth_header(http_service, monkeypatch):
    url, handler = http_service
    monkeypatch.delenv("INFILL_API_TOKEN", raising=False)
    backend = HttpBackend(url)
    backend.complete(_request())
    assert handler.received[0]["auth"] is None


def test_http_backend_retries_server_errors(http_service):
    url, handler = http_service
    handler.script = [
        (500, b"downstream exploded", "text/plain"),
        (200, b'{"fill": "recovered"}', "application/json"),
    ]
    backend = HttpBackend(url, max_retries=3)
    assert backend.complete(_request()) == "recovered"
    assert len(handler.received) == 2


def test_http_backend_backs_off_only_before_a_retry(http_service, monkeypatch):
    url, handler = http_service
    handler.script = [(503, b"busy", "text/plain")] * 3
    sleeps = []
    monkeypatch.setattr("clozefuzz.infill.time.sleep", sleeps.append)
    with pytest.raises(BackendError, match="after 3 attempts: HTTP 503"):
        HttpBackend(url, max_retries=3).complete(_request())
    assert len(handler.received) == 3
    assert sleeps == [0.1, 0.2]


def test_http_backend_waits_out_a_rate_limit(http_service, monkeypatch):
    url, handler = http_service
    handler.script = [
        (429, b"slow down", "text/plain", ("Retry-After", "7")),
        (200, b'{"fill": "patient"}', "application/json"),
    ]
    sleeps = []
    monkeypatch.setattr("clozefuzz.infill.time.sleep", sleeps.append)
    assert HttpBackend(url, max_retries=2).complete(_request()) == "patient"
    assert len(handler.received) == 2
    assert sleeps == [7.0]


def test_http_backend_client_error_is_protocol_error(http_service):
    url, handler = http_service
    handler.script = [(400, b"bad request", "text/plain")]
    with pytest.raises(BackendError):
        HttpBackend(url).complete(_request())


def test_http_backend_rejects_non_json_and_missing_fill(http_service):
    url, handler = http_service
    handler.script = [(200, b"<html>hi</html>", "text/html")]
    with pytest.raises(BackendError):
        HttpBackend(url).complete(_request())
    handler.script = [(200, b'{"completion": "wrong key"}', "application/json")]
    with pytest.raises(BackendError):
        HttpBackend(url).complete(_request())


def test_http_backend_unreachable_is_transport_error():
    backend = HttpBackend("http://127.0.0.1:9/complete", max_retries=2, timeout=0.5)
    with pytest.raises(BackendError):
        backend.complete(_request())


# --- replay cache -------------------------------------------------------------


def test_replay_records_then_replays_without_inner(tmp_path):
    inner = MockBackend(["recorded fill"])
    recording = ReplayBackend(tmp_path / "cache", inner=inner)
    assert recording.complete(_request()) == "recorded fill"
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1

    offline = ReplayBackend(tmp_path / "cache")
    assert offline.complete(_request()) == "recorded fill"
    assert len(inner.calls) == 1  # the replay never touched the inner backend


def test_replay_key_is_unchanged(tmp_path):
    # the file name a cache recorded before requests became views, so
    # recorded caches keep replaying
    inner = MockBackend(["recorded fill"])
    ReplayBackend(tmp_path / "cache", inner=inner).complete(_request())
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [
        "b29183d3a9c9f23712d069b7c87a6757_t0.8.json"
    ]


def test_replay_miss_without_inner_raises(tmp_path):
    offline = ReplayBackend(tmp_path / "cache")
    with pytest.raises(BackendError):
        offline.complete(_request())


@pytest.mark.parametrize("torn", ['{"fi', '{"other": 1}', "[]", ""])
def test_a_torn_replay_entry_is_asked_again_and_rewritten(tmp_path, torn):
    inner = MockBackend(["fresh fill"])
    backend = ReplayBackend(tmp_path / "cache", inner=inner)
    entry = backend._key_path(_request())
    entry.write_text(torn, encoding="utf-8")
    assert backend.complete(_request()) == "fresh fill"
    assert len(inner.calls) == 1
    assert json.loads(entry.read_text(encoding="utf-8")) == {"fill": "fresh fill"}
    # written through a temporary file that is renamed into place
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [entry.name]


def test_a_torn_replay_entry_without_inner_is_a_backend_error(tmp_path):
    backend = ReplayBackend(tmp_path / "cache")
    backend._key_path(_request()).write_text('{"fi', encoding="utf-8")
    with pytest.raises(BackendError, match="no recorded completion"):
        backend.complete(_request())


def test_replay_key_varies_with_temperature_bucket(tmp_path):
    inner = MockBackend(["one", "two"])
    backend = ReplayBackend(tmp_path / "cache", inner=inner)
    assert backend.complete(_request(temp=0.2)) == "one"
    assert backend.complete(_request(temp=0.9)) == "two"
    assert backend.complete(_request(temp=0.2)) == "one"  # cache hit
    assert len(inner.calls) == 2


def test_backend_from_spec_shapes(tmp_path):
    assert backend_from_spec({"kind": "echo"}).backend_id == "echo"
    mock = backend_from_spec({"kind": "mock", "fills": ["x"], "sentinel": "@@"})
    assert mock.backend_id == "mock" and mock.sentinel == "@@"
    http = backend_from_spec({"kind": "http", "url": "http://x/y"})
    assert http.backend_id == "http"
    replay = backend_from_spec(
        {"kind": "replay", "cache_dir": str(tmp_path), "inner": {"kind": "echo"}}
    )
    assert replay.backend_id == "replay" and replay.inner.backend_id == "echo"
    for bad in (
        {"kind": "zeppelin"},
        {"kind": "http"},
        {"kind": "http", "url": "http://x/y", "max_retries": 0},
        {"kind": "replay"},
        {"kind": "mock"},
        {"kind": "mock", "fills": []},
        {"kind": "mock", "fills": "abc"},
        {"kind": "mock", "fills": [1, 2]},
        {"kind": "mock", "fills": ["ok", None]},
    ):
        with pytest.raises(ValueError):
            backend_from_spec(bad)


def test_a_replay_spec_gives_its_sentinel_to_its_inner_backend(tmp_path):
    spec = {
        "kind": "replay",
        "cache_dir": str(tmp_path / "cache"),
        "sentinel": "<FILL>",
        "inner": {"kind": "mock", "fills": ["x"]},
    }
    replay = backend_from_spec(spec)
    assert replay.sentinel == replay.inner.sentinel == "<FILL>"
    default = backend_from_spec({**spec, "sentinel": DEFAULT_SENTINEL})
    replay.complete(_request())
    # what is keyed is what the sentinel renders, so the two differ
    assert default._key_path(_request()).name != replay._key_path(_request()).name
    assert replay._key_path(_request()).is_file()
