"""Completion backends and the infill loop.

A masked variant is sent off for completion with the backend's
sentinel; the fill is spliced back between the original delimiters to
form a candidate program. Fills that reproduce the seed are discarded,
as are duplicate candidates within one call.

A ``CompletionRequest`` keeps no masked text: a backend that sends or
hashes it renders the variant with its own sentinel, so ``MockBackend``
and ``EchoBackend`` never pay for it, and a log of requests holds one
seed text however many requests it keeps.

A backend fails in one way, ``BackendError``, once its own retries are
spent. ``infill`` catches nothing: a failure ends the variant, and the
campaign counts it. Both HTTP clients, the backend and issue mining,
retry under the one policy of ``request_json``.

Spans inside feature-gate attributes get several attempts at randomly
drawn temperatures; everything else gets a single attempt at the base
temperature. Feature combinations are where historical miscompiles
cluster, so that extra budget is deliberate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .masking import MaskedVariant, render

DEFAULT_SENTINEL = "<infill>"


class BackendError(Exception):
    """A completion that could not be had, after the backend's retries."""


@dataclass(frozen=True)
class CompletionRequest:
    variant: MaskedVariant
    temperature: float
    max_tokens: int


@dataclass
class InfillConfig:
    backend: object  # anything with .sentinel and .complete()
    time_max: int = 4
    base_temperature: float = 0.8
    max_fill_tokens: int = 256

    def __post_init__(self) -> None:
        if self.time_max < 1:
            raise ValueError("time_max must be at least 1")
        if not 0.0 <= self.base_temperature <= 1.0:
            raise ValueError("base_temperature must lie in [0, 1]")
        if self.max_fill_tokens < 1:
            raise ValueError("max_fill_tokens must be at least 1")


@dataclass(frozen=True)
class InfillResult:
    candidate_text: str
    variant: MaskedVariant
    temperature: float


def request_json(session, method: str, url: str, *, attempts: int, **kwargs):
    """Send one HTTP request through ``session`` and return its JSON body.

    The one retry policy of both HTTP clients:

    - A transport error or a 5xx answer is retried after 0.1·2^(k−1) s
      before the k-th retry, capped at 0.8 s.
    - A 429, or a 403 that carries ``Retry-After``, is retried after
      that many seconds, clamped to [0, 60]; a value that is not a
      number, the HTTP-date form included, means 1 s.
    - Any other status but 200, or a body that is not JSON, fails at once.
    - The last attempt is never followed by a sleep.

    Every failure is a ``BackendError``; ``attempts`` must be at least 1.
    """
    import requests  # here, so that `import clozefuzz` never loads it

    for attempt in range(1, attempts + 1):
        delay = min(0.1 * 2 ** (attempt - 1), 0.8)
        try:
            resp = session.request(method, url, **kwargs)
        except requests.RequestException as exc:
            problem = str(exc)
        else:
            status = resp.status_code
            if status == 200:
                try:
                    return resp.json()
                except ValueError:
                    raise BackendError("response is not JSON") from None
            problem = f"HTTP {status}"
            if status == 429 or (status == 403 and "Retry-After" in resp.headers):
                try:
                    delay = float(resp.headers.get("Retry-After", ""))
                except ValueError:
                    delay = 1.0
                delay = min(max(delay, 0.0), 60.0) if math.isfinite(delay) else 1.0
            elif status < 500:
                raise BackendError(problem)
        if attempt < attempts:
            time.sleep(delay)
    raise BackendError(f"gave up after {attempts} attempts: {problem}")


class MockBackend:
    """Deterministic scripted backend for tests and offline runs.

    Cycles through the given fills and logs every call it receives.
    """

    backend_id = "mock"

    def __init__(self, fills: list[str], sentinel: str = DEFAULT_SENTINEL):
        texts = isinstance(fills, list) and all(isinstance(f, str) for f in fills)
        if not (texts and fills):
            raise ValueError("mock backend needs a non-empty list of string fills")
        self.fills = list(fills)
        self.sentinel = sentinel
        self.calls: list[CompletionRequest] = []
        self._cursor = 0

    def complete(self, request: CompletionRequest) -> str:
        self.calls.append(request)
        fill = self.fills[self._cursor % len(self.fills)]
        self._cursor += 1
        return fill


class EchoBackend:
    """Returns the original interior unchanged.

    Useful as a pipeline smoke test: every fill is filtered as an
    identity, so a healthy run produces zero candidates.
    """

    backend_id = "echo"

    def __init__(self, sentinel: str = DEFAULT_SENTINEL):
        self.sentinel = sentinel

    def complete(self, request: CompletionRequest) -> str:
        return request.variant.original_interior


class HttpBackend:
    """JSON-over-HTTP completion service client.

    Request: {masked_text, sentinel, temperature, max_tokens}.
    Response: {fill}. A bearer token is sent when ``INFILL_API_TOKEN``
    is set. Each call is one ``request_json`` of at most
    ``max_retries`` attempts under its retry policy; any failure is a
    ``BackendError``.
    """

    backend_id = "http"

    def __init__(
        self,
        url: str,
        sentinel: str = DEFAULT_SENTINEL,
        timeout: float = 60.0,
        max_retries: int = 3,
    ):
        import requests

        if max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        self.url = url
        self.sentinel = sentinel
        self.timeout = timeout
        self.max_retries = max_retries
        self._session = requests.Session()

    def complete(self, request: CompletionRequest) -> str:
        body = {
            "masked_text": render(request.variant, self.sentinel),
            "sentinel": self.sentinel,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        token = os.environ.get("INFILL_API_TOKEN", "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        data = request_json(
            self._session, "POST", self.url, attempts=self.max_retries,
            json=body, headers=headers, timeout=self.timeout,
        )
        try:
            return data["fill"]
        except (KeyError, TypeError):
            raise BackendError('backend response has no "fill" field') from None


class ReplayBackend:
    """Record/replay cache around another backend.

    Keyed by (masked text hash, temperature bucket), so the masked
    text is built once per lookup; hits never touch the inner backend,
    so a recorded campaign can rerun with no network at all. An entry
    that cannot be read or parsed, or has no fill, is a miss. Entries
    are written to a temporary file and renamed into place, so a
    reader never sees half of one.
    """

    backend_id = "replay"

    def __init__(self, cache_dir: str | Path, inner=None, sentinel=DEFAULT_SENTINEL):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.inner = inner
        self.sentinel = sentinel

    def _key_path(self, request: CompletionRequest) -> Path:
        keyed = f"{self.sentinel}\x00{render(request.variant, self.sentinel)}"
        digest = hashlib.sha256(keyed.encode("utf-8")).hexdigest()
        bucket = f"{request.temperature:.1f}"
        return self.cache_dir / f"{digest[:32]}_t{bucket}.json"

    def complete(self, request: CompletionRequest) -> str:
        path = self._key_path(request)
        try:
            return json.loads(path.read_text(encoding="utf-8"))["fill"]
        except (OSError, ValueError, KeyError, TypeError):
            pass  # not recorded, or torn: a miss
        if self.inner is None:
            raise BackendError(f"no recorded completion for this request: {path.name}")
        fill = self.inner.complete(request)
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fill": fill}))
        os.replace(tmp, path)
        return fill


def infill(
    variant: MaskedVariant, cfg: InfillConfig, rng: random.Random
) -> list[InfillResult]:
    """Produce candidate programs for one masked variant.

    Special variants receive exactly ``time_max`` attempts at uniform
    random temperatures in [0, 1); others exactly one at the base
    temperature. Identity fills and intra-call duplicates are dropped.
    Nothing is caught: a backend's ``BackendError`` ends the variant,
    and so does a fill that is not text encodable as UTF-8.
    """
    backend = cfg.backend
    if variant.special:
        temperatures = [rng.random() for _ in range(cfg.time_max)]
    else:
        temperatures = [cfg.base_temperature]

    # candidates share the variant's prefix and suffix, so a candidate
    # repeats the seed or an earlier one exactly when its fill does
    original = variant.original_interior
    results: list[InfillResult] = []
    seen: set[str] = {original}
    for temperature in temperatures:
        request = CompletionRequest(variant, temperature, cfg.max_fill_tokens)
        fill = backend.complete(request)
        if not isinstance(fill, str):
            raise BackendError(f"fill is not text: {type(fill).__name__}")
        # JSON carries lone surrogates, which no program file can hold
        try:
            fill.encode("utf-8")
        except UnicodeEncodeError:
            raise BackendError("fill is not encodable as UTF-8") from None
        if fill in seen:
            continue
        seen.add(fill)
        results.append(
            InfillResult(
                candidate_text=variant.prefix + fill + variant.suffix,
                variant=variant,
                temperature=temperature,
            )
        )
    return results


def backend_from_spec(spec: dict):
    """Build a backend from a small declarative description.

    Shapes: {"kind": "echo"}, {"kind": "mock", "fills": [...]},
    {"kind": "http", "url": ...}, {"kind": "replay", "cache_dir": ...,
    "inner": {...}}. Optional "sentinel" everywhere; a replay spec's
    sentinel is its inner backend's too, so what is sent is what is
    keyed.
    """
    kind = spec.get("kind")
    sentinel = spec.get("sentinel", DEFAULT_SENTINEL)
    if kind == "echo":
        return EchoBackend(sentinel=sentinel)
    if kind == "mock":
        return MockBackend(spec.get("fills"), sentinel=sentinel)
    if kind == "http":
        if not spec.get("url"):
            raise ValueError('http backend spec needs a "url"')
        return HttpBackend(
            spec["url"],
            sentinel=sentinel,
            timeout=float(spec.get("timeout", 60.0)),
            max_retries=int(spec.get("max_retries", 3)),
        )
    if kind == "replay":
        if not spec.get("cache_dir"):
            raise ValueError('replay backend spec needs a "cache_dir"')
        inner = spec.get("inner")
        if inner:
            inner = backend_from_spec({**inner, "sentinel": sentinel})
        return ReplayBackend(spec["cache_dir"], inner=inner or None, sentinel=sentinel)
    raise ValueError(f"unknown backend kind: {kind!r}")
