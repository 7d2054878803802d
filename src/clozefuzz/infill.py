"""Completion backends and the infill loop.

A masked variant is sent off for completion with the backend's
sentinel; the fill is spliced back between the original delimiters to
form a candidate program. Fills that reproduce the seed are discarded,
as are duplicate candidates within one call.

A ``CompletionRequest`` is a view, like the ``MaskedVariant`` it
holds: its ``masked_text`` is rendered each time it is read, and
nothing keeps it. A backend that never reads it (``MockBackend``,
``EchoBackend``) never pays for it, and a log of requests holds one
seed text however many requests it keeps.

Spans inside feature-gate attributes get several attempts at randomly
drawn temperatures; everything else gets a single attempt at the base
temperature. Feature combinations are where historical miscompiles
cluster, so that extra budget is deliberate.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

from .masking import MaskedVariant, render

logger = logging.getLogger(__name__)

DEFAULT_SENTINEL = "<infill>"


class BackendError(Exception):
    pass


class BackendTransportError(BackendError):
    """Network-level failure; the attempt may be retried."""


class BackendProtocolError(BackendError):
    """The backend answered with something unusable.

    Carries the offending payload for diagnosis; not retryable.
    """

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


@dataclass(frozen=True)
class CompletionRequest:
    variant: MaskedVariant
    sentinel: str
    temperature: float
    max_tokens: int

    @property
    def masked_text(self) -> str:
        """The variant with the sentinel in its hole, built anew on
        every read."""
        return render(self.variant, self.sentinel)

    @property
    def original_interior(self) -> str:
        return self.variant.original_interior


@dataclass
class InfillConfig:
    time_max: int = 4
    base_temperature: float = 0.8
    max_fill_tokens: int = 256
    backend: object | None = None  # anything with .sentinel and .complete()

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


class MockBackend:
    """Deterministic scripted backend for tests and offline runs.

    Cycles through the given fills and logs every call it receives.
    """

    backend_id = "mock"

    def __init__(self, fills: list[str], sentinel: str = DEFAULT_SENTINEL):
        if not fills:
            raise ValueError("mock backend needs at least one fill")
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
        return request.original_interior


class HttpBackend:
    """JSON-over-HTTP completion service client.

    Request: {masked_text, sentinel, temperature, max_tokens}.
    Response: {fill}. A bearer token is sent when ``INFILL_API_TOKEN``
    is set. Transient transport failures are retried a bounded number
    of times with a short backoff.
    """

    backend_id = "http"

    def __init__(
        self,
        url: str,
        sentinel: str = DEFAULT_SENTINEL,
        timeout: float = 60.0,
        max_retries: int = 3,
        session=None,
    ):
        import requests

        self.url = url
        self.sentinel = sentinel
        self.timeout = timeout
        self.max_retries = max_retries
        self._session = session or requests.Session()
        self._requests = requests

    def complete(self, request: CompletionRequest) -> str:
        # built once per call, not once per retry
        body = {
            "masked_text": request.masked_text,
            "sentinel": request.sentinel,
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        token = os.environ.get("INFILL_API_TOKEN", "")
        if token:
            headers["Authorization"] = f"Bearer {token}"

        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            try:
                resp = self._session.post(
                    self.url, json=body, headers=headers, timeout=self.timeout
                )
            except self._requests.RequestException as exc:
                last_error = exc
                time.sleep(min(2**attempt, 8) * 0.1)
                continue
            if resp.status_code >= 500:
                last_error = BackendTransportError(
                    f"backend returned {resp.status_code}"
                )
                time.sleep(min(2**attempt, 8) * 0.1)
                continue
            if resp.status_code != 200:
                raise BackendProtocolError(
                    f"backend returned {resp.status_code}", payload=resp.text
                )
            try:
                data = resp.json()
            except ValueError as exc:
                raise BackendProtocolError(
                    "backend response is not JSON", payload=resp.text
                ) from exc
            if not isinstance(data, dict) or not isinstance(data.get("fill"), str):
                raise BackendProtocolError(
                    'backend response lacks a string "fill" field', payload=data
                )
            return data["fill"]
        raise BackendTransportError(
            f"backend unreachable after {self.max_retries} attempts: {last_error}"
        )


class ReplayBackend:
    """Record/replay cache around another backend.

    Keyed by (masked_text hash, temperature bucket), so the masked
    text is built once per lookup; hits never touch
    the inner backend, so a recorded campaign can rerun with no
    network at all.
    """

    backend_id = "replay"

    def __init__(self, cache_dir: str | Path, inner=None):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.inner = inner
        self.sentinel = inner.sentinel if inner is not None else DEFAULT_SENTINEL

    def _key_path(self, request: CompletionRequest) -> Path:
        digest = hashlib.sha256(
            f"{request.sentinel}\x00{request.masked_text}".encode("utf-8")
        ).hexdigest()
        bucket = f"{request.temperature:.1f}"
        return self.cache_dir / f"{digest[:32]}_t{bucket}.json"

    def complete(self, request: CompletionRequest) -> str:
        path = self._key_path(request)
        if path.is_file():
            return json.loads(path.read_text(encoding="utf-8"))["fill"]
        if self.inner is None:
            raise BackendProtocolError(
                f"no recorded completion for this request: {path.name}"
            )
        fill = self.inner.complete(request)
        path.write_text(json.dumps({"fill": fill}), encoding="utf-8")
        return fill


def infill(
    variant: MaskedVariant, cfg: InfillConfig, rng: random.Random
) -> list[InfillResult]:
    """Produce candidate programs for one masked variant.

    Special variants receive exactly ``time_max`` attempts at uniform
    random temperatures in [0, 1); others exactly one at the base
    temperature. Identity fills and intra-call duplicates are dropped.
    Transport failures skip the attempt and are only logged; protocol
    failures propagate.
    """
    backend = cfg.backend
    if backend is None:
        raise ValueError("infill requires a configured backend")
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
        request = CompletionRequest(
            variant=variant,
            sentinel=backend.sentinel,
            temperature=temperature,
            max_tokens=cfg.max_fill_tokens,
        )
        try:
            fill = backend.complete(request)
        except BackendTransportError as exc:
            logger.warning("infill attempt failed at transport level: %s", exc)
            continue
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
    "inner": {...}}. Optional "sentinel" everywhere.
    """
    kind = spec.get("kind")
    sentinel = spec.get("sentinel", DEFAULT_SENTINEL)
    if kind == "echo":
        return EchoBackend(sentinel=sentinel)
    if kind == "mock":
        return MockBackend(spec.get("fills", []), sentinel=sentinel)
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
        inner = backend_from_spec(spec["inner"]) if spec.get("inner") else None
        return ReplayBackend(spec["cache_dir"], inner=inner)
    raise ValueError(f"unknown backend kind: {kind!r}")
