"""Minimal HTTP transport layer with retries and a token bucket.

Clients are written against the tiny :class:`Transport` protocol so tests can
substitute canned fixture responses without a network stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Optional, Protocol

from .errors import RateBudgetError, RetryableFetchError

MAX_RETRIES = 4
BACKOFF_BASE = 1.0  # seconds; attempt i waits BACKOFF_BASE * 2**i
TIMEOUT = 30.0  # seconds per request


@dataclass
class Response:
    status: int
    body: Any  # decoded JSON, or None


class Transport(Protocol):
    def get(self, url: str, params: Optional[dict] = None) -> Response: ...


class TokenBucket:
    """Token bucket limiting the request rate of a fetch."""

    def __init__(self, capacity: float, refill_per_sec: float,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self.capacity = float(capacity)
        self.refill_per_sec = float(refill_per_sec)
        self._tokens = float(capacity)
        self._last = clock()
        self._clock = clock
        self._sleep = sleep

    def acquire(self) -> None:
        while True:
            now = self._clock()
            self._tokens = min(
                self.capacity,
                self._tokens + (now - self._last) * self.refill_per_sec,
            )
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            wait = (1.0 - self._tokens) / self.refill_per_sec
            self._sleep(wait)


def _retry_after(value: Optional[str], backoff: float) -> float:
    """Seconds a Retry-After header asks to wait: RFC 9110's delay-seconds (a
    run of ASCII digits), or an HTTP date to wait until; without the header, or
    with neither, ``backoff``."""
    if value is not None and value.isascii() and value.isdigit():
        return float(value)
    from email.utils import parsedate_to_datetime

    try:
        until = parsedate_to_datetime(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: a year past C long
        return backoff
    if until.tzinfo is None:  # a "-0000" zone: UTC by convention
        until = until.replace(tzinfo=timezone.utc)
    return max(0.0, (until - datetime.now(timezone.utc)).total_seconds())


@dataclass
class RequestsTransport:
    """Live transport backed by ``requests`` with exponential backoff.

    Retries transient failures (5xx, connection errors) and secondary rate
    limits (429 / Retry-After); raises :class:`RateBudgetError` when the
    primary rate limit is exhausted.
    """

    headers: dict[str, str] = field(default_factory=dict)
    bucket: Optional[TokenBucket] = None
    sleep: Callable[[float], None] = time.sleep

    def get(self, url: str, params: Optional[dict] = None) -> Response:
        import requests

        last_error: object = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:  # only a try that follows a failed one waits
                try:
                    self.sleep(wait)
                except (OverflowError, OSError) as exc:  # a wait the platform cannot sleep
                    raise RateBudgetError(f"cannot wait {wait} s to retry {url}: "
                                          f"{exc}") from exc
            if self.bucket is not None:
                self.bucket.acquire()
            wait = BACKOFF_BASE * 2**attempt  # unless a Retry-After says otherwise
            try:
                resp = requests.get(
                    url, params=params, headers=self.headers, timeout=TIMEOUT
                )
            except requests.RequestException as exc:
                last_error = exc
                continue

            headers = resp.headers  # not copied: it matches header names in any case
            if resp.status_code == 403 and headers.get("X-RateLimit-Remaining") == "0":
                raise RateBudgetError(
                    f"rate limit exhausted for {url}",
                    reset_at=headers.get("X-RateLimit-Reset"),
                )
            if resp.status_code == 429 or (
                resp.status_code == 403 and "Retry-After" in headers
            ):
                last_error = f"HTTP {resp.status_code}"
                wait = _retry_after(headers.get("Retry-After"), wait)
                continue
            if resp.status_code >= 500:
                last_error = f"HTTP {resp.status_code}"
                continue

            body = None
            if resp.content:
                try:
                    body = resp.json()
                except ValueError:
                    body = None
            return Response(status=resp.status_code, body=body)
        raise RetryableFetchError(f"giving up on {url} after retries: {last_error}")
