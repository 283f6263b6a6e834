from unittest import mock

import pytest

from persona_miner.errors import RateBudgetError, RetryableFetchError
from persona_miner.transport import RequestsTransport, TokenBucket


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def test_token_bucket_allows_burst_then_waits():
    fake = FakeClock()
    bucket = TokenBucket(capacity=2, refill_per_sec=1.0,
                         clock=fake.clock, sleep=fake.sleep)
    bucket.acquire()
    bucket.acquire()
    assert fake.sleeps == []
    bucket.acquire()  # empty: must wait ~1s for a refill
    assert len(fake.sleeps) == 1
    assert fake.sleeps[0] == pytest.approx(1.0)


def _resp(status, headers=None, json_body=None):
    r = mock.Mock()
    r.status_code = status
    r.headers = headers or {}
    r.content = b"x" if json_body is not None else b""
    r.json.return_value = json_body
    return r


def test_success_returns_decoded_json():
    transport = RequestsTransport(sleep=lambda s: None)
    with mock.patch("requests.get", return_value=_resp(200, json_body={"a": 1})):
        response = transport.get("https://api.example/x")
    assert response.status == 200
    assert response.body == {"a": 1}


def test_retries_5xx_then_succeeds():
    sleeps = []
    transport = RequestsTransport(sleep=sleeps.append)
    responses = [_resp(502), _resp(503), _resp(200, json_body=[])]
    with mock.patch("requests.get", side_effect=responses) as getter:
        response = transport.get("https://api.example/x")
    assert response.status == 200
    assert getter.call_count == 3
    assert sleeps == [1.0, 2.0]  # exponential backoff


def test_gives_up_after_max_retries():
    sleeps = []
    transport = RequestsTransport(sleep=sleeps.append)
    with mock.patch("requests.get", return_value=_resp(500)) as getter:
        with pytest.raises(RetryableFetchError, match="after retries: HTTP 500$"):
            transport.get("https://api.example/x")
    assert getter.call_count == 5  # the first try and four retries
    assert sleeps == [1.0, 2.0, 4.0, 8.0]  # no sleep after the last try


def test_no_sleep_after_last_connection_error_or_429():
    import requests

    for effect, sleeps_wanted, message in (
        (requests.ConnectionError("boom"), [1.0, 2.0, 4.0, 8.0], "boom"),
        (_resp(429, headers={"Retry-After": "7"}), [7.0] * 4, "HTTP 429"),
    ):
        sleeps = []
        transport = RequestsTransport(sleep=sleeps.append)
        with mock.patch("requests.get", side_effect=[effect] * 5):
            with pytest.raises(RetryableFetchError, match=f"after retries: {message}$"):
                transport.get("https://api.example/x")
        assert sleeps == sleeps_wanted


def test_primary_rate_limit_raises_budget_error():
    headers = {"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "1717200000"}
    transport = RequestsTransport(sleep=lambda s: None)
    with mock.patch("requests.get", return_value=_resp(403, headers=headers)):
        with pytest.raises(RateBudgetError) as excinfo:
            transport.get("https://api.example/x")
    assert excinfo.value.reset_at == "1717200000"


def test_secondary_limit_honours_retry_after():
    sleeps = []
    transport = RequestsTransport(sleep=sleeps.append)
    responses = [_resp(429, headers={"Retry-After": "7"}),
                 _resp(200, json_body={})]
    with mock.patch("requests.get", side_effect=responses):
        response = transport.get("https://api.example/x")
    assert response.status == 200
    assert sleeps == [7.0]


@pytest.mark.parametrize("retry_after, wait", [
    ("Wed, 21 Oct 2015 07:28:00 GMT", 0.0),  # an HTTP date already past
    ("Wed, 21 Oct 2015 07:28:00 -0000", 0.0),  # the same, its zone unstated
    ("soon", 1.0),  # neither seconds nor a date: the first backoff wait
    # only a run of ASCII digits is delay-seconds; the rest are not dates either
    ("inf", 1.0), ("nan", 1.0), ("-5", 1.0), ("1.5", 1.0), ("\uff17", 1.0),
    ("Fri, 31 Dec 999999999999999999999 23:59:59 GMT", 1.0),  # a year past C long
    ("99999999999999999999", 1e20),  # asked for, but too long for time.sleep
])
def test_secondary_limit_retry_after_date_or_garbage(retry_after, wait):
    sleeps = []
    transport = RequestsTransport(sleep=sleeps.append)
    responses = [_resp(429, headers={"Retry-After": retry_after}),
                 _resp(200, json_body={})]
    with mock.patch("requests.get", side_effect=responses):
        response = transport.get("https://api.example/x")
    assert response.status == 200
    assert sleeps == [wait]


@pytest.mark.parametrize("retry_after", [
    "99999999999999999999", "10000000000", "Fri, 31 Dec 9999 23:59:59 GMT"])
def test_a_wait_too_long_to_sleep_is_a_budget_stop(retry_after):
    # the real time.sleep refuses these waits, before it sleeps at all
    transport = RequestsTransport()
    with mock.patch("requests.get", return_value=_resp(429, headers={
            "Retry-After": retry_after})) as getter:
        with pytest.raises(RateBudgetError, match="^cannot wait .* s to retry "
                           "https://api.example/x: ") as excinfo:
            transport.get("https://api.example/x")
    assert getter.call_count == 1
    assert excinfo.value.reset_at is None


def test_connection_error_retried():
    import requests

    transport = RequestsTransport(sleep=lambda s: None)
    effects = [requests.ConnectionError("boom"), _resp(200, json_body={})]
    with mock.patch("requests.get", side_effect=effects):
        assert transport.get("https://api.example/x").status == 200


def _resp_any_case(status, headers, json_body=None):
    """A response whose headers match names in any case, as requests' do."""
    from requests.structures import CaseInsensitiveDict

    return _resp(status, headers=CaseInsensitiveDict(headers), json_body=json_body)


def test_primary_rate_limit_read_from_lower_case_headers():
    headers = {"x-ratelimit-remaining": "0", "x-ratelimit-reset": "1717200000"}
    transport = RequestsTransport(sleep=lambda s: None)
    with mock.patch("requests.get", return_value=_resp_any_case(403, headers)):
        with pytest.raises(RateBudgetError) as excinfo:
            transport.get("https://api.example/x")
    assert excinfo.value.reset_at == "1717200000"


@pytest.mark.parametrize("status", [429, 403])
def test_lower_case_retry_after_is_honoured(status):
    sleeps = []
    transport = RequestsTransport(sleep=sleeps.append)
    responses = [_resp_any_case(status, {"retry-after": "7"}),
                 _resp_any_case(200, {}, json_body={})]
    with mock.patch("requests.get", side_effect=responses):
        response = transport.get("https://api.example/x")
    assert response.status == 200
    assert sleeps == [7.0]


def test_each_request_takes_a_token_from_the_bucket():
    fake = FakeClock()
    bucket = TokenBucket(capacity=1, refill_per_sec=1.0,
                         clock=fake.clock, sleep=fake.sleep)
    transport = RequestsTransport(bucket=bucket, sleep=lambda s: None)
    with mock.patch("requests.get", return_value=_resp(200, json_body=[])) as getter:
        transport.get("https://api.example/x")
        assert fake.sleeps == []
        transport.get("https://api.example/y")  # the bucket is empty: wait ~1 s
    assert getter.call_count == 2
    assert fake.sleeps == [pytest.approx(1.0)]


def test_a_body_that_is_not_json_reads_as_none():
    r = _resp(200)
    r.content = b"<html>busy</html>"
    r.json.side_effect = ValueError("Expecting value")
    transport = RequestsTransport(sleep=lambda s: None)
    with mock.patch("requests.get", return_value=r):
        response = transport.get("https://api.example/x")
    assert (response.status, response.body) == (200, None)
