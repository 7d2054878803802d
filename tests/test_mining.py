from __future__ import annotations

import json
import time
from datetime import datetime, timezone

import pytest

from clozefuzz.corpus import Corpus
from clozefuzz.mining import (
    IssueRecord,
    MiningError,
    extract_snippets,
    fetch_issues_fixture,
    fetch_issues_http,
    harvest,
    parse_time,
)


def issue(body="", comments=(), number=1, labels=("C-bug", "T-compiler")):
    return IssueRecord(
        number=number, body=body, labels=list(labels), comments=list(comments)
    )


class TestFenceExtraction:
    def test_basic_rust_fence(self):
        body = "Repro:\n```rust\nfn main() { crash(); }\n```\nThanks"
        snippets = extract_snippets(issue(body))
        assert [s.text for s in snippets] == ["fn main() { crash(); }"]
        assert snippets[0].issue_number == 1
        assert snippets[0].ordinal == 0

    def test_bare_fence_is_kept(self):
        body = "```\nfn main() {}\n```"
        assert [s.text for s in extract_snippets(issue(body))] == ["fn main() {}"]

    def test_foreign_languages_are_dropped(self):
        body = "```python\nprint('hi')\n```\n```text\nlog output\n```"
        assert extract_snippets(issue(body)) == []

    def test_rust_info_variants_are_kept(self):
        body = "```Rust\nfn a() {}\n```\n```rust,ignore\nfn b() {}\n```"
        assert [s.text for s in extract_snippets(issue(body))] == [
            "fn a() {}",
            "fn b() {}",
        ]

    def test_tilde_fence_may_contain_backticks(self):
        body = "~~~rust\nlet s = \"```\";\n~~~"
        assert [s.text for s in extract_snippets(issue(body))] == ['let s = "```";']

    def test_longer_fence_nests_shorter_one(self):
        body = "````rust\n```\ninner\n```\n````"
        assert [s.text for s in extract_snippets(issue(body))] == ["```\ninner\n```"]

    def test_closer_must_be_at_least_opener_length(self):
        body = "````rust\nfn main() {}\n```\n````"
        assert [s.text for s in extract_snippets(issue(body))] == ["fn main() {}\n```"]

    def test_unclosed_fence_is_skipped(self):
        body = "```rust\nfn dangling() {"
        assert extract_snippets(issue(body)) == []
        # a later well-formed fence still extracts (tilde opener stays
        # unclosed because backticks cannot close it)
        body = "~~~rust\nfn dangling() {\n```\nfn ok() {}\n```"
        texts = [s.text for s in extract_snippets(issue(body))]
        assert texts == ["fn ok() {}"]

    def test_backtick_info_with_backtick_is_not_a_fence(self):
        snippets = extract_snippets(issue("``` `inline` ```\nfn main() {}"))
        assert snippets == []

    def test_inline_code_is_ignored(self):
        assert extract_snippets(issue("use `rustc --emit=mir` to see it")) == []

    def test_blank_block_is_dropped(self):
        assert extract_snippets(issue("```rust\n\n   \n```")) == []

    def test_indentation_rules(self):
        kept = "   ```rust\nfn a() {}\n   ```"
        assert [s.text for s in extract_snippets(issue(kept))] == ["fn a() {}"]
        too_deep = "    ```rust\nfn b() {}\n    ```"
        assert extract_snippets(issue(too_deep)) == []

    def test_unclosed_openers_are_skipped_in_linear_time(self):
        # no backtick line closes any of the openers, so a forward scan
        # per opener would be quadratic in the body's lines
        body = "````\n" + "```x\n" * 8000 + "~~~rust\nfn ok() {}\n~~~"
        started = time.perf_counter()
        snippets = extract_snippets(issue(body))
        assert time.perf_counter() - started < 1.0
        assert [s.text for s in snippets] == ["fn ok() {}"]

    def test_ordinals_span_body_and_comments(self):
        body = "```rust\nfn one() {}\n```"
        comments = ["```rust\nfn two() {}\n```", "no code here", "```\nfn three() {}\n```"]
        snippets = extract_snippets(issue(body, comments))
        assert [(s.ordinal, s.text) for s in snippets] == [
            (0, "fn one() {}"),
            (1, "fn two() {}"),
            (2, "fn three() {}"),
        ]


def write_fixture(path, number, labels, state="closed", created=None, body="", comments=()):
    record = {
        "number": number,
        "title": f"issue {number}",
        "body": body,
        "labels": [{"name": name} for name in labels],
        "state": state,
        "comments": [{"body": c} for c in comments],
    }
    if created:
        record["created_at"] = created
    path.write_text(json.dumps(record), encoding="utf-8")


SNIPPET_A = "```rust\nfn a() { loop {} }\n```"
SNIPPET_B = "```rust\nfn b() {}\n```"


@pytest.fixture
def fixture_dir(tmp_path):
    d = tmp_path / "issues"
    d.mkdir()
    write_fixture(
        d / "0001.json", 1, ["C-bug", "T-compiler"], created="2020-01-01T00:00:00Z",
        body=SNIPPET_A,
    )
    write_fixture(
        d / "0002.json", 2, ["C-bug", "T-compiler"], state="open", body=SNIPPET_B
    )
    write_fixture(
        d / "0003.json", 3, ["C-bug"], created="2021-06-01T00:00:00Z", body=SNIPPET_B
    )
    write_fixture(
        d / "0004.json", 4, ["C-bug", "T-compiler", "regression"],
        created="2022-01-01T00:00:00Z", comments=[SNIPPET_B],
    )
    return d


class TestFixtureFetch:
    def test_label_and_state_filters(self, fixture_dir):
        numbers = [i.number for i in fetch_issues_fixture(fixture_dir)]
        # 2 is open, 3 lacks T-compiler; extra labels on 4 are fine
        assert numbers == [1, 4]

    def test_state_all_keeps_open_issues(self, fixture_dir):
        numbers = [i.number for i in fetch_issues_fixture(fixture_dir, state="all")]
        assert numbers == [1, 2, 4]

    def test_until_cutoff(self, fixture_dir):
        until = datetime(2021, 1, 1, tzinfo=timezone.utc)
        numbers = [i.number for i in fetch_issues_fixture(fixture_dir, until=until)]
        assert numbers == [1]

    def test_issue_without_date_counts_as_epoch(self, fixture_dir):
        until = datetime(1990, 1, 1, tzinfo=timezone.utc)
        numbers = [
            i.number
            for i in fetch_issues_fixture(fixture_dir, state="all", until=until)
        ]
        assert numbers == [2]  # only the dateless issue survives a 1990 cutoff

    def test_missing_dir_and_bad_json(self, tmp_path):
        with pytest.raises(MiningError):
            list(fetch_issues_fixture(tmp_path / "nope"))
        d = tmp_path / "issues"
        d.mkdir()
        (d / "broken.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(MiningError):
            list(fetch_issues_fixture(d))

    def test_plain_string_labels_and_comments(self, tmp_path):
        d = tmp_path / "issues"
        d.mkdir()
        (d / "i.json").write_text(
            json.dumps(
                {
                    "number": 9,
                    "labels": ["C-bug", "T-compiler"],
                    "state": "closed",
                    "comments": ["plain text comment"],
                }
            ),
            encoding="utf-8",
        )
        issues = list(fetch_issues_fixture(d))
        assert issues[0].labels == ["C-bug", "T-compiler"]
        assert issues[0].comments == ["plain text comment"]


class TestParseTime:
    UTC = timezone.utc

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("2024-01-01", datetime(2024, 1, 1, tzinfo=UTC)),
            ("2024-01-01T12:30:00", datetime(2024, 1, 1, 12, 30, tzinfo=UTC)),
            ("2024-01-01T12:30:00Z", datetime(2024, 1, 1, 12, 30, tzinfo=UTC)),
            ("2024-01-01T12:30:00+02:00", datetime(2024, 1, 1, 10, 30, tzinfo=UTC)),
        ],
    )
    def test_a_time_without_a_zone_is_utc(self, text, expected):
        assert parse_time(text) == expected
        assert parse_time(text).tzinfo is not None

    def test_other_text_is_a_value_error(self):
        with pytest.raises(ValueError):
            parse_time("not-a-date")

    def test_a_record_with_a_bad_created_at_is_malformed(self, tmp_path):
        write_fixture(tmp_path / "1.json", 1, ["C-bug", "T-compiler"], created="soon")
        with pytest.raises(MiningError, match="1.json: issue 1 has a bad created_at"):
            list(fetch_issues_fixture(tmp_path))


class TestHarvest:
    def test_harvest_from_fixtures(self, fixture_dir):
        corpus = Corpus()
        inserted = harvest(corpus, fetch_issues_fixture(fixture_dir))
        assert inserted == 2  # issue 1 body snippet + issue 4 comment snippet
        provs = {e.provenance for e in corpus.entries()}
        assert provs == {"issue-mined"}

    def test_harvest_is_idempotent(self, fixture_dir):
        corpus = Corpus()
        harvest(corpus, fetch_issues_fixture(fixture_dir))
        assert harvest(corpus, fetch_issues_fixture(fixture_dir)) == 0
        assert len(corpus) == 2


# --- hosted API paging through a stub session ---------------------------------


class StubResponse:
    def __init__(self, status_code, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class StubSession:
    """Duck-typed requests.Session that serves a scripted URL table."""

    def __init__(self, script):
        self.script = script  # list of (matcher, response) consumed in order
        self.requests = []

    def request(self, method, url, params=None, headers=None, timeout=None):
        assert method == "GET"
        self.requests.append({"url": url, "params": params, "headers": headers})
        for i, (matcher, response) in enumerate(self.script):
            if matcher(url, params or {}):
                self.script.pop(i)
                return response
        raise AssertionError(f"unexpected request: {url} {params}")


def api_issue(number, body, labels=("C-bug", "T-compiler"), **extra):
    return {
        "number": number,
        "title": f"t{number}",
        "body": body,
        "labels": [{"name": n} for n in labels],
        "state": "closed",
        "created_at": "2020-05-01T00:00:00Z",
        "comments": 0,
        **extra,
    }


def page_is(n):
    return lambda url, params: url.endswith("/issues") and params.get("page") == n


class TestHttpFetch:
    def test_paging_pr_skip_and_comment_fetch(self):
        comments_url = "https://api.example/repos/o/r/issues/11/comments"
        script = [
            (
                page_is(1),
                StubResponse(
                    200,
                    [
                        api_issue(10, SNIPPET_A),
                        api_issue(11, "", comments=2, comments_url=comments_url),
                    ],
                ),
            ),
            (
                lambda url, params: url == comments_url,
                StubResponse(200, [{"body": SNIPPET_B}, {"body": "just words"}]),
            ),
            (page_is(2), StubResponse(200, [api_issue(12, SNIPPET_B, pull_request={})])),
        ]
        session = StubSession(script)
        issues = list(
            fetch_issues_http("o/r", page_size=2, session=session, base_url="https://api.example")
        )
        assert [i.number for i in issues] == [10, 11]
        assert issues[1].comments == [SNIPPET_B, "just words"]
        assert not session.script  # every scripted response was consumed

    def test_short_page_ends_the_crawl(self):
        session = StubSession([(page_is(1), StubResponse(200, [api_issue(1, "")]))])
        issues = list(fetch_issues_http("o/r", page_size=50, session=session))
        assert len(issues) == 1
        assert len(session.requests) == 1

    def test_rate_limit_retries_with_retry_after(self):
        script = [
            (page_is(1), StubResponse(403, headers={"Retry-After": "0"})),
            (page_is(1), StubResponse(200, [])),
        ]
        session = StubSession(script)
        assert list(fetch_issues_http("o/r", session=session)) == []
        assert len(session.requests) == 2

    @pytest.mark.parametrize(
        "retry_after, delay",
        [("Wed, 21 Oct 2015 07:28:00 GMT", 1.0), ("-5", 0.0), ("nan", 1.0)],
    )
    def test_retry_after_is_a_bounded_number_of_seconds(
        self, retry_after, delay, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr("clozefuzz.infill.time.sleep", sleeps.append)
        script = [
            (page_is(1), StubResponse(429, headers={"Retry-After": retry_after})),
            (page_is(1), StubResponse(200, [])),
        ]
        assert list(fetch_issues_http("o/r", session=StubSession(script))) == []
        assert sleeps == [delay]

    def test_no_sleep_after_the_last_attempt(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("clozefuzz.infill.time.sleep", sleeps.append)
        limited = StubResponse(429, headers={"Retry-After": "7"})
        session = StubSession([(page_is(1), limited)] * 3)
        with pytest.raises(MiningError, match="after 3 attempts"):
            list(fetch_issues_http("o/r", session=session, max_retries=3))
        assert len(session.requests) == 3
        assert sleeps == [7.0, 7.0]

    def test_a_server_error_is_retried(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("clozefuzz.infill.time.sleep", sleeps.append)
        script = [
            (page_is(1), StubResponse(502)),
            (page_is(1), StubResponse(200, [api_issue(1, "")])),
        ]
        session = StubSession(script)
        assert [i.number for i in fetch_issues_http("o/r", session=session)] == [1]
        assert len(session.requests) == 2
        assert sleeps == [0.1]

    def test_a_403_without_retry_after_fails_at_once(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("clozefuzz.infill.time.sleep", sleeps.append)
        session = StubSession([(page_is(1), StubResponse(403))] * 3)
        with pytest.raises(MiningError, match="page 1: HTTP 403"):
            list(fetch_issues_http("o/r", session=session))
        assert len(session.requests) == 1
        assert sleeps == []

    def test_a_malformed_item_names_its_page(self):
        session = StubSession([(page_is(1), StubResponse(200, [[1, 2]]))])
        with pytest.raises(MiningError, match="page 1"):
            list(fetch_issues_http("o/r", session=session))

    def test_a_malformed_comment_list_is_a_mining_error(self):
        comments_url = "https://api.example/repos/o/r/issues/4/comments"
        script = [
            (
                page_is(1),
                StubResponse(200, [api_issue(4, "", comments=1, comments_url=comments_url)]),
            ),
            (
                lambda url, params: url == comments_url,
                StubResponse(200, {"message": "Not Found"}),
            ),
        ]
        with pytest.raises(MiningError, match="comment list of issue 4"):
            list(fetch_issues_http("o/r", session=StubSession(script)))

    def test_http_error_carries_page_context(self):
        session = StubSession([(page_is(1), StubResponse(404))])
        with pytest.raises(MiningError, match="page 1"):
            list(fetch_issues_http("o/r", session=session))

    def test_auth_header_from_env(self, monkeypatch):
        monkeypatch.setenv("ISSUE_API_TOKEN", "tok123")
        session = StubSession([(page_is(1), StubResponse(200, []))])
        list(fetch_issues_http("o/r", session=session))
        assert session.requests[0]["headers"]["Authorization"] == "Bearer tok123"
