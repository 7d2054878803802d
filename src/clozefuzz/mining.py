"""Bug-tracker mining: fetch issues, pull fenced code out of them.

Two sources share one record shape: a directory of JSON fixtures (the
default in tests, never touches the network) and the live issue API of
a hosted repository. Snippet extraction understands backtick and tilde
fences with an optional info-string; only blocks marked rust-ish or
not marked at all are kept.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator, Sequence

from .corpus import Corpus

logger = logging.getLogger(__name__)

DEFAULT_LABELS = ("C-bug", "T-compiler")
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


class MiningError(Exception):
    pass


@dataclass
class IssueRecord:
    number: int
    body: str
    labels: list[str] = field(default_factory=list)
    state: str = "open"
    comments: list[str] = field(default_factory=list)
    created_at: datetime | None = None


@dataclass(frozen=True)
class ExtractedSnippet:
    issue_number: int
    ordinal: int
    text: str


def _parse_when(value) -> datetime | None:
    if not value:
        return None
    try:
        return datetime.fromisoformat(str(value).replace("Z", "+00:00"))
    except ValueError:
        return None


def _issue_from_dict(data, where: str) -> IssueRecord:
    """One issue record; a malformed one raises MiningError naming ``where``."""
    try:
        number = int(data["number"])
    except (KeyError, TypeError, ValueError):
        raise MiningError(f"{where}: not an issue object with a number") from None
    raw_labels = data.get("labels", [])
    if not isinstance(raw_labels, list):
        raise MiningError(f"{where}: issue {number} has no label list")
    labels = []
    for label in raw_labels:
        name = label.get("name") if isinstance(label, dict) else str(label)
        if not isinstance(name, str):
            raise MiningError(f"{where}: issue {number} has a nameless label")
        labels.append(name)
    body = data.get("body") or ""
    if not isinstance(body, str):
        raise MiningError(f"{where}: issue {number} has a body that is not text")
    comments = []
    raw_comments = data.get("comments", [])
    if isinstance(raw_comments, (list, tuple)):
        # the hosted API's list endpoint puts an integer count here
        # instead; comment bodies then arrive via comments_url
        for comment in raw_comments:
            if isinstance(comment, dict):
                comments.append(str(comment.get("body") or ""))
            else:
                comments.append(str(comment))
    return IssueRecord(
        number=number,
        body=body,
        labels=labels,
        state=data.get("state") or "open",
        comments=comments,
        created_at=_parse_when(data.get("created_at")),
    )


def _wanted(
    issue: IssueRecord,
    labels: Sequence[str],
    state: str | None,
    until: datetime | None,
) -> bool:
    if state and state != "all" and issue.state != state:
        return False
    if not set(labels).issubset(set(issue.labels)):
        return False
    if until is not None:
        created = issue.created_at or _EPOCH
        if created >= until:
            return False
    return True


def fetch_issues_fixture(
    fixture_dir: str | Path,
    labels: Sequence[str] = DEFAULT_LABELS,
    state: str | None = "closed",
    until: datetime | None = None,
) -> Iterator[IssueRecord]:
    """Read issue records from a directory of JSON files."""
    root = Path(fixture_dir)
    if not root.is_dir():
        raise MiningError(f"fixture directory not found: {root}")
    for path in sorted(root.glob("*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise MiningError(f"bad fixture {path}: {exc}") from exc
        issue = _issue_from_dict(data, str(path))
        if _wanted(issue, labels, state, until):
            yield issue


def _get_json(session, url: str, params, headers, max_retries: int, context: str):
    import requests

    last_error: Exception | None = None
    delay = 0.0
    for attempt in range(max_retries):
        # only a retry waits: nothing follows the last attempt
        if attempt:
            time.sleep(delay)
        try:
            resp = session.get(url, params=params, headers=headers, timeout=60)
        except requests.RequestException as exc:
            last_error = exc
            delay = min(2**attempt, 8) * 0.1
            continue
        if resp.status_code in (403, 429):
            # a Retry-After in seconds, clamped; its date form or junk waits 1 s
            try:
                delay = float(resp.headers.get("Retry-After", ""))
            except ValueError:
                delay = 1.0
            delay = min(max(delay, 0.0), 60.0) if math.isfinite(delay) else 1.0
            logger.warning("rate limited at %s; Retry-After %.1fs", context, delay)
            last_error = MiningError(f"rate limited ({resp.status_code})")
            continue
        if resp.status_code != 200:
            raise MiningError(f"fetch failed at {context}: HTTP {resp.status_code}")
        try:
            return resp.json()
        except ValueError as exc:
            raise MiningError(f"non-JSON response at {context}") from exc
    raise MiningError(f"fetch failed at {context} after {max_retries} attempts: {last_error}")


def fetch_issues_http(
    repo: str,
    labels: Sequence[str] = DEFAULT_LABELS,
    state: str | None = "closed",
    until: datetime | None = None,
    page_size: int = 100,
    base_url: str = "https://api.github.com",
    session=None,
    max_retries: int = 3,
) -> Iterator[IssueRecord]:
    """Page through a hosted repository's issue API.

    Errors carry the page number so an interrupted crawl can resume.
    Pull requests masquerading as issues are skipped. A bearer token is
    sent when ``ISSUE_API_TOKEN`` is set.
    """
    import requests

    sess = session or requests.Session()
    headers = {"Accept": "application/vnd.github+json"}
    token = os.environ.get("ISSUE_API_TOKEN", "")
    if token:
        headers["Authorization"] = f"Bearer {token}"

    page = 1
    while True:
        params = {
            "state": state or "all",
            "labels": ",".join(labels),
            "per_page": page_size,
            "page": page,
        }
        items = _get_json(
            sess,
            f"{base_url}/repos/{repo}/issues",
            params,
            headers,
            max_retries,
            f"page {page}",
        )
        if not isinstance(items, list):
            raise MiningError(f"unexpected issue list shape at page {page}")
        if not items:
            return
        for item in items:
            if isinstance(item, dict) and "pull_request" in item:
                continue
            record = _issue_from_dict(item, f"page {page}")
            if item.get("comments") and item.get("comments_url"):
                comment_items = _get_json(
                    sess,
                    item["comments_url"],
                    {"per_page": page_size},
                    headers,
                    max_retries,
                    f"comments of issue {record.number}",
                )
                if not isinstance(comment_items, list) or not all(
                    isinstance(c, dict) for c in comment_items
                ):
                    raise MiningError(f"unexpected comment list of issue {record.number}")
                record.comments = [str(c.get("body") or "") for c in comment_items]
            if _wanted(record, labels, state, until):
                yield record
        if len(items) < page_size:
            return
        page += 1


_FENCE_OPEN_RE = re.compile(r"^ {0,3}(`{3,}|~{3,})[ \t]*(.*)$")


def _fenced_blocks(text: str) -> list[tuple[str, str]]:
    """(info-string, body) for every properly closed fence in a doc."""
    lines = text.split("\n")
    blocks: list[tuple[str, str]] = []
    i = 0
    while i < len(lines):
        m = _FENCE_OPEN_RE.match(lines[i])
        if not m:
            i += 1
            continue
        fence, info = m.group(1), m.group(2).strip()
        if fence[0] == "`" and "`" in info:
            # backtick fences cannot carry backticks in the info string
            i += 1
            continue
        close_re = re.compile(rf"^ {{0,3}}{re.escape(fence[0])}{{{len(fence)},}}[ \t]*$")
        body: list[str] = []
        j = i + 1
        closed = False
        while j < len(lines):
            if close_re.match(lines[j]):
                closed = True
                break
            body.append(lines[j])
            j += 1
        if closed:
            blocks.append((info, "\n".join(body)))
            i = j + 1
        else:
            # unclosed fence is malformed; skip the opener and move on
            i += 1
    return blocks


def _is_rust_info(info: str) -> bool:
    return info == "" or info.lower().startswith("rust")


def extract_snippets(issue: IssueRecord) -> list[ExtractedSnippet]:
    """Rust-looking fenced blocks from an issue body and its comments.

    Inline code spans are ignored; only fenced blocks carry whole
    programs. Ordinals number the kept snippets per issue.
    """
    snippets: list[ExtractedSnippet] = []
    for doc in [issue.body, *issue.comments]:
        for info, body in _fenced_blocks(doc or ""):
            if not _is_rust_info(info):
                continue
            if not body.strip():
                continue
            snippets.append(
                ExtractedSnippet(
                    issue_number=issue.number,
                    ordinal=len(snippets),
                    text=body,
                )
            )
    return snippets


def harvest(
    corpus: Corpus,
    fixture_dir: str | Path | None = None,
    repo: str | None = None,
    labels: Sequence[str] = DEFAULT_LABELS,
    state: str | None = "closed",
    until: datetime | None = None,
    **http_kwargs,
) -> int:
    """Mine snippets into a corpus; returns how many entries are new.

    Exactly one of fixture_dir and repo must be given. Fetch errors
    propagate, but everything harvested before the failure stays in
    the corpus.
    """
    if (fixture_dir is None) == (repo is None):
        raise MiningError("give exactly one of fixture_dir or repo")
    if fixture_dir is not None:
        issues = fetch_issues_fixture(fixture_dir, labels, state, until)
    else:
        issues = fetch_issues_http(repo, labels, state, until, **http_kwargs)
    inserted = 0
    for issue in issues:
        for snippet in extract_snippets(issue):
            _, new = corpus.add_entry(snippet.text, "issue-mined")
            inserted += int(new)
    return inserted
