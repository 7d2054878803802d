"""Bug-tracker mining: fetch issues, pull fenced code out of them.

Two sources yield one record shape: a directory of JSON fixtures (the
default in tests, never touches the network) and the live issue API of
a hosted repository; ``harvest`` takes either stream. One ISO-8601
reader, ``parse_time``, reads ``--until`` and every ``created_at``.
The API is read through ``infill.request_json``, so mining retries
under the completion backend's one policy, and a fetch that fails
after it is a ``MiningError`` naming its page or issue. Snippet
extraction understands backtick and tilde fences with an optional
info-string; only blocks marked rust-ish or not marked at all are kept.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import Corpus
from .infill import BackendError, request_json

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


def parse_time(text: str) -> datetime:
    """An ISO-8601 date or time, such as ``--until``'s or a record's
    ``created_at``. ``Z`` means UTC, and so does a time without a zone.
    A text that is no such time is a ValueError."""
    when = datetime.fromisoformat(text.replace("Z", "+00:00"))
    return when if when.tzinfo else when.replace(tzinfo=timezone.utc)


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
    created = data.get("created_at")
    try:
        created_at = parse_time(str(created)) if created else None
    except ValueError:
        raise MiningError(f"{where}: issue {number} has a bad created_at") from None
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
        created_at=created_at,
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


def _get_json(session, url: str, context: str, **kwargs):
    try:
        return request_json(session, "GET", url, timeout=60, **kwargs)
    except BackendError as exc:
        raise MiningError(f"fetch failed at {context}: {exc}") from exc


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
            sess, f"{base_url}/repos/{repo}/issues", f"page {page}",
            attempts=max_retries, params=params, headers=headers,
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
                    sess, item["comments_url"], f"comments of issue {record.number}",
                    attempts=max_retries, headers=headers,
                    params={"per_page": page_size},
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
_FENCE_CLOSE_RE = re.compile(r"^ {0,3}(`{3,}|~{3,})[ \t]*$")


def _fenced_blocks(text: str) -> list[tuple[str, str]]:
    """(info-string, body) for every properly closed fence in a doc, in
    linear time: an unclosed opener is skipped without a scan."""
    lines = text.split("\n")
    # each line's closing fence, or "" for a line that closes none
    closers = [m.group(1) if m else "" for m in map(_FENCE_CLOSE_RE.match, lines)]
    # longest[char][i]: the longest closing fence of ``char`` in lines[i:]
    longest = {char: [0] * (len(lines) + 1) for char in "`~"}
    for i in reversed(range(len(lines))):
        for char, after in longest.items():
            own = len(closers[i]) if closers[i][:1] == char else 0
            after[i] = max(own, after[i + 1])
    blocks: list[tuple[str, str]] = []
    i = 0
    while i < len(lines):
        m = _FENCE_OPEN_RE.match(lines[i])
        if not m:
            i += 1
            continue
        fence, info = m.group(1), m.group(2).strip()
        if (fence[0] == "`" and "`" in info) or longest[fence[0]][i + 1] < len(fence):
            # backtick fences cannot carry backticks in the info string,
            # and an unclosed fence is malformed; skip the opener
            i += 1
            continue
        j = i + 1
        while not (closers[j][:1] == fence[0] and len(closers[j]) >= len(fence)):
            j += 1
        blocks.append((info, "\n".join(lines[i + 1 : j])))
        i = j + 1
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


def harvest(corpus: Corpus, issues: Iterable[IssueRecord]) -> int:
    """Mine the snippets of ``issues`` into a corpus; returns how many
    entries are new.

    An error of the issue stream propagates, but everything harvested
    before it stays in the corpus.
    """
    inserted = 0
    for issue in issues:
        for snippet in extract_snippets(issue):
            _, new = corpus.add_entry(snippet.text, "issue-mined")
            inserted += int(new)
    return inserted
