"""GitHub REST v3 client producing a repository's interaction events.

Event attribution rules:
- commits go to the platform login when present, else a synthetic identity
  derived from the lowercased author email;
- an issue-API record counts as an issue only when it lacks a pull_request
  linkage (the issues API also returns PRs);
- issue closure is attributed to the closing actor, assignment once per
  (issue, assignee) pair, PR closure to the merging actor when merged, else
  the closing actor, else the PR author.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterator, Optional

from .errors import RetryableFetchError
from .models import (
    CommitPayload,
    InteractionEvent,
    InteractionSet,
    parse_utc,
)
from .transport import Transport

logger = logging.getLogger(__name__)

GITHUB_API = "https://api.github.com"
PAGE_SIZE = 100  # the REST API's largest per_page


def commit_identity(commit_obj: dict) -> Optional[str]:
    """Resolve a commit to a stable actor identity.

    Prefers the platform login; falls back to a synthetic identity built from
    the lowercase-normalized author email so no interaction is dropped.
    """
    author = commit_obj.get("author")
    if author and author.get("login"):
        return author["login"]
    email = (commit_obj.get("commit", {}).get("author") or {}).get("email", "")
    email = email.strip().lower()
    if email:
        return f"email:{email}"
    return None


@dataclass
class GitHubClient:
    transport: Transport

    def _paginate(self, url: str, params: Optional[dict] = None) -> Iterator[dict]:
        params = dict(params or {})
        params["per_page"] = PAGE_SIZE
        page = 1
        while True:
            params["page"] = page
            resp = self.transport.get(url, params=params)
            if resp.status >= 400:
                raise RetryableFetchError(f"HTTP {resp.status} from {url}")
            items = resp.body or []
            if not items:
                return
            yield from items
            if len(items) < PAGE_SIZE:
                return
            page += 1

    def _repo_url(self, slug: str, *parts: str) -> str:
        return "/".join([GITHUB_API, "repos", slug, *parts])

    # -- interactions -----------------------------------------------------

    def fetch_interactions(self, slug: str,
                           now: Optional[datetime] = None) -> InteractionSet:
        """Fetch all six event kinds for a public repository.

        A failed sub-fetch marks the set incomplete rather than silently
        truncating it.
        """
        events: list[InteractionEvent] = []
        incomplete = False
        try:
            events.extend(self._commit_events(slug))
            events.extend(self._issue_events(slug))
            events.extend(self._pr_events(slug))
        except RetryableFetchError:
            logger.warning("partial fetch for %s", slug)
            incomplete = True
        return InteractionSet(
            repo=slug,
            events=tuple(events),
            fetched_at=now or datetime.now(timezone.utc),
            incomplete=incomplete,
        )

    def _commit_events(self, slug: str) -> Iterator[InteractionEvent]:
        for commit in self._paginate(self._repo_url(slug, "commits")):
            actor = commit_identity(commit)
            if actor is None:
                logger.warning("commit %s has no resolvable author; skipped",
                               commit.get("sha"))
                continue
            sha = commit["sha"]
            message = commit.get("commit", {}).get("message", "")
            changed: tuple[str, ...] = ()
            detail = self.transport.get(self._repo_url(slug, "commits", sha))
            if detail.status < 400 and detail.body:
                names = (f.get("filename") for f in detail.body.get("files") or ())
                changed = tuple(p for p in dict.fromkeys(names) if p)
            yield InteractionEvent(
                actor=actor,
                kind="CommitCreated",
                timestamp=parse_utc(commit["commit"]["author"]["date"]),
                subject_id=sha,
                payload=CommitPayload(message=message, changed_files=changed),
            )

    def _issue_events(self, slug: str) -> Iterator[InteractionEvent]:
        for issue in self._paginate(self._repo_url(slug, "issues"),
                                    {"state": "all"}):
            if "pull_request" in issue:
                continue  # the issues API returns PRs too; keep types disjoint
            number = str(issue["number"])
            user = (issue.get("user") or {}).get("login")
            if user:
                yield InteractionEvent(
                    actor=user,
                    kind="IssueCreated",
                    timestamp=parse_utc(issue["created_at"]),
                    subject_id=number,
                )
            assigned_pairs: set[str] = set()
            closed_emitted = False
            for ev in self._paginate(self._repo_url(slug, "issues", number, "events")):
                etype = ev.get("event")
                if etype == "assigned":
                    assignee = (ev.get("assignee") or {}).get("login")
                    if assignee and assignee not in assigned_pairs:
                        assigned_pairs.add(assignee)
                        yield InteractionEvent(
                            actor=assignee,
                            kind="IssueAssigned",
                            timestamp=parse_utc(ev["created_at"]),
                            subject_id=number,
                        )
                elif etype == "closed" and not closed_emitted:
                    closer = (ev.get("actor") or {}).get("login")
                    if closer:
                        closed_emitted = True
                        yield InteractionEvent(
                            actor=closer,
                            kind="IssueClosed",
                            timestamp=parse_utc(ev["created_at"]),
                            subject_id=number,
                        )

    def _pr_events(self, slug: str) -> Iterator[InteractionEvent]:
        for pr in self._paginate(self._repo_url(slug, "pulls"), {"state": "all"}):
            number = str(pr["number"])
            user = (pr.get("user") or {}).get("login")
            if user:
                yield InteractionEvent(
                    actor=user,
                    kind="PRCreated",
                    timestamp=parse_utc(pr["created_at"]),
                    subject_id=number,
                )
            if pr.get("state") == "closed" and pr.get("closed_at"):
                closer = self._pr_closer(slug, pr, number) or user
                if closer:
                    yield InteractionEvent(
                        actor=closer,
                        kind="PRClosed",
                        timestamp=parse_utc(pr["closed_at"]),
                        subject_id=number,
                    )

    def _pr_closer(self, slug: str, pr: dict, number: str) -> Optional[str]:
        if pr.get("merged_at"):
            detail = self.transport.get(self._repo_url(slug, "pulls", number))
            if detail.status < 400 and detail.body:
                merged_by = (detail.body.get("merged_by") or {}).get("login")
                if merged_by:
                    return merged_by
        for ev in self._paginate(self._repo_url(slug, "issues", number, "events")):
            if ev.get("event") == "closed":
                actor = (ev.get("actor") or {}).get("login")
                if actor:
                    return actor
        return None
