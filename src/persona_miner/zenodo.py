"""Zenodo search client: the GitHub repository of each open software record."""

from __future__ import annotations

import logging
import re
from typing import Optional

from .errors import RetryableFetchError
from .transport import Transport

logger = logging.getLogger(__name__)

ZENODO_API = "https://zenodo.org/api/records"
# open-access software records with a related identifier naming github.com;
# the server filters on all three, so hits are not checked again here
QUERY = ('resource_type.type:software AND access_right:open '
         'AND related_identifiers.identifier:"github.com"')
PAGE_SIZE = 100

# owner/name after github.com, dropping deeper path segments and .git suffixes
_GITHUB_URL_RE = re.compile(
    r"https?://(?:www\.)?github\.com/([^/\s?#]+)/([^/\s?#]+)",
    re.IGNORECASE,
)


def _github_slug(hit: dict) -> Optional[str]:
    """The first related URL of a hit parseable as github.com/owner/name, or
    None when no URL matches; this is not an error."""
    for rel in hit.get("metadata", {}).get("related_identifiers", []):
        m = _GITHUB_URL_RE.search(rel.get("identifier") or "")
        if m:
            owner, name = m.group(1), m.group(2).removesuffix(".git")
            if name:
                return f"{owner}/{name}"
    return None


def discover_github_slugs(transport: Transport, page_limit: int) -> list[str]:
    """Page through at most ``page_limit`` pages of the Zenodo search and
    return the GitHub repository of each hit that names one, in hit order.

    Malformed hits are logged and skipped; the batch never aborts on a single
    bad record. Transport failures propagate as retryable errors.
    """
    slugs: list[str] = []
    for page in range(1, page_limit + 1):
        resp = transport.get(
            ZENODO_API, params={"q": QUERY, "size": PAGE_SIZE, "page": page}
        )
        if resp.status >= 400:
            raise RetryableFetchError(
                f"Zenodo query failed with HTTP {resp.status} on page {page}"
            )
        hits = (resp.body or {}).get("hits", {}).get("hits", [])
        if not hits:
            break
        for hit in hits:
            try:
                slug = _github_slug(hit)
            except (AttributeError, TypeError) as exc:
                logger.warning("skipping malformed Zenodo record: %s", exc)
                continue
            if slug is not None:
                slugs.append(slug)
        if len(hits) < PAGE_SIZE:
            break
    return slugs
