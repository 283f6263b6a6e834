"""Seeded synthetic interaction archives for the benchmark.

The archive structure (repos, individuals per repo, persona per slot, bot
placement) is fixed by the workload; the seed only moves event counts, kind
draws, timestamps, commit messages and file lists. That keeps the cost of a
run nearly the same from seed to seed while the inputs differ.

Every archive comes with the exact counts a correct program must report, so
the checker needs no second implementation of the metrics.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from pathlib import Path

KINDS = ("CommitCreated", "IssueCreated", "IssueClosed", "IssueAssigned",
         "PRCreated", "PRClosed")

# The reference persona profiles the program labels against. An individual's
# kind mix is drawn from its persona's centroid (six RC means, in KINDS order)
# and its activity level from the centroid's mean.
PERSONAS_JSON = (Path(__file__).resolve().parent.parent
                 / "src" / "persona_miner" / "data" / "personas.json")


@functools.cache
def persona_centroids() -> dict[str, tuple[float, ...]]:
    profiles = json.loads(PERSONAS_JSON.read_text("utf-8"))["profiles"]
    return {p["name"]: tuple(p["centroid"]) for p in profiles}


# Persona per repo slot, rotated by repo index: one heavy contributor, a few
# middling ones, and a tail of occasional and ephemeral ones.
_SLOT_CYCLE = (
    "Active Contributor", "Low-Process Closer", "Low-Coding Closer",
    "Moderate Contributor", "Project Organiser", "Occasional Contributor",
    "Occasional Contributor", "Ephemeral Contributor", "Ephemeral Contributor",
    "Ephemeral Contributor",
)
_HEAVY = ("Active Contributor", "Low-Process Closer", "Low-Coding Closer")

_VERBS = ("fix", "add", "update", "refactor", "remove", "implement", "merge",
          "bump", "release", "docs", "tidy", "improve", "revert", "wip")
_OBJECTS = ("parser crash", "plotting module", "unit tests", "README",
            "CI workflow", "data loader", "version", "spectra fit",
            "config defaults", "typo", "memory leak", "api docs")
_FILE_POOL = tuple(
    [f"src/mod{i:03d}.py" for i in range(120)]
    + [f"tests/test_mod{i:03d}.py" for i in range(60)]
    + [f"docs/page{i:02d}.md" for i in range(40)]
    + [f"data/table{i:02d}.csv" for i in range(30)]
    + [f"figs/plot{i:02d}.png" for i in range(20)]
    + ["README.md", "setup.cfg", "pyproject.toml", "Makefile", ".gitignore",
       ".github/workflows/ci.yml", "locales/de.po", "CITATION.cff",
       "environment.yml", "Dockerfile"]
)
_BOTS = ("dependabot[bot]", "github-actions[bot]")


@dataclass(frozen=True)
class ArchiveSpec:
    """Shape of one workload's archive; the seed fills in the rest."""

    n_repos: int
    individuals_per_repo: int
    mean_events: float  # per non-bot individual
    bot_every: int  # one bot in every bot_every-th repo
    bot_events: int


def _file_count(rng: random.Random) -> int:
    u = rng.random()
    if u < 0.88:
        return rng.randint(1, 5)
    if u < 0.98:
        return rng.randint(6, 25)
    if u < 0.997:
        return rng.randint(26, 125)
    return rng.randint(126, 200)


def _event_line(repo: str, actor: str, kind: str, day: int, hour: int,
                subject: str, rng: random.Random) -> str:
    month_days = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
    month = 0
    while day >= month_days[month]:
        day -= month_days[month]
        month += 1
    obj = {
        "type": "event",
        "repo": repo,
        "actor": actor,
        "kind": kind,
        "timestamp": f"2023-{month + 1:02d}-{day + 1:02d}T{hour:02d}:00:00Z",
        "subject_id": subject,
    }
    if kind == "CommitCreated":
        obj["payload"] = {
            "message": f"{rng.choice(_VERBS)} {rng.choice(_OBJECTS)}",
            "changed_files": rng.sample(_FILE_POOL, _file_count(rng)),
        }
    return json.dumps(obj)


def _kind_counts(rng: random.Random, persona: str, n_events: int) -> list[int]:
    weights = [c + 1.0 for c in persona_centroids()[persona]]
    counts = [0] * len(KINDS)
    for idx in rng.choices(range(len(KINDS)), weights=weights, k=n_events):
        counts[idx] += 1
    return counts


def write_archive(path: Path, spec: ArchiveSpec, seed: int) -> dict:
    """Write a JSON Lines archive to ``path``; return the expected counts.

    Within a repo no two individuals share a kind-count vector, so no two
    metric rows of one repo coincide and Ward never meets exact ties there.
    """
    rng = random.Random(seed)
    centroids = persona_centroids()
    mean_activity = sum(sum(centroids[p]) for p in _SLOT_CYCLE) / len(_SLOT_CYCLE)
    expected = {
        "events_by_kind": dict.fromkeys(KINDS, 0),
        "nonbot_events_by_kind": dict.fromkeys(KINDS, 0),
        "individuals": 0,
        "bots": 0,
        "upset": {},
        "nonbot_upset": {},
    }
    lines = [json.dumps({"format": "persona-miner-archive", "version": 1})]
    for r in range(spec.n_repos):
        repo = f"org{r % 7}/project{r:04d}"
        people: list[tuple[str, list[int]]] = []
        seen: set[tuple[int, ...]] = set()
        for j in range(spec.individuals_per_repo):
            persona = _SLOT_CYCLE[(3 * r + j) % len(_SLOT_CYCLE)]
            if j == 0:
                persona = _HEAVY[r % len(_HEAVY)]
            scale = sum(centroids[persona]) / mean_activity
            n_events = max(1, round(spec.mean_events * scale * rng.uniform(0.7, 1.3)))
            counts = _kind_counts(rng, persona, n_events)
            while tuple(counts) in seen:
                counts[rng.randrange(len(KINDS))] += 1
            seen.add(tuple(counts))
            people.append((f"dev{j:02d}", counts))
        if spec.bot_every and r % spec.bot_every == 0:
            bot = _BOTS[(r // spec.bot_every) % len(_BOTS)]
            people.append((bot, [spec.bot_events // 2, 0, 0, 0,
                                 spec.bot_events - spec.bot_events // 2, 0]))

        repo_lines = []
        serial = 0
        for login, counts in people:
            is_bot = login.endswith("[bot]")
            combo = "+".join(k for k, c in zip(KINDS, counts) if c > 0)
            expected["individuals"] += 1
            expected["bots"] += is_bot
            expected["upset"][combo] = expected["upset"].get(combo, 0) + 1
            if not is_bot:
                expected["nonbot_upset"][combo] = expected["nonbot_upset"].get(combo, 0) + 1
            for kind, count in zip(KINDS, counts):
                expected["events_by_kind"][kind] += count
                if not is_bot:
                    expected["nonbot_events_by_kind"][kind] += count
                for _ in range(count):
                    serial += 1
                    subject = f"{serial:08x}" if kind == "CommitCreated" else str(serial)
                    repo_lines.append(_event_line(repo, login, kind,
                                                  rng.randrange(365),
                                                  rng.randrange(24), subject, rng))
        lines.append(json.dumps({"type": "repo", "repo": repo,
                                 "fetched_at": "2024-06-01T00:00:00Z",
                                 "incomplete": False,
                                 "n_events": len(repo_lines)}))
        lines.extend(repo_lines)
    Path(path).write_text("\n".join(lines) + "\n", "utf-8")
    expected["events"] = sum(expected["events_by_kind"].values())
    expected["commits"] = expected["events_by_kind"]["CommitCreated"]
    return expected
