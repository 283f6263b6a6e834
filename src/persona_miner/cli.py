"""Command-line front-end wiring the pipeline stages.

Exit codes: 0 success, 2 config error, 3 network error, 4 data validation
error; the ``main`` group maps every command's package errors onto them.
The API token is read from the PERSONA_MINER_TOKEN environment variable for
live fetches.
"""

from __future__ import annotations

import gc
import logging
import os
import sys

import click

from .archive import load_archive, save_archive
from .cluster import agglomerate, cut, members, select_k
from .commit_classify import classify_archive, write_classification_csv
from .errors import (
    ConfigError,
    PersonaMinerError,
    RateBudgetError,
    RetryableFetchError,
    check_makeable_dir,
    make_dir,
    write_csv,
)
from .github import GitHubClient
from .metrics import metric_table, read_metrics_csv, write_metrics_csv
from .models import check_slug
from .personas import assign_persona, load_profiles, write_personas_csv
from .pipeline import check_k_range, feature_matrix, run_pipeline
from .report import read_labels_csv, write_labels_csv, write_reports
from .sampling import screen_summaries, subsample, write_eligibility_report
from .simgen import generate
from .stats import stats_block, write_stats_json
from .transport import RequestsTransport, TokenBucket
from .zenodo import discover_github_slugs

EXIT_CONFIG = 2
EXIT_NETWORK = 3
EXIT_DATA = 4

_bot_deny_list_option = click.option(
    "--bot-deny-list", multiple=True, metavar="LOGIN",
    help="A login flagged as a bot besides those ending in [bot]; repeatable.")
# every input option names an existing file: a directory there is exit 2
_input_file = click.Path(exists=True, dir_okay=False)
# and an output directory that exists as a file is exit 2, before anything is read
_output_dir = click.Path(file_okay=False)


class _MainGroup(click.Group):
    """Maps a package error from any command onto the documented exit codes."""

    def invoke(self, ctx):
        gc_was_enabled = gc.isenabled()
        gc.disable()  # its collections walk all a command builds and free next to nothing
        try:
            return super().invoke(ctx)
        except PersonaMinerError as exc:
            click.echo(f"error: {exc}", err=True)
            if isinstance(exc, ConfigError):
                sys.exit(EXIT_CONFIG)
            if isinstance(exc, (RetryableFetchError, RateBudgetError)):
                sys.exit(EXIT_NETWORK)
            sys.exit(EXIT_DATA)
        finally:
            gc.enable() if gc_was_enabled else gc.disable()


def _live_transport() -> RequestsTransport:
    headers = {"Accept": "application/vnd.github+json"}
    token = os.environ.get("PERSONA_MINER_TOKEN")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return RequestsTransport(
        headers=headers,
        bucket=TokenBucket(capacity=10, refill_per_sec=1.0),
    )


@click.group(cls=_MainGroup)
@click.option("--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool):
    """Mine repository interactions, cluster contributors, assign personas."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.option("--page-limit", default=5, show_default=True)
@click.option("--repos", help="Comma-separated owner/name list to fetch directly.")
@click.option("--output", "output_path", required=True, type=click.Path())
def fetch(page_limit: int, repos: str | None, output_path: str):
    """Fetch interaction data into an offline archive (network required)."""
    gc.enable()  # its time is network time, and each retried request leaves cycles
    transport = _live_transport()
    client = GitHubClient(transport=transport)
    if repos:
        slugs = [check_slug(r.strip()) for r in repos.split(",") if r.strip()]
    else:
        slugs = discover_github_slugs(transport, page_limit)
    # Zenodo often holds one record per release of the same repository; fetch
    # and archive each repository once, under its first spelling (slugs that
    # differ only in case name one repository)
    first_slugs: dict[str, str] = {}
    for slug in slugs:
        first_slugs.setdefault(slug.lower(), slug)
    slugs = list(first_slugs.values())
    sets = []
    try:
        for slug in slugs:
            sets.append(client.fetch_interactions(slug))
    except RateBudgetError as exc:
        # the repositories fetched in full before the budget ran out are kept
        save_archive(sets, output_path)
        reset = (f"; the rate limit resets at Unix time {exc.reset_at}"
                 if exc.reset_at else "")
        raise RateBudgetError(f"{exc}; archived {len(sets)} of {len(slugs)} repositories "
                              f"to {output_path}{reset}", exc.reset_at) from exc
    save_archive(sets, output_path)
    click.echo(f"archived {len(sets)} repositories to {output_path}")


@main.command("filter")
@click.option("--summaries", "summaries_path", required=True, type=_input_file,
              help="JSON list of repo summaries to evaluate.")
@click.option("--fraction", default=1.0, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--output", "output_path", required=True, type=click.Path())
def filter_cmd(summaries_path: str, fraction: float, seed: int, output_path: str):
    """Apply the seven inclusion criteria and seeded sub-sampling."""
    decisions = screen_summaries(summaries_path)
    eligible = [slug for slug, failed in decisions if not failed]
    picked = subsample(eligible, fraction, seed)
    write_eligibility_report(decisions, output_path)
    click.echo(f"{len(eligible)} eligible; sampled {len(picked)}")
    for slug in picked:
        click.echo(slug)


@main.command()
@click.option("--archive", "archive_path", required=True, type=_input_file)
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--exclude-bots", is_flag=True)
@_bot_deny_list_option
def metrics(archive_path: str, output_path: str, exclude_bots: bool,
            bot_deny_list: tuple[str, ...]):
    """Compute the ten-feature metric table from an archive."""
    _individuals, vectors = metric_table(load_archive(archive_path), exclude_bots,
                                         frozenset(bot_deny_list))
    write_metrics_csv(vectors, output_path)
    click.echo(f"wrote {len(vectors)} metric rows to {output_path}")


@main.command()
@click.option("--archive", "archive_path", required=True, type=_input_file)
@click.option("--output", "output_path", required=True, type=click.Path())
def classify(archive_path: str, output_path: str):
    """Classify commits by message, size, and changed-file types."""
    rows = classify_archive(load_archive(archive_path))
    write_classification_csv(rows, output_path)
    click.echo(f"classified {len(rows)} commits")


@main.command()
@click.option("--metrics", "metrics_path", required=True, type=_input_file)
@click.option("--k-min", default=2, show_default=True)
@click.option("--k-max", default=10, show_default=True)
@click.option("--labels-output", required=True, type=click.Path())
@click.option("--dendrogram-output", type=click.Path())
def cluster(metrics_path: str, k_min: int, k_max: int, labels_output: str,
            dendrogram_output: str | None):
    """Cluster metric vectors and emit labels (and optionally the merge tree)."""
    check_k_range(k_min, k_max)
    vectors = read_metrics_csv(metrics_path)
    rows = feature_matrix(vectors)
    k_best, _scores = select_k(rows, k_min=k_min, k_max=k_max)
    dendro = agglomerate(rows)
    write_labels_csv(vectors, cut(dendro, k_best), (0,) * len(vectors), labels_output)
    if dendrogram_output:
        dendro.save_json(dendrogram_output)
    click.echo(f"k={k_best} clusters over {len(vectors)} rows")


@main.command()
@click.option("--metrics", "metrics_path", required=True, type=_input_file)
@click.option("--labels", "labels_path", required=True, type=_input_file)
@click.option("--output", "output_path", required=True, type=click.Path())
def analyze(metrics_path: str, labels_path: str, output_path: str):
    """Validate a clustering: PCA, feature importance, per-feature ANOVA/Tukey."""
    vectors = read_metrics_csv(metrics_path)
    labels = read_labels_csv(labels_path, vectors)
    write_stats_json(stats_block(feature_matrix(vectors), members(labels)), output_path)
    click.echo(f"analysis written to {output_path}")


@main.command()
@click.option("--metrics", "metrics_path", required=True, type=_input_file)
@click.option("--profiles", "profiles_path", type=_input_file)
@click.option("--output", "output_path", required=True, type=click.Path())
def assign(metrics_path: str, profiles_path: str | None, output_path: str):
    """Direct-mode persona assignment: nearest centroid per individual."""
    vectors = read_metrics_csv(metrics_path)
    profiles = load_profiles(profiles_path)
    write_personas_csv(vectors, [assign_persona(v, profiles) for v in vectors], output_path)
    click.echo(f"assigned personas to {len(vectors)} individuals")


@main.command()
@click.option("--archive", "archive_path", required=True, type=_input_file)
@click.option("--labels", "labels_path", type=_input_file)
@click.option("--output-dir", required=True, type=_output_dir)
@click.option("--exclude-bots", is_flag=True)
@_bot_deny_list_option
def report(archive_path: str, labels_path: str | None, output_dir: str,
           exclude_bots: bool, bot_deny_list: tuple[str, ...]):
    """Emit totals, UpSet counts, and composition from an archive."""
    check_makeable_dir(output_dir)
    individuals, _vectors = metric_table(load_archive(archive_path), exclude_bots,
                                         frozenset(bot_deny_list))
    labels = read_labels_csv(labels_path, individuals) if labels_path else \
        (0,) * len(individuals)
    out = make_dir(output_dir)
    write_reports(individuals, labels, out)
    click.echo(f"reports written to {out}")


@main.command()
@click.option("--profiles", "profiles_path", type=_input_file)
@click.option("--count", default=200, show_default=True, help="Rows per profile.")
@click.option("--noise-sd", default=2.0, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--metrics-output", required=True, type=click.Path())
@click.option("--truth-output", type=click.Path())
def simulate(profiles_path: str | None, count: int, noise_sd: float, seed: int,
             metrics_output: str, truth_output: str | None):
    """Generate synthetic metric vectors around persona centroids."""
    vectors, truth = generate(load_profiles(profiles_path), count=count,
                              noise_sd=noise_sd, seed=seed)
    write_metrics_csv(vectors, metrics_output)
    if truth_output:
        write_csv(truth_output, ["login", "archetype"],
                  ([v.login, name] for v, name in zip(vectors, truth)))
    click.echo(f"generated {len(vectors)} synthetic rows")


@main.command()
@click.option("--archive", "archive_path", required=True, type=_input_file)
@click.option("--output-dir", default="out", show_default=True, type=_output_dir)
@click.option("--seed", default=0, show_default=True, help="Recorded in the run manifest.")
@click.option("--exclude-bots", is_flag=True)
@click.option("--k-min", default=2, show_default=True)
@click.option("--k-max", default=10, show_default=True)
@click.option("--profiles", "profiles_path", type=_input_file)
@_bot_deny_list_option
def run(archive_path: str, output_dir: str, seed: int, exclude_bots: bool, k_min: int,
        k_max: int, profiles_path: str | None, bot_deny_list: tuple[str, ...]):
    """Run the full pipeline: metrics, clustering, stats, personas, reports."""
    n_individuals, initial_k = run_pipeline(
        archive_path, output_dir, seed=seed, k_min=k_min, k_max=k_max,
        persona_profile_path=profiles_path, exclude_bots=exclude_bots,
        bot_deny_list=bot_deny_list)
    click.echo(f"pipeline complete: {n_individuals} individuals, "
               f"k={initial_k}, outputs in {output_dir}")


if __name__ == "__main__":
    main()
