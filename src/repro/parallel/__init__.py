"""``repro.parallel`` — deterministic sweep parallelism + result cache.

The paper's results are sweeps (Tables III–VIII sweep batch size, page
size, replication and core counts; fault campaigns sweep seeds), and
every sweep point is an independent, deterministic simulation.  This
package turns that into wall-clock headroom:

* :func:`run_jobs` / :func:`sweep_results` — a process-pool engine with
  stable job ordering (``-j N`` output is byte-identical to ``-j 1``),
  crash isolation, and per-job observability records;
* :class:`ResultCache` — an on-disk content-addressed cache keyed on
  (repro version, canonical config JSON, seed), so re-running an
  unchanged sweep point is a disk read;
* :class:`JobSpec` / :func:`register_kind` — picklable job descriptions.

See ``docs/parallel_sweeps.md`` for the design and the determinism
contract.
"""

from repro.parallel.cache import (
    CACHE_SCHEMA,
    ResultCache,
    cache_version,
    canonical_config_json,
    default_cache_dir,
    job_key,
    resolve_cache,
)
from repro.parallel.engine import (
    JobOutcome,
    JobRecord,
    SweepJobError,
    outcomes_trace,
    render_job_report,
    resolve_jobs,
    run_jobs,
    set_default_jobs,
    summary_line,
    sweep_results,
)
from repro.parallel.jobs import (
    JobKind,
    JobSpec,
    all_kinds,
    execute_spec,
    get_kind,
    register_kind,
)

__all__ = [
    "CACHE_SCHEMA",
    "JobKind",
    "JobOutcome",
    "JobRecord",
    "JobSpec",
    "ResultCache",
    "SweepJobError",
    "all_kinds",
    "cache_version",
    "canonical_config_json",
    "default_cache_dir",
    "execute_spec",
    "get_kind",
    "job_key",
    "outcomes_trace",
    "register_kind",
    "render_job_report",
    "resolve_cache",
    "resolve_jobs",
    "run_jobs",
    "set_default_jobs",
    "summary_line",
    "sweep_results",
]
