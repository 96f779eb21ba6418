"""Campaign execution: parallel fan-out with content-addressed caching.

``repro.exec`` turns one-off profiling runs into repeatable campaigns:

* :mod:`~repro.exec.hashing` - stable job keys from (spec, machine
  config, code version);
* :mod:`~repro.exec.cache` - a ``results/cache/`` store of session
  digests keyed by those hashes;
* :mod:`~repro.exec.runner` - the scheduler: worker-pool fan-out,
  per-job timeout, bounded retries, structured per-job records;
* :mod:`~repro.exec.pool` - the warm :class:`WorkerPool` behind it, the
  only way a job runs outside the calling process: persistent
  forkserver workers, length-prefixed pipe protocol, per-worker job
  quotas, timeout-kill-respawn and typed spawn failure.

Most users want :func:`repro.api.run_many`, which wraps all of this.
"""

from .cache import (
    CACHE_DIR_ENV,
    CACHE_DISABLE_ENV,
    DEFAULT_CACHE_DIR,
    ResultCache,
    coerce_cache,
    default_cache,
)
from .hashing import (
    canonical_config,
    canonical_spec,
    code_fingerprint,
    cxl_node_id,
    job_key,
    local_node_id,
)
from .pool import WorkerPool
from .runner import (
    CampaignJob,
    CampaignResult,
    JobRecord,
    run_campaign,
)
from .scenarios import congestion_ab_jobs, fabric_matrix_jobs

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_DISABLE_ENV",
    "DEFAULT_CACHE_DIR",
    "CampaignJob",
    "CampaignResult",
    "JobRecord",
    "ResultCache",
    "WorkerPool",
    "canonical_config",
    "canonical_spec",
    "code_fingerprint",
    "coerce_cache",
    "congestion_ab_jobs",
    "cxl_node_id",
    "default_cache",
    "fabric_matrix_jobs",
    "job_key",
    "local_node_id",
    "run_campaign",
]
