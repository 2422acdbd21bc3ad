"""Request canonicalization: service JSON → :class:`JobSpec` values.

The daemon's dedup guarantees rest entirely on one property: a request
canonicalizes to the **same cache fingerprint** the CLI computes for the
same simulation.  Explicit jobs go through :func:`repro.sim.jobs.job_spec`,
the canonicalization ``repro run`` itself uses, and bench families through
the matrix expansion ``repro bench`` uses.

A submission payload is JSON with either explicit job specs, bench
families, or both::

    {
      "client": "alice",                  // optional; header wins
      "jobs": [
        {"kind": "single", "workload": "MM", "policy": "least-tlb",
         "config": "baseline", "scale": 0.2, "seed": 0,
         "backend": "functional",
         "options": {"timeline": 5000}}
      ],
      "benches": ["fig02*"],              // glob/substring, like --only
      "scale": 0.2, "seed": 0,            // matrix-wide for "benches"
      "backend": "event"
    }

Semantics mirror the CLI exactly:

* explicit jobs follow ``repro run`` (see :mod:`repro.sim.jobs`): ``kind``
  is inferred from a workload name when omitted, ``config`` names a
  preset and a non-null ``seed`` derives the config seed; a ``trace``
  job's workload is a path to a k6/mase trace file on the server's
  filesystem, and its GPU ``split`` policy rides in ``options``;
* ``benches`` follow ``repro bench``: families expand through
  :func:`repro.sim.parallel.expand_matrix` with the request's
  scale/seed/backend, producing fingerprints identical to a local
  ``repro bench`` of the same flags (shared persistent cache entries).

Anything malformed raises :class:`RequestError` (→ HTTP 400) with a
message naming the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

# ``job_spec`` builds a TelemetryConfig for a ``timeline`` option; load it
# with the daemon so no request imports on its event loop.
import repro.telemetry  # noqa: F401
from repro.sim.jobs import (
    DEFAULT_SCALE,
    RequestError,
    check_backend,
    check_scale,
    check_seed,
    infer_kind,
    job_spec,
    require,
    spec_request,
)
from repro.sim.parallel import JobSpec, expand_matrix, select_benches

__all__ = [
    "ADHOC_BENCH",
    "MAX_JOBS_PER_REQUEST",
    "ParsedRequest",
    "RequestError",
    "infer_kind",
    "parse_job",
    "parse_request",
    "spec_request",
]

#: Upper bound on jobs a single submission may expand to.
MAX_JOBS_PER_REQUEST = 2048

#: Label used for explicit (non-bench) jobs in task listings.
ADHOC_BENCH = "adhoc"

#: The fields of an explicit job object: :func:`job_spec`'s keywords.
_JOB_FIELDS = frozenset({
    "kind", "workload", "policy", "config", "scale", "seed", "backend", "options",
})


@dataclass(frozen=True)
class ParsedRequest:
    """One canonicalized submission."""

    client: str | None
    """The ``client`` field of the payload (``None`` → caller identity
    falls back to the ``X-Repro-Client`` header, then ``"anon"``)."""

    pairs: tuple[tuple[str, JobSpec], ...]
    """``(bench_label, spec)`` pairs, matrix-style (pre-dedup)."""


def parse_job(payload: Any) -> JobSpec:
    """Canonicalize one explicit job object to a :class:`JobSpec`."""
    require(isinstance(payload, dict), f"each job must be an object, got {payload!r}")
    unknown = set(payload) - _JOB_FIELDS
    require(not unknown, f"unknown job field(s): {', '.join(sorted(unknown))}")
    return job_spec(**payload)


def parse_request(payload: Any) -> ParsedRequest:
    """Canonicalize one submission payload into ``(bench, spec)`` pairs."""
    require(isinstance(payload, dict), "request body must be a JSON object")
    unknown = set(payload) - {
        "client", "jobs", "benches", "scale", "seed", "backend", "options",
    }
    require(not unknown, f"unknown request field(s): {', '.join(sorted(unknown))}")

    client = payload.get("client")
    if client is not None:
        require(isinstance(client, str) and 0 < len(client) <= 64,
                "client must be a non-empty string of at most 64 characters")

    pairs: list[tuple[str, JobSpec]] = []
    jobs = payload.get("jobs")
    if jobs is not None:
        require(isinstance(jobs, list) and bool(jobs), "jobs must be a non-empty array")
        for job in jobs:
            pairs.append((ADHOC_BENCH, parse_job(job)))

    benches = payload.get("benches")
    if benches is not None:
        require(isinstance(benches, list) and bool(benches),
                "benches must be a non-empty array of family patterns")
        scale = check_scale(payload.get("scale", DEFAULT_SCALE))
        seed = payload.get("seed")
        if seed is not None:
            seed = check_seed(seed)
        backend = check_backend(payload.get("backend", "event"))
        names: list[str] = []
        for pattern in benches:
            require(isinstance(pattern, str), "benches entries must be strings")
            try:
                matched = select_benches(pattern)
            except KeyError:
                raise RequestError(
                    f"bench pattern {pattern!r} matches no family"
                ) from None
            names.extend(n for n in matched if n not in names)
        pairs.extend(
            expand_matrix(names, scale=scale, seed=seed, backend=backend)
        )

    require(bool(pairs), "request must carry jobs and/or benches")
    require(len(pairs) <= MAX_JOBS_PER_REQUEST,
            f"request expands to {len(pairs)} jobs; the limit is "
            f"{MAX_JOBS_PER_REQUEST}")
    return ParsedRequest(client=client, pairs=tuple(pairs))
