"""``python -m repro.server`` — run the repair server.

Examples::

    python -m repro.server --port 8433 --workers 4
    python -m repro.server --port 0 --store /tmp/repro-store --quiet
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..service.cli import finite_seconds
from ..service.scheduler import default_jobs
from ..service.store import default_store_dir
from .app import DEFAULT_MAX_BATCH_JOBS, ServerConfig
from .http import serve
from .queue import DEFAULT_MAX_PENDING, DEFAULT_WORKERS
from .ratelimit import DEFAULT_BURST, DEFAULT_RATE
from .sessions import DEFAULT_IDLE_TTL_S, DEFAULT_MAX_SESSIONS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve proof repair over HTTP/JSON.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8433,
        help="bind port (0 picks a free one; see the 'listening' line)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=max(default_jobs(), 4),
        metavar="N",
        help="warm-worker pool width (1 repairs in-process)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=f"result store directory (default: {default_store_dir()})",
    )
    parser.add_argument(
        "--no-store",
        action="store_true",
        help="disable the result-store cache tier",
    )
    parser.add_argument(
        "--store-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="bound the store to N records (LRU eviction)",
    )
    parser.add_argument(
        "--max-sessions",
        type=int,
        default=DEFAULT_MAX_SESSIONS,
        metavar="N",
        help="bound on live named sessions",
    )
    parser.add_argument(
        "--idle-ttl",
        type=float,
        default=DEFAULT_IDLE_TTL_S,
        metavar="S",
        help="evict sessions idle this long",
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=DEFAULT_RATE,
        metavar="R",
        help="per-client sustained requests/second (0 disables)",
    )
    parser.add_argument(
        "--burst",
        type=float,
        default=DEFAULT_BURST,
        metavar="B",
        help="per-client burst capacity",
    )
    parser.add_argument(
        "--queue-pending",
        type=int,
        default=DEFAULT_MAX_PENDING,
        metavar="N",
        help="bound on queued async batches (503 past it)",
    )
    parser.add_argument(
        "--queue-workers",
        type=int,
        default=DEFAULT_WORKERS,
        metavar="N",
        help="async dispatcher threads",
    )
    parser.add_argument(
        "--timeout",
        type=finite_seconds,
        default=None,
        metavar="S",
        help="per-job repair timeout",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry budget for crashed workers",
    )
    parser.add_argument(
        "--max-batch-jobs",
        type=int,
        default=DEFAULT_MAX_BATCH_JOBS,
        metavar="N",
        help="largest accepted manifest",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress structured request logs",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        store_dir=args.store,
        store=not args.no_store,
        store_max_entries=args.store_max_entries,
        max_sessions=args.max_sessions,
        idle_ttl_s=args.idle_ttl,
        rate=args.rate,
        burst=args.burst,
        queue_pending=args.queue_pending,
        queue_workers=args.queue_workers,
        timeout_s=args.timeout,
        retries=args.retries,
        max_batch_jobs=args.max_batch_jobs,
        quiet=args.quiet,
    )
    return serve(config)


if __name__ == "__main__":
    sys.exit(main())
