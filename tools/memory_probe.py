"""Run one strongdim command in a child process and report its exit code,
wall time and peak memory.

    python3 tools/memory_probe.py [--limit-mb MB] compute sr-graph path:3000

The child is ``python -m strongdim`` with the given arguments, importing the
package from this checkout's ``src``; its output passes through.  With
--limit-mb the child alone runs under that address-space limit
(``RLIMIT_AS``), so a command that needs more memory fails there instead of
growing; nothing else on the machine changes.  The last line printed is

    exit=CODE wall_s=SECONDS maxrss_mb=MB

with the child's ``ru_maxrss`` from ``os.wait4``, which counts that child
only.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def probe(argv: list[str], limit_mb: int | None = None) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of ``strongdim argv`` in a child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # the child: set its own limit, then become the command
        try:
            if limit_mb is not None:
                limit = limit_mb << 20
                resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            os.execve(sys.executable, [sys.executable, "-m", "strongdim", *argv], env)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--limit-mb", type=int, default=None,
                        help="address-space limit on the child, in MB")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the strongdim arguments, e.g. compute sr-graph path:3000")
    args = parser.parse_args(argv)
    if not args.command:
        parser.error("no strongdim command given")
    if args.limit_mb is not None and args.limit_mb < 1:
        parser.error("--limit-mb must be at least 1")
    sys.stdout.flush()  # the child writes to the same stdout
    code, wall, rss = probe(args.command, args.limit_mb)
    print(f"exit={code} wall_s={wall:.2f} maxrss_mb={rss:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
