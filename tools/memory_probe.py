"""Run one strongdim command in a child process and report its exit code,
wall time and peak memory.

    python3 tools/memory_probe.py [--limit-mb MB] compute sr-graph path:3000

The child is ``python -m strongdim`` with the given arguments, importing the
package from this checkout's ``src``; its output passes through.  With
--limit-mb the child alone runs under that address-space limit
(``RLIMIT_AS``), so a command that needs more memory fails there instead of
growing; nothing else on the machine changes.  The last line printed is

    exit=CODE wall_s=SECONDS maxrss_mb=MB

with the child's own peak RSS: its ``VmHWM`` from ``/proc/self/status``,
which the child writes to a pipe as it exits (``nan`` if it died first).
The ``ru_maxrss`` that ``os.wait4`` returns would not do: Linux carries the
forking process's high-water mark across fork and exec, so a large caller
reads its own size back.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
# Run as ``python -c _CHILD FD ARGS...``: the command runs as ``python -m
# strongdim ARGS...`` would, and at exit writes its VmHWM (kB) to descriptor FD.
_CHILD = """\
import atexit, os, runpy, sys
fd = int(sys.argv.pop(1))
def report():
    with open("/proc/self/status") as status:
        os.write(fd, next(line.split()[1] for line in status if line.startswith("VmHWM:")).encode())
atexit.register(report)
runpy.run_module("strongdim", run_name="__main__", alter_sys=True)
"""


def probe(argv: list[str], limit_mb: int | None = None) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of ``strongdim argv`` in a child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # the child: set its own limit, then become the command
        try:
            os.set_inheritable(write_fd, True)
            if limit_mb is not None:
                limit = limit_mb << 20
                resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            os.execve(sys.executable,
                      [sys.executable, "-c", _CHILD, str(write_fd), *argv], env)
        finally:
            os._exit(127)
    os.close(write_fd)
    _, status = os.waitpid(pid, 0)
    wall = time.perf_counter() - start
    with os.fdopen(read_fd, "rb") as report:
        peak_kb = report.read()
    return (os.waitstatus_to_exitcode(status), wall,
            int(peak_kb) / 1024 if peak_kb else float("nan"))


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
