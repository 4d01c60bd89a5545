"""Run the floquet-sensor command line in a fresh process and mark set-up end.

    python3 bench/clirun.py SRC_DIR CLI_ARGS...

imports ``floquet_sensor.cli`` from SRC_DIR and runs it with CLI_ARGS.  When
the command body starts and when it returns, it writes
``bench-body-start <ns>`` and ``bench-body-end <ns>`` to stderr, with
``time.monotonic_ns()``, which the parent process compares with its own
monotonic clock to get the set-up and compute times.  At exit it writes
``bench-peak-rss-kb <kB>``, the high-water mark of this process's own memory
(``VmHWM``).  ``wait4``'s ``ru_maxrss`` would not do: it also counts the
parent's pages, which the child shares until it execs.
"""

import atexit
import sys
import time


def report_peak_rss() -> None:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                sys.stderr.write(f"bench-peak-rss-kb {line.split()[1]}\n")
                sys.stderr.flush()


def main() -> None:
    src, argv = sys.argv[1], sys.argv[2:]
    atexit.register(report_peak_rss)
    sys.path.insert(0, src)
    import floquet_sensor.cli as cli

    if not cli.__file__.startswith(src):
        sys.exit(f"floquet_sensor.cli was imported from {cli.__file__}, not {src}")

    def mark(callback):
        def body(*args, **kwargs):
            sys.stderr.write(f"bench-body-start {time.monotonic_ns()}\n")
            sys.stderr.flush()
            result = callback(*args, **kwargs)
            sys.stderr.write(f"bench-body-end {time.monotonic_ns()}\n")
            sys.stderr.flush()
            return result

        return body

    for command in cli.main.commands.values():
        command.callback = mark(command.callback)
    sys.argv = ["floquet-sensor", *argv]
    cli.entrypoint()


if __name__ == "__main__":
    main()
