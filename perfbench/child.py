"""One workload sample in a fresh process.

    python3 perfbench/child.py SRC_DIR TRACE_FILE -- <breathline arguments>

Imports `breathline.cli` from SRC_DIR, makes one `breathline.cli.main`
call with the given arguments and prints one JSON line: the import time,
the call's wall time and exit code, and the process's peak RSS. With no
arguments it only imports and prints the import time. With a
TRACE_FILE other than "-", the call runs under the span tracer and the
spans are written there once the call returns.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    src, trace_file, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py SRC_DIR TRACE_FILE -- ARGS...")
    start = time.perf_counter()
    sys.path.insert(0, src)
    import breathline.cli

    import_s = time.perf_counter() - start
    if not cli_args:
        print(json.dumps({"import_s": import_s}))
        return 0
    tracer = None
    if trace_file != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    if tracer is None:
        code = breathline.cli.main(cli_args)
    else:
        code = tracer.run_root(breathline.cli.main, cli_args)
    cli_s = time.perf_counter() - start
    if tracer is not None:
        tracer.dump(trace_file)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"import_s": import_s, "cli_s": cli_s, "exit_code": code, "peak_rss_mb": peak_kb / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
