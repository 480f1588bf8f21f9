"""One measured invocation of the ``oswec`` command line in a fresh interpreter.

    python3 bench/child.py TIMING_JSON MODE TRACE_JSON -- OSWEC_ARGS...

All times are CPU seconds of this process, except ``wall_s``. MODE is
``setup`` (import ``oswec``, parse the arguments, the configuration and
the JPD, then stop), ``run`` (also call ``oswec.cli.main``) or ``trace``
(as ``run``, with every layer wrapped by ``spans.py``; the spans go to
TRACE_JSON). Only ``trace`` loads any tracing code.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    timing_path, mode, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("setup", "run", "trace"):
        print(__doc__, file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))

    from oswec import cli

    args = cli.build_parser().parse_args(argv)
    cli.load_run_config(args.config)
    if args.command == "aep":
        cli.load_jpd(args.jpd)
    # CPU time since the process started: interpreter start, imports, parsing
    timing = {"setup_s": time.process_time()}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            import spans

            tracer = spans.Tracer()
            tracer.install()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        rc = cli.main(argv)
        timing["cpu_s"] = time.process_time() - cpu0
        timing["wall_s"] = time.perf_counter() - wall0
        timing["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timing["rc"] = rc
        if tracer is not None:
            tracer.write(trace_path)

    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
