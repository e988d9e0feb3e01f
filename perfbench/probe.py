"""Fresh-interpreter probe: seconds to `import lojex`, or to import it and
finish a workload's warm-up call.

    python3 perfbench/probe.py import
    python3 perfbench/probe.py setup <workload>

Prints the seconds as the last line.  PYTHONPATH must hold the lojex sources;
the warm-up call writes its report under perfbench/out/ and removes it.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    import lojex  # noqa: F401

    if sys.argv[1] == "setup":
        import corpus
        import ops

        report = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                              f"probe-{os.getpid()}.report.json")
        try:
            ops.run_case(corpus.WARMUP[sys.argv[2]], report)
        finally:
            if os.path.exists(report):
                os.remove(report)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
