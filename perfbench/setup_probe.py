"""Set-up probe: time one cold start of fourierdist for a workload.

Run as ``python3 perfbench/setup_probe.py <workload>`` from the repository
root.  It imports the library (and with it numpy), builds the workload's
groups and their irrep tables, and prints the seconds that took.  This is
the cost every command-line invocation pays before any norm is computed;
``run.py`` starts the probe several times and reports the median as
``setup_s``.
"""

import sys
import time
from pathlib import Path

# Group literals per workload, in ``parse_group_spec`` syntax.  The checks
# workload uses the test corpus (``standard_corpus()``) plus S4.
WORKLOAD_GROUPS = {
    "scan-z6s3": ("Z6", "S3"),
    "worked-pair": ("Z6", "S3"),
    "checks": ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z2xZ2", "Z2xZ4",
               "Z2xZ2xZ2", "S3", "D4", "Q8", "S4"),
}


def build_groups(fd, workload):
    """The workload's groups, each with its (cached) irrep table built."""
    groups = [fd.parse_group_spec(spec) for spec in WORKLOAD_GROUPS[workload]]
    for g in groups:
        fd.irrep_table_for(g)
    return groups


def main():
    workload = sys.argv[1]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import fourierdist as fd
    build_groups(fd, workload)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
