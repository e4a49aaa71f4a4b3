"""One law-table operation: a fresh interpreter computes the n-th digit law.

Prints one JSON line: the values nth_digit_prob(d, n) for n = 2..8 (rows)
and d = 0..9 (columns), and one span per position when the first
argument is 1. A fresh interpreter is the unit of work because the
program caches these values for the life of a process.
"""

import json
import sys
import time

from digitaudit import nth_digit_prob

POSITIONS = range(2, 9)


def main() -> None:
    trace = sys.argv[1] == "1"
    values, spans = [], []
    for n in POSITIONS:
        start = time.perf_counter()
        values.append([nth_digit_prob(d, n) for d in range(10)])
        spans.append([n, start, time.perf_counter()])
    print(json.dumps({"values": values, "spans": spans if trace else []}))


if __name__ == "__main__":
    main()
