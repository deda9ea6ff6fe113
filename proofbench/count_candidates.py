"""Print the number of Heisenberg-type candidate forms at (b, p) as JSON.

The package has no subcommand for this count, so the benchmark runs it as its
own process:  python3 proofbench/count_candidates.py B P
"""

import json
import sys

from heiskod import cohomology


def payload(b: int, p: int) -> dict:
    return {"b": b, "p": p, "count": cohomology.count_heisenberg_candidates(b, p)}


if __name__ == "__main__":
    print(json.dumps(payload(int(sys.argv[1]), int(sys.argv[2]))))
