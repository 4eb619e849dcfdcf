"""One benchmark repetition in a fresh process.

Reads the repetition's spec as JSON on stdin, runs it through
:mod:`bench.reps`, and prints the result as one JSON line on stdout.
``run.py`` starts this; it is not meant to be run by hand.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> None:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    from bench.reps import REPS

    result = REPS[spec["kind"]](spec)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
