"""``python -m tests.golden --regen``: rewrite ``histories.json``.

Refuses to run without ``--regen``: the corpus is the licence for
"identical decisions" claims, so overwriting it is always an explicit,
reviewed act (and the PR explains every changed hash).
"""

from __future__ import annotations

import json
import sys

from tests.golden import CORPUS_PATH, digests
from tests.golden.corpus import SCENARIOS


def main(argv) -> int:
    if argv != ["--regen"]:
        print(
            "refusing to touch the golden corpus: pass --regen to "
            "regenerate tests/golden/histories.json on purpose",
            file=sys.stderr,
        )
        return 2
    corpus = {name: digests(*run()) for name, run in SCENARIOS.items()}
    with open(CORPUS_PATH, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(corpus)} entries to {CORPUS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
