"""``python -m tests.golden --regen`` rewrites ``histories.json`` and says
how many entries are new, removed and — by name — moved;
``--regen-cli`` rewrites ``cli_stdout.json``.

Refuses to run without one of the flags: the corpora are the licence
for "identical decisions" and "identical output" claims, so overwriting
one is always an explicit, reviewed act (and the PR explains every
changed entry).
"""

from __future__ import annotations

import json
import sys

from tests.golden import CORPUS_PATH, digests, load_corpus
from tests.golden.cli import CASES, CLI_GOLDEN_PATH, run_case
from tests.golden.corpus import SCENARIOS


def main(argv) -> int:
    if argv == ["--regen"]:
        path = CORPUS_PATH
        corpus = {name: digests(*run()) for name, run in SCENARIOS.items()}
        before = load_corpus()
        moved = sorted(
            name
            for name in corpus.keys() & before.keys()
            if corpus[name] != before[name]
        )
        print(
            f"{len(corpus.keys() - before.keys())} new, "
            f"{len(before.keys() - corpus.keys())} removed, "
            f"{len(moved)} existing hashes moved"
            + "".join(f"\n  moved: {name}" for name in moved)
        )
    elif argv == ["--regen-cli"]:
        path = CLI_GOLDEN_PATH
        corpus = {name: run_case(name) for name in CASES}
    else:
        print(
            "refusing to touch the golden corpora: pass --regen "
            "(tests/golden/histories.json) or --regen-cli "
            "(tests/golden/cli_stdout.json) to regenerate one on purpose",
            file=sys.stderr,
        )
        return 2
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(corpus, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(corpus)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
