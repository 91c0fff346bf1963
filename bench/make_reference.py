"""Regenerate bench/reference.json: counts and digests of every menu point.

Usage: PYTHONPATH=src python3 bench/make_reference.py

The table pins the answers of the library at the commit that defined the
benchmark; the workloads compare every enumerate / word_bfs answer against
it.  Regenerate it only when a menu in workloads.py changes, never to make
a failing check pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import sl2kit as sk  # noqa: E402
import workloads as w  # noqa: E402
from oracles import digest  # noqa: E402


def entry(found) -> dict:
    return {"count": len(found), "digest": digest(found)}


def main() -> int:
    ref = {"enumerate": {}, "word_bfs": {}, "qi_word_bfs": {}}
    for s, C in w.ENUM_MENU:
        gens = [w.S, w.T] + [w.diag(p) for p in w.RING_PRIMES[s]]
        res = sk.enumerate_bounded(sk.make_group(gens), C)
        ref["enumerate"][w.enum_key(s, C)] = entry(res.elements)
    for p, L, C in w.WORD_MENU + w.PROPER_MENU:
        group = sk.make_group([w.S, w.T, w.diag(p)])
        ref["word_bfs"][w.word_key(p, L, C)] = entry(sk.word_bfs(group, L, C))
    fa = w.FieldAlgebra(0, ref)
    for C in w.QI_WORD_C:
        words = sk.word_bfs(fa.qi_group, w.QI_WORD_LEN, C)
        ref["qi_word_bfs"][f"C={C}"] = entry(words)
    with open(w.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
