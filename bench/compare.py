"""Compare two saved benchmark results (.bench_out/result-*.json).

    python3 bench/compare.py BASE.json NEW.json

Refuses (exit 2) when the stamps differ in anything but the commit: the
numbers are only comparable for the same workload, seed, run length, trace
mode, interpreter, CPU count, kolmex version, proxy version and timer.
Prints each metric's base and new value and new/base.
"""

from __future__ import annotations

import json
import sys


def stamp_mismatch(base: dict, new: dict) -> list[str]:
    keys = (set(base) | set(new)) - {"commit"}
    return sorted(k for k in keys if base.get(k) != new.get(k))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    differ = stamp_mismatch(base["stamp"], new["stamp"])
    if differ:
        for key in differ:
            print(f"stamp {key}: {base['stamp'].get(key)!r} != {new['stamp'].get(key)!r}",
                  file=sys.stderr)
        print("refusing to compare results with different stamps", file=sys.stderr)
        return 2
    print(f"base {base['stamp']['commit']}  new {new['stamp']['commit']}")
    for section in ("metrics", "extra", "layers"):
        for name in sorted(set(base.get(section, {})) & set(new.get(section, {}))):
            b, n = base[section][name], new[section][name]
            ratio = f"{n / b:.4f}" if b else "n/a"
            print(f"  {name:<56} {b:>14.6g} {n:>14.6g}  x{ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
