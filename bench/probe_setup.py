"""Set-up time of a fresh process: import gramhmm.cli, then parse each file once.

Usage: python3 bench/probe_setup.py SRC_DIR FILE...  (files ending in .grm are
grammars, the rest HMM documents).  Prints the elapsed seconds.
"""

import sys
import time


def main() -> None:
    src, *paths = sys.argv[1:]
    sys.path.insert(0, src)
    started = time.perf_counter()
    import gramhmm.cli  # noqa: F401
    from gramhmm.grammar import parse_grammar
    from gramhmm.hmm import parse_hmm

    for path in paths:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        (parse_grammar if path.endswith(".grm") else parse_hmm)(text)
    print(time.perf_counter() - started)


if __name__ == "__main__":
    main()
