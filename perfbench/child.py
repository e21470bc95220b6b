"""Run one gzlss command in this process, optionally with traced layers.

    python3 perfbench/child.py [--spans FILE] -- <gzlss cli arguments>

With ``--spans`` every public call listed in ``spans.LAYERS`` is wrapped
and the spans are written to FILE as JSON when the command returns.  The
exit code is the command's own.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: child.py [--spans FILE] -- <gzlss arguments>", file=sys.stderr)
        return 2
    split = argv.index("--")
    own, command = argv[:split], argv[split + 1:]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.Recorder()
        recorder.install()
    import gzlss.cli

    try:
        return gzlss.cli.main(command)
    finally:
        if recorder is not None:
            with open(spans_path, "w", encoding="utf-8") as fh:
                json.dump({"spans": recorder.spans, "absent": recorder.absent,
                           "counter_errors": recorder.counter_errors}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
