"""Write oracle.json: the values each workload's commands give at seed 0.

The file is recorded once, from a commit whose payloads are trusted, and
then checked by run.py on every operation. Re-recording it at a later
commit would make the benchmark accept whatever that commit computes, so
do that only when a change in the correct values is intended and reviewed.

    python3 bench/record_oracle.py
"""

from __future__ import annotations

import io
import json
import sys

from run import EXTRACT, ORACLE, SRC, WORKLOADS, git_state

SEED = 0


def main() -> int:
    sys.path.insert(0, str(SRC))
    import mulbasis.cli as cli

    values = {}
    for jobs, commands in WORKLOADS.values():
        for command, params in commands:
            buf = io.StringIO()
            code = cli.run(cli.RunConfig(command, dict(params), seed=SEED, jobs=jobs), out=buf)
            if code != 0:
                print(f"error: {command} exited {code}", file=sys.stderr)
                return 1
            values[command] = EXTRACT[command](json.loads(buf.getvalue()))
    # one command per line, so a changed value shows as a one-line diff
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(values.items())]
    head = '{"seed": %d, "git": %s, "values": {' % (SEED, json.dumps(git_state(), sort_keys=True))
    text = "%s\n%s\n}}\n" % (head, ",\n".join(lines))
    ORACLE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
