"""End-to-end reproduction of rho(3,7) = 20: the orbit lengths, then every stage.

Runs `rmcover tables --which 5` and `rmcover verify --stage all`, which builds
the eleven value tables in process and writes the JSON report.  Usage:
    python scripts/reproduce_all.py --report report.json
"""

import argparse
import sys

from rmcover import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--report", default="report.json")
    args = ap.parse_args()
    return (cli.main(["tables", "--which", "5"])
            or cli.main(["--out", args.report, "verify", "--stage", "all"]))


if __name__ == "__main__":
    sys.exit(main())
