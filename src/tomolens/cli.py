"""Command-line entry points: `tomolens run <config>` and `tomolens audit`.

Exit codes: 0 success, 1 configuration error (including a value the library
rejects, such as a negative channel rate, a family parameter below its
bound, a parameter at which a state family is undefined, or an audit
override out of range), 2 numerical-guard failure (an errors.NumericalGuard:
inadequate truncation or grid, a density matrix whose tomogram goes
negative, or a product-basis projection off by more than rounding, with
the offending point named),
3 audit failures (a failed `tomolens audit` check, or an
oracle-audit scenario whose worst difference reaches its tolerance).
"""

from __future__ import annotations

import argparse
import sys

from .errors import AuditFailure, ConfigError, DegenerateParameter, NumericalGuard
from .scenarios import audit_table, parse_config, run_audit, run_scenario


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tomolens",
        description="Optical-tomogram toolkit: scenario runner and invariant audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario config file")
    run_p.add_argument("config", help="path to a key = value scenario file")
    run_p.add_argument("--out", default=".", help="output directory (default: current)")

    audit_p = sub.add_parser("audit", help="run the invariant battery")
    audit_p.add_argument(
        "--grid-half-width", type=float, default=None,
        help="override every quadrature grid half-width (negative control)",
    )
    audit_p.add_argument(
        "--n-cut", type=int, default=None,
        help="override every constructor truncation (negative control)",
    )

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            for art in run_scenario(parse_config(args.config), args.out):
                print(f"wrote {art['file']}: {art['description']}")
            return 0
        results = run_audit(grid_half_width=args.grid_half_width, n_cut=args.n_cut)
    except (ConfigError, DegenerateParameter) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalGuard as exc:
        print(f"numerical guard: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except AuditFailure as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 3
    print(audit_table(results))
    return 0 if all(r.passed for r in results) else 3


if __name__ == "__main__":
    sys.exit(main())
