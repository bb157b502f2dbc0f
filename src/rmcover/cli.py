"""Command-line surface: nl evaluation, table reproduction, verification, AGL.

Every published value the artifact is compared against lives here, in the
EXPECTED_* constants; the library modules never read them.  Exit status: 0 =
verified/matched, 1 = mismatch or counterexample, 2 = usage/scale/integrity
error.

The CLI reads and writes no file apart from `--out`: every command builds
the (6,3) value tables of the class representatives it needs in process
(`_table`), and every sweep derives one matrix per translation class of
fn_10's orbit, checks that they cover it and sweeps them all, so each verdict
follows from what the run itself computed.  Output written with `--out` ends
with the producing command line.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from . import boolfn, classify, field, nonlin, orbit, verify

# ---------------------------------------------------------------------------
# Published values (diffed against recomputation; never used by the library)
# ---------------------------------------------------------------------------

EXPECTED_TABLE1 = {
    "deg": (0, 4, 4, 4, 5, 5, 5, 6, 6, 6, 6),
    "nl2": (0, 4, 6, 10, 2, 4, 8, 1, 3, 7, 9),
    "nl3": (0, 4, 6, 8, 2, 4, 6, 1, 3, 5, 7),
    "ml2": (0, 16, 16, 14, 16, 14, 14, 17, 15, 15, 15),
}

EXPECTED_LEVEL_COUNTS = {
    2: {6: 64, 8: 1920, 10: 64320, 12: 579072, 14: 397440, 16: 5760},
    3: {8: 2304, 10: 71680, 12: 628992, 14: 345600},
    6: {6: 32, 8: 2112, 10: 65312, 12: 638208, 14: 342912},
    9: {5: 6, 7: 298, 9: 12540, 11: 245556, 13: 784416, 15: 5760},
    10: {7: 288, 9: 13216, 11: 254016, 13: 746496, 15: 34560},
}

EXPECTED_ORBIT_LENGTHS = (1, 651, 18228, 13888, 2016, 312480, 1749888,
                          64, 41664, 1166592, 888832)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage/scale/integrity problem; maps to exit status 2."""


def _table(index: int) -> nonlin.NlTable:
    """fn_index's (6,3) value table, built in process."""
    return nonlin.build_nl_table(classify.fn_rep(index), 3)


def _class_stats() -> dict:
    """The class quantities of all eleven representatives, from their tables."""
    return {i: classify.class_stats(i, _table(i)) for i in range(classify.NUM_CLASSES)}


def _emit(args, cmdline: str, text: str) -> None:
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n# command: " + cmdline + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parse_function(args) -> boolfn.BooleanFunction:
    if (args.anf is None) == (args.hex is None):
        raise CliError("provide exactly one of --anf or --hex")
    if args.anf is not None:
        return boolfn.BooleanFunction.from_anf_string(args.anf, n=args.n)
    return boolfn.BooleanFunction.from_hex(args.hex, n=args.n)


def cmd_nl(args, cmdline: str) -> int:
    f = _parse_function(args)
    r = args.r
    try:
        if r < 0:
            raise CliError("order r must be nonnegative")
        if args.engine == "bruteforce":
            value = nonlin.nl_r_bruteforce(f, min(r, f.n))
        else:
            value = nonlin.nl_r(f, r)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.show_function:
        _emit(args, cmdline, f"anf: {f.to_anf_string()}\nhex: {f.to_hex()}\n{value}")
    else:
        _emit(args, cmdline, str(value))
    return EXIT_OK


def _render_rows(header: list[str], rows: list[list]) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    return "\n".join(fmt.format(*map(str, r)) for r in [header] + rows)


def _diff_line(ok: bool) -> str:
    return "all values match" if ok else "MISMATCH against published values"


def cmd_tables(args, cmdline: str) -> int:
    which = args.which
    if which == "1":
        stats = _class_stats()
        rows = [[f"fn_{i}", s.deg, s.nl2, s.nl3, s.ml2] for i, s in stats.items()]
        diffs = []
        for i, s in stats.items():
            for key, got in zip(("deg", "nl2", "nl3", "ml2"),
                                (s.deg, s.nl2, s.nl3, s.ml2)):
                want = EXPECTED_TABLE1[key][i]
                if got != want:
                    diffs.append(f"fn_{i}.{key}: computed {got}, published {want}")
        if args.csv:
            text = "\n".join(["f,deg,nl2,nl3,ml2"] + [",".join(map(str, r)) for r in rows])
        else:
            text = _render_rows(["f", "deg", "nl2", "nl3", "ml2"], rows)
        text += "\n" + _diff_line(not diffs)
        for d in diffs:
            text += "\n  " + d
        _emit(args, cmdline, text)
        return EXIT_OK if not diffs else EXIT_MISMATCH
    if which in ("2", "3"):
        indices = (2, 3, 6) if which == "2" else (9, 10)
        ok = True
        lines = []
        for i in indices:
            counts = _table(i).level_counts()
            expect = EXPECTED_LEVEL_COUNTS[i]
            ok &= counts == expect
            lines.append(f"fn_{i}: " + " ".join(f"F({k})={v}" for k, v in sorted(counts.items())))
        _emit(args, cmdline, "\n".join(lines) + "\n" + _diff_line(ok))
        return EXIT_OK if ok else EXIT_MISMATCH
    if which == "5":
        lengths = orbit.all_orbit_lengths()
        rows = [[f"fn_{i}", ln] for i, ln in enumerate(lengths)]
        ok = lengths == EXPECTED_ORBIT_LENGTHS and sum(lengths) == 1 << 22
        if args.csv:
            text = "\n".join(["f,orbit_length"] + [",".join(map(str, r)) for r in rows])
        else:
            text = _render_rows(["f", "orbit length"], rows)
        text += f"\nsum = {sum(lengths)} (2^22 = {1 << 22})"
        _emit(args, cmdline, text + "\n" + _diff_line(ok))
        return EXIT_OK if ok else EXIT_MISMATCH
    if which == "exclusion":
        stats = _class_stats()
        bounds = classify.exclusion_table(stats)
        flagged = set(classify.flagged_types(bounds))
        lines = ["i,j,bound,excluded"]
        for (i, j), b in sorted(bounds.items()):
            excluded = (i, j) not in flagged
            lines.append(f"{i},{j},{b},{'yes' if excluded else 'no'}")
        lines.append(f"# rho(3,7) <= {classify.rho_upper_bound(stats)} from the class table")
        for (r, n), b in sorted(classify.chain_bounds().items()):
            lines.append(f"# rho({r},{n}) <= {b}")
        _emit(args, cmdline, "\n".join(lines))
        return EXIT_OK
    raise CliError(f"unknown table {which!r}")


def cmd_verify(args, cmdline: str) -> int:
    stage = args.stage
    if stage == "29":
        verdicts = [verify.check_29(_table(2), _table(9))]
    elif stage == "310":
        verdicts = [verify.check_310(_table(3), _table(10))]
    elif stage == "610":
        mset, orbit_size = verify.fn10_sweep_set()
        verdicts = [verify.check_coverage(mset, orbit_size),
                    verify.sweep_610(mset, _table(6), _table(10))]
    elif stage == "all":
        tables = {i: _table(i) for i in range(classify.NUM_CLASSES)}
        report = verify.prove_rho37(tables)
        text = report.to_text()
        print(text)
        if args.out:
            payload = json.loads(report.to_json())
            payload["command"] = cmdline
            with open(args.out, "w") as fh:
                fh.write(json.dumps(payload, indent=2) + "\n")
        return EXIT_OK if report.passed else EXIT_MISMATCH
    else:
        raise CliError(f"unknown stage {stage!r}")
    lines = []
    for v in verdicts:
        counters = " ".join(f"{k}={val}" for k, val in v.counters.items())
        lines.append(f"[{v.outcome}] {v.stage} {counters}")
        if v.counterexample is not None:
            lines.append(f"counterexample: {v.counterexample}")
    _emit(args, cmdline, "\n".join(lines))
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_MISMATCH


def _format_element(fs: field.FieldSpec, e: int) -> str:
    if fs.k == 1:
        return str(e)
    if e == 0:
        return "0"
    return f"a^{fs.log[e]}"


def _format_affine(fs: field.FieldSpec, L: field.AffineMap) -> str:
    mat = ";".join(",".join(_format_element(fs, e) for e in row) for row in L.A)
    vec = ",".join(_format_element(fs, e) for e in L.b)
    return f"A=[{mat}] b=[{vec}]"


def cmd_agl(args, cmdline: str) -> int:
    try:
        fs = field.FieldSpec.of(args.q)
        agl_pair = field.agl_generators(args.n, fs)
        gl_pair = field.gl_generators(args.n, fs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.action == "gens":
        lines = [
            "AGL generators:",
            "  " + _format_affine(fs, agl_pair[0]),
            "  " + _format_affine(fs, agl_pair[1]),
            "GL generators:",
            "  " + _format_affine(fs, gl_pair[0]),
            "  " + _format_affine(fs, gl_pair[1]),
        ]
        if fs.k > 1:
            lines.append(f"field model: modulus coefficients {fs.modulus}, alpha = a")
        _emit(args, cmdline, "\n".join(lines))
        return EXIT_OK
    try:
        if args.action == "order":
            got_agl = field.generate_group(list(agl_pair))
            got_gl = field.generate_group(list(gl_pair))
            want_agl = field.agl_order(args.n, args.q)
            want_gl = field.gl_order(args.n, args.q)
            ok = got_agl == want_agl and got_gl == want_gl
            _emit(args, cmdline, f"AGL closure {got_agl} (formula {want_agl}); "
                                 f"GL closure {got_gl} (formula {want_gl})")
            return EXIT_OK if ok else EXIT_MISMATCH
        if args.action == "cyclic":
            size = field.generate_group(list(agl_pair))
            m = field.max_element_order(list(agl_pair))
            if m < size:
                _emit(args, cmdline, f"not cyclic (max order {m} < {size})")
                return EXIT_OK
            _emit(args, cmdline, f"cyclic (max order {m} = group size)")
            return EXIT_MISMATCH
    except field.ClosureCapExceeded as exc:
        raise CliError(str(exc)) from exc
    raise CliError(f"unknown action {args.action!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _global_options() -> argparse.ArgumentParser:
    g = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    g.add_argument("--out", default=None, help="also write the result to this file")
    return g


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rmcover",
        description="Covering-radius machinery for third-order Reed-Muller codes",
        parents=[_global_options()],
    )
    sub = p.add_subparsers(dest="command", required=True)

    nl_p = sub.add_parser("nl", help="evaluate nl_r of a function")
    nl_p.add_argument("--anf", help='ANF string, e.g. "x1x2x4x5+x1x2x3x6"')
    nl_p.add_argument("--hex", help="hex truth table")
    nl_p.add_argument("--n", type=int, default=None, help="variable count")
    nl_p.add_argument("--r", type=int, required=True)
    nl_p.add_argument("--engine", choices=("recursive", "bruteforce"),
                      default="recursive")
    nl_p.add_argument("--show-function", action="store_true",
                      help="also print the parsed function as ANF and hex")

    t_p = sub.add_parser("tables", help="recompute a published table and diff it")
    t_p.add_argument("--which", required=True,
                     choices=("1", "2", "3", "5", "exclusion"))
    t_p.add_argument("--csv", action="store_true",
                     help="machine-readable rows for tables 1 and 5")

    v_p = sub.add_parser("verify", help="run a verification stage")
    v_p.add_argument("--stage", required=True, choices=("29", "310", "610", "all"))

    a_p = sub.add_parser("agl", help="two-generator constructions for GL/AGL")
    a_p.add_argument("--n", type=int, required=True)
    a_p.add_argument("--q", type=int, required=True)
    a_p.add_argument("--action", required=True, choices=("gens", "order", "cyclic"))
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # argparse would take an unknown global option's value for the command
    # and name that value; -h, prefixes of --help and malformed known
    # options are left to the full parser
    try:
        rest = _global_options().parse_known_args(argv)[1]
    except argparse.ArgumentError:
        rest = []
    if rest and rest[0].startswith("-") and rest[0] != "-h" and not "--help".startswith(rest[0]):
        parser.error(f"unrecognized arguments: {rest[0]}")
    args = parser.parse_args(argv)
    cmdline = "rmcover " + shlex.join(argv)
    handlers = {
        "nl": cmd_nl,
        "tables": cmd_tables,
        "verify": cmd_verify,
        "agl": cmd_agl,
    }
    try:
        return handlers[args.command](args, cmdline)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
