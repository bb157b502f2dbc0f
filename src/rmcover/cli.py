"""Command-line surface: nl evaluation, table reproduction, verification, AGL.

Every published value the artifact is compared against lives here, in the
EXPECTED_* constants; the library modules never read them.  Exit status: 0 =
verified/matched, 1 = mismatch or counterexample, 2 = usage/scale/integrity
error.  Long-running work (value-table builds, the full matrix sweep, the
7-variable witness evaluation) is guarded by --opt-in-long.

Artifacts are kept under a workspace directory (default ./artifacts): NLT1
value tables per class representative and the AMS1 matrix set.  Output files
embed the producing command line and input hashes in their metadata trailer.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
from dataclasses import dataclass, field as dc_field

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

EXPECTED_MATRIX_SET_SIZE = 130843  # published; see the project notes on +-1

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


class CliError(Exception):
    """Usage/scale/integrity problem; maps to exit status 2."""


@dataclass
class JobConfig:
    """Resolved invocation: command line, paths, resources, long-run opt-in."""

    command: str
    tables_dir: str
    workers: int = 1
    opt_in_long: bool = False
    checkpoint_dir: str | None = None
    out: str | None = None
    memory_cap_mb: int = 2048
    meta: dict = dc_field(init=False)

    def __post_init__(self) -> None:
        self.meta = {"command": self.command}


class Workspace:
    """Artifact store for value tables and the matrix set."""

    def __init__(self, cfg: JobConfig):
        self.cfg = cfg
        self.root = cfg.tables_dir

    def _table_path(self, index: int) -> str:
        return os.path.join(self.root, f"fn{index}.nlt")

    def _aset_path(self) -> str:
        return os.path.join(self.root, "fn10.ams")

    def _guard_long(self, what: str) -> None:
        if not self.cfg.opt_in_long:
            raise CliError(
                f"{what} is a long-running build; rerun with --opt-in-long "
                f"or point --tables-dir at prebuilt artifacts"
            )

    def table(self, index: int) -> nonlin.NlTable:
        path = self._table_path(index)
        if os.path.exists(path):
            try:
                return nonlin.NlTable.load(path)
            except ValueError as exc:
                raise CliError(str(exc)) from exc
        self._guard_long(f"value table for fn_{index}")
        t = nonlin.build_nl_table(classify.fn_rep(index), 3)
        os.makedirs(self.root, exist_ok=True)
        t.save(path, meta=dict(self.cfg.meta))
        return t

    def matrix_set(self) -> orbit.MatrixSet:
        path = self._aset_path()
        if os.path.exists(path):
            try:
                return orbit.MatrixSet.load(path)
            except ValueError as exc:
                raise CliError(str(exc)) from exc
        self._guard_long("matrix-set orbit enumeration")
        gens = list(field.agl_generators(6, 2))
        res = orbit.bfs_orbit(orbit.coset_key(classify.fn_rep(10)), gens,
                              collect_matrices=True)
        os.makedirs(self.root, exist_ok=True)
        res.matrix_set.save(path, meta=dict(self.cfg.meta))
        return res.matrix_set


def _emit(cfg: JobConfig, text: str) -> None:
    print(text)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n# command: " + cfg.command + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _parse_function(args) -> boolfn.BooleanFunction:
    if (args.anf is None) == (args.hex is None):
        raise CliError("provide exactly one of --anf or --hex")
    if args.anf is not None:
        return boolfn.BooleanFunction.from_anf_string(args.anf, n=args.n)
    return boolfn.BooleanFunction.from_hex(args.hex, n=args.n)


def cmd_nl(args, cfg: JobConfig) -> int:
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
        _emit(cfg, f"anf: {f.to_anf_string()}\nhex: {f.to_hex()}\n{value}")
    else:
        _emit(cfg, str(value))
    return EXIT_OK


def _render_rows(header: list[str], rows: list[list]) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    return "\n".join(fmt.format(*map(str, r)) for r in [header] + rows)


def _diff_line(ok: bool) -> str:
    return "all values match" if ok else "MISMATCH against published values"


def cmd_tables(args, cfg: JobConfig) -> int:
    ws = Workspace(cfg)
    which = args.which
    if which == "1":
        stats = {i: classify.class_stats(i, ws.table(i))
                 for i in range(classify.NUM_CLASSES)}
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
        _emit(cfg, text)
        return EXIT_OK if not diffs else EXIT_MISMATCH
    if which in ("2", "3"):
        indices = (2, 3, 6) if which == "2" else (9, 10)
        ok = True
        lines = []
        for i in indices:
            counts = ws.table(i).level_counts()
            expect = EXPECTED_LEVEL_COUNTS[i]
            ok &= counts == expect
            lines.append(f"fn_{i}: " + " ".join(f"F({k})={v}" for k, v in sorted(counts.items())))
        _emit(cfg, "\n".join(lines) + "\n" + _diff_line(ok))
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
        if args.save_aset:
            ms = ws.matrix_set()
            text += f"\nmatrix set size = {len(ms)} (published {EXPECTED_MATRIX_SET_SIZE})"
        _emit(cfg, text + "\n" + _diff_line(ok))
        return EXIT_OK if ok else EXIT_MISMATCH
    if which == "exclusion":
        stats = {i: classify.class_stats(i, ws.table(i))
                 for i in range(classify.NUM_CLASSES)}
        bounds = classify.exclusion_table(stats)
        flagged = set(classify.flagged_types(bounds))
        lines = ["i,j,bound,excluded"]
        for (i, j), b in sorted(bounds.items()):
            excluded = (i, j) not in flagged
            lines.append(f"{i},{j},{b},{'yes' if excluded else 'no'}")
        lines.append(f"# rho(3,7) <= {classify.rho_upper_bound(stats)} from the class table")
        for (r, n), b in sorted(classify.chain_bounds().items()):
            lines.append(f"# rho({r},{n}) <= {b}")
        _emit(cfg, "\n".join(lines))
        return EXIT_OK
    raise CliError(f"unknown table {which!r}")


def cmd_verify(args, cfg: JobConfig) -> int:
    ws = Workspace(cfg)
    stage = args.stage
    try:
        if stage == "29":
            v = verify.check_29(ws.table(2), ws.table(9))
        elif stage == "310":
            v = verify.check_310(ws.table(3), ws.table(10))
        elif stage == "610":
            if args.stride == 1:
                ws._guard_long("the full type-(6,10) sweep")
            v = verify.sweep_610(
                ws.matrix_set(), ws.table(6), ws.table(10),
                stride=args.stride, checkpoint_dir=cfg.checkpoint_dir,
                workers=cfg.workers,
            )
        elif stage == "all":
            ws._guard_long("the full pipeline")
            tables = {i: ws.table(i) for i in range(classify.NUM_CLASSES)}
            report = verify.prove_rho37(
                tables, ws.matrix_set(),
                sweep_stride=args.stride,
                sweep_checkpoint=cfg.checkpoint_dir,
                workers=cfg.workers,
            )
            text = report.to_text()
            print(text)
            if cfg.out:
                payload = json.loads(report.to_json())
                payload["command"] = cfg.command
                with open(cfg.out, "w") as fh:
                    fh.write(json.dumps(payload, indent=2) + "\n")
            return EXIT_OK if report.passed else EXIT_MISMATCH
        else:
            raise CliError(f"unknown stage {stage!r}")
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    counters = " ".join(f"{k}={val}" for k, val in v.counters.items())
    text = f"[{v.outcome}] {v.stage} {counters}"
    if v.counterexample is not None:
        text += f"\ncounterexample: {v.counterexample}"
    _emit(cfg, text)
    return EXIT_OK if v.passed else EXIT_MISMATCH


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


def cmd_agl(args, cfg: JobConfig) -> int:
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
        _emit(cfg, "\n".join(lines))
        return EXIT_OK
    try:
        if args.action == "order":
            got_agl = field.generate_group(list(agl_pair))
            got_gl = field.generate_group(list(gl_pair))
            want_agl = field.agl_order(args.n, args.q)
            want_gl = field.gl_order(args.n, args.q)
            ok = got_agl == want_agl and got_gl == want_gl
            _emit(cfg, f"AGL closure {got_agl} (formula {want_agl}); "
                       f"GL closure {got_gl} (formula {want_gl})")
            return EXIT_OK if ok else EXIT_MISMATCH
        if args.action == "cyclic":
            size = field.generate_group(list(agl_pair))
            m = field.max_element_order(list(agl_pair))
            if m < size:
                _emit(cfg, f"not cyclic (max order {m} < {size})")
                return EXIT_OK
            _emit(cfg, f"cyclic (max order {m} = group size)")
            return EXIT_MISMATCH
    except field.ClosureCapExceeded as exc:
        raise CliError(str(exc)) from exc
    raise CliError(f"unknown action {args.action!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rmcover",
        description="Covering-radius machinery for third-order Reed-Muller codes",
    )
    p.add_argument("--tables-dir", default="artifacts",
                   help="artifact directory for NLT1/AMS1 files")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the type-(6,10) sweep")
    p.add_argument("--opt-in-long", action="store_true",
                   help="allow long-running builds (tables, full sweep)")
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--out", default=None, help="also write the result to this file")
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
    t_p.add_argument("--save-aset", action="store_true",
                     help="with --which 5: also build/load the matrix set")
    t_p.add_argument("--csv", action="store_true",
                     help="machine-readable rows for tables 1 and 5")

    v_p = sub.add_parser("verify", help="run a verification stage")
    v_p.add_argument("--stage", required=True, choices=("29", "310", "610", "all"))
    v_p.add_argument("--stride", type=int, default=1,
                     help="sweep matrix stride (100 = the 1%% CI proxy)")

    a_p = sub.add_parser("agl", help="two-generator constructions for GL/AGL")
    a_p.add_argument("--n", type=int, required=True)
    a_p.add_argument("--q", type=int, required=True)
    a_p.add_argument("--action", required=True, choices=("gens", "order", "cyclic"))
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = JobConfig(
        command="rmcover " + shlex.join(argv),
        tables_dir=args.tables_dir,
        workers=args.workers,
        opt_in_long=args.opt_in_long,
        checkpoint_dir=args.checkpoint_dir,
        out=args.out,
    )
    handlers = {
        "nl": cmd_nl,
        "tables": cmd_tables,
        "verify": cmd_verify,
        "agl": cmd_agl,
    }
    try:
        return handlers[args.command](args, cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
