"""Command-line interface.

Subcommands: reproduce, irreps, norm, homnorm, scan, verify-lemmas.  All
stochastic behavior is fully determined by --seed; identical (command, seed)
pairs produce byte-identical JSON.  Exit codes: 0 success, 1 failed
reference rows, 2 usage or parse errors, 3 size limits, 4 numeric failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import (DegenerateSpectrumError, GroupSpecError, NumericInputError,
                     SizeLimitError)
from .fourier import AFunction, a_norm, a_norm_contributions, function_from_cyclic_coeffs
from .groups import group_from_json, parse_group_spec
from .homs import hom_norm_report, induced_hom
from .irreps import irrep_table_for, irrep_table_to_json, irreps_of
from .lemmas import verify_invmult, verify_norm_gap, verify_unitmult
from .optim import EFFORT_PRESETS
from .reference import build_reference_rows, rows_to_dict
from .search import min_distortion, norm_gap_scan, search_result_rows, search_result_to_csv

EXIT_OK = 0
EXIT_FAILED_ROWS = 1
EXIT_USAGE = 2
EXIT_SIZE = 3
EXIT_NUMERIC = 4


def _emit(data: dict, fmt: str, out: str | None, text_renderer) -> None:
    if fmt == "json":
        payload = json.dumps(data, indent=2, sort_keys=True) + "\n"
    else:
        payload = text_renderer(data)
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _load_group(spec: str):
    """Resolve a group argument: a literal, inline JSON, or a JSON file."""
    text = spec.strip()
    if text.startswith("{"):
        return group_from_json(text)
    if text.endswith(".json"):
        try:
            with open(text) as fh:
                return group_from_json(fh.read())
        except OSError as exc:
            raise GroupSpecError(f"cannot read group file {text!r}: {exc}") from exc
    return parse_group_spec(text)


def _parse_complex_list(text: str) -> np.ndarray:
    try:
        return np.array([complex(part.strip().replace("i", "j"))
                         for part in text.split(",")], dtype=complex)
    except ValueError as exc:
        raise GroupSpecError(f"could not parse complex list {text!r}: {exc}") from exc


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise GroupSpecError(f"could not parse integer list {text!r}") from exc


def cmd_reproduce(args) -> int:
    rows = build_reference_rows(effort=args.effort, seed=args.seed)
    data = rows_to_dict(rows)

    def render(d):
        width = max(len(r["name"]) for r in d["rows"]) + 2
        lines = [f'{"reference value".ljust(width)} expected     computed     tol      status']
        for r in d["rows"]:
            lines.append(f'{r["name"].ljust(width)} {r["expected"]:<12.8g} '
                         f'{r["computed"]:<12.8g} {r["tol"]:<8.1g} '
                         f'{"PASS" if r["pass"] else "FAIL"}')
        lines.append("all rows pass" if d["all_pass"] else "FAILURES PRESENT")
        return "\n".join(lines) + "\n"

    _emit(data, args.format, args.out, render)
    return EXIT_OK if data["all_pass"] else EXIT_FAILED_ROWS


def cmd_irreps(args) -> int:
    group = _load_group(args.group)
    table = irreps_of(group, seed=args.seed)
    data = {"schema": 1, "seed": args.seed, **irrep_table_to_json(table)}

    def render(d):
        return (f'group {d["group"]}: {len(d["dims"])} irreducible blocks, '
                f'dimensions {d["dims"]}\n')

    _emit(data, args.format, args.out, render)
    return EXIT_OK


def cmd_norm(args) -> int:
    group = _load_group(args.group)
    table = irrep_table_for(group, seed=args.seed)
    if (args.values is None) == (args.fourier_coeffs is None):
        raise GroupSpecError("provide exactly one of --values or --fourier-coeffs")
    if args.values is not None:
        try:
            pairs = json.loads(args.values)
            values = np.array([complex(re, im) for re, im in pairs])
        except (json.JSONDecodeError, TypeError, ValueError) as exc:
            raise GroupSpecError(f"--values must be a JSON array of [re, im] pairs: {exc}")
        f = AFunction(group, values)
    else:
        f = function_from_cyclic_coeffs(group, _parse_complex_list(args.fourier_coeffs))
    contributions = a_norm_contributions(f, table)
    data = {
        "schema": 1,
        "group": group.label,
        "a_norm": a_norm(f, table),
        "blocks": contributions,
        "seed": args.seed,
    }

    def render(d):
        lines = [f'||f||_A({d["group"]}) = {d["a_norm"]:.12g}']
        for blk in d["blocks"]:
            lines.append(f'  block dim {blk["dim"]}: S1 norm {blk["s1"]:.12g} '
                         f'-> contribution {blk["contribution"]:.12g}')
        return "\n".join(lines) + "\n"

    _emit(data, args.format, args.out, render)
    return EXIT_OK


def cmd_homnorm(args) -> int:
    source = _load_group(args.source)
    target = _load_group(args.target)
    mapping = _parse_int_list(args.bijection)
    table_s = irrep_table_for(source, seed=args.seed)
    table_t = irrep_table_for(target, seed=args.seed)
    hom = induced_hom(table_s, table_t, np.asarray(mapping))
    levels = tuple(_parse_int_list(args.levels)) if args.levels else (1,)
    report = hom_norm_report(hom, levels=levels, effort=args.effort, seed=args.seed)
    data = {
        "schema": 1,
        "source": source.label,
        "target": target.label,
        "bijection": mapping,
        "norm_T": report.norm_T,
        "norm_Tinv": report.norm_Tinv,
        "distortion": report.distortion,
        "levels": {str(k): {"T": v[0], "Tinv": v[1]}
                   for k, v in sorted(report.level_k_norms.items())},
        "witnesses": {str(k): {"T": _encode_witness(w[0]),
                               "Tinv": _encode_witness(w[1])}
                      for k, w in sorted(report.witnesses.items())},
        "optimizer": {str(k): {"T": report.optimizer_meta[k][0],
                               "Tinv": report.optimizer_meta[k][1]}
                      for k in sorted(report.optimizer_meta)},
        "seed": args.seed,
        "effort": args.effort,
    }

    def render(d):
        lines = [
            f'T : A({d["source"]}) -> A({d["target"]}) via bijection {d["bijection"]}',
            f'  ||T||      = {d["norm_T"]:.12g}',
            f'  ||T^-1||   = {d["norm_Tinv"]:.12g}',
            f'  distortion = {d["distortion"]:.12g}',
        ]
        for k, v in d["levels"].items():
            lines.append(f'  level {k}: T {v["T"]:.12g}   T^-1 {v["Tinv"]:.12g}')
        return "\n".join(lines) + "\n"

    _emit(data, args.format, args.out, render)
    return EXIT_OK


def cmd_scan(args) -> int:
    source = _load_group(args.source)
    target = _load_group(args.target)
    if args.level == 2:
        result = norm_gap_scan(source, target, level=2, effort=args.effort,
                               seed=args.seed, sample_size=args.sample_size,
                               jobs=args.jobs)
    else:
        result = min_distortion(source, target, effort=args.effort, seed=args.seed,
                                sample_size=args.sample_size, jobs=args.jobs)
    data = {
        "schema": 1,
        "pair": [source.label, target.label],
        "records": search_result_rows(result),
        "min_distortion": result.min_distortion,
        "argmin_distortion": [int(x) for x in result.argmin_distortion.map],
        "min_level2": result.min_level2,
        "verdicts": result.threshold_verdicts,
        "meta": result.meta,
        "seed": args.seed,
    }
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(search_result_to_csv(result))

    def render(d):
        lines = [f'scan {d["pair"][0]} vs {d["pair"][1]} over {len(d["records"])} bijections',
                 f'  min distortion = {d["min_distortion"]:.12g} at {d["argmin_distortion"]}']
        if d["min_level2"] is not None:
            lines.append(f'  min level-2 norm = {d["min_level2"]:.12g}')
        for name, verdict in d["verdicts"].items():
            status = "PASS" if verdict.get("passed") else "FAIL"
            kind = "advisory" if verdict.get("advisory") else "hard"
            lines.append(f'  verdict {name}: {status} ({kind})')
        return "\n".join(lines) + "\n"

    _emit(data, args.format, args.out, render)
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    which = args.lemma
    reports = []
    if which in ("all", "invmult"):
        reports.append(verify_invmult(args.dim, trials=args.trials, seed=args.seed))
    if which in ("all", "unitmult"):
        reports.append(verify_unitmult(args.dim, trials=args.trials, seed=args.seed))
    if which in ("all", "norm_gap"):
        group = _load_group(args.group)
        table = irrep_table_for(group)
        reports.append(verify_norm_gap(group, table,
                                       random_trials=min(args.trials, 10_000),
                                       seed=args.seed))
    data = {
        "schema": 1,
        "seed": args.seed,
        "reports": [
            {
                "lemma": r.lemma_id,
                "trials": r.trials,
                "worst_margin": r.worst_margin,
                "counterexample": _encode_counterexample(r.counterexample),
                "meta": {k: v for k, v in r.meta.items()},
            }
            for r in reports
        ],
    }

    def render(d):
        lines = []
        for r in d["reports"]:
            status = "no counterexample" if r["counterexample"] is None else "COUNTEREXAMPLE"
            lines.append(f'lemma {r["lemma"]}: {r["trials"]} trials, worst margin '
                         f'{r["worst_margin"]:.3e} ({status})')
        return "\n".join(lines) + "\n"

    _emit(data, args.format, args.out, render)
    return EXIT_OK


def _encode_matrix(m: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(m)]


def _encode_witness(witness):
    return {"level": witness.level,
            "blocks": [_encode_matrix(b) for b in witness.blocks]}


def _encode_counterexample(ce):
    if ce is None:
        return None
    out = {}
    for key, val in ce.items():
        if isinstance(val, np.ndarray):
            out[key] = _encode_matrix(val)
        else:
            out[key] = val
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourierdist",
        description="Norms and distortion of bijection-induced isomorphisms "
                    "between Fourier algebras of finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, effort=False):
        p.add_argument("--seed", type=int, default=0)
        if effort:
            # an unknown FD_EFFORT is rejected where the effort is resolved
            p.add_argument("--effort", default=os.environ.get("FD_EFFORT", "default"),
                           choices=list(EFFORT_PRESETS))
        p.add_argument("--format", default="text", choices=["json", "text"])
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("reproduce", help="recompute all bundled reference values")
    common(p, effort=True)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("irreps", help="irreducible representations of a group")
    common(p)
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_irreps)

    p = sub.add_parser("norm", help="Fourier-algebra norm of a function")
    common(p)
    p.add_argument("--group", required=True)
    p.add_argument("--values", help="JSON array of [re, im] pairs")
    p.add_argument("--fourier-coeffs", dest="fourier_coeffs",
                   help="comma list of expansion coefficients")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("homnorm", help="norms of one bijection-induced isomorphism")
    common(p, effort=True)
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--bijection", required=True,
                   help="comma list: image in the source group of each target element")
    p.add_argument("--levels", default="1,2")
    p.set_defaults(func=cmd_homnorm)

    p = sub.add_parser("scan", help="scan all canonical bijections between two groups")
    common(p, effort=True)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the scanned maps")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--level", type=int, default=2, choices=[1, 2])
    p.add_argument("--csv", default=None, help="also write per-bijection CSV here")
    p.add_argument("--sample-size", dest="sample_size", type=int, default=10_000,
                   help="maps sampled beyond exhaustive order n > 8; "
                        "between 1 and (n-1)!")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-lemmas", help="randomized checks of the matrix lemmas")
    common(p)
    p.add_argument("--lemma", default="all",
                   choices=["all", "invmult", "unitmult", "norm_gap"])
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--group", default="Z6", help="group for the norm-gap check")
    p.set_defaults(func=cmd_verify_lemmas)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except SizeLimitError as exc:
        sys.stderr.write(f"size limit: {exc}\n")
        return EXIT_SIZE
    except (NumericInputError, DegenerateSpectrumError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except ValueError as exc:
        # group spec errors, and arguments out of range such as --sample-size
        sys.stderr.write(f"error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
