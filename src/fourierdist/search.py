"""Exhaustive and sampled scans over bijections between two groups.

All norms computed here inherit the lower-bound semantics of the optimizer:
a scan can certify that norms exceed a threshold, but a value in a gap is
known to be attained only where it meets the ``upper`` bound its row
exports, which is why the gap verdicts are advisory.
Bijections are canonicalized to fix the identity; left translations on
either side leave every computed norm unchanged, so nothing is lost.
Automorphisms on either side are complete isometries too, so exhaustive
scans optimize one map per Aut(G) x Aut(H) orbit and carry its witnesses
over to the rest of the orbit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GroupMismatchError
from .groups import FiniteGroup, GroupBijection, are_isomorphic, automorphisms
from .homs import HomNormReport, InducedHom, hom_norm_report, transport_report
from .irreps import irrep_table_for
from .optim import resolve_effort

EXHAUSTIVE_ORDER_LIMIT = 8
DEFAULT_SAMPLE_SIZE = 10_000
SQRT_3_2 = math.sqrt(1.5)
SQRT5_OVER_2 = math.sqrt(5.0) / 2.0
# slack around 1 and around the thresholds in norm_gap_scan's verdicts
DELTA = 1e-6
DELTA_GAP = 1e-3


def enumerate_bijections(g: FiniteGroup, h: FiniteGroup, seed: int = 0,
                         sample_size: int = DEFAULT_SAMPLE_SIZE):
    """Yield the bijections t : h -> g (index maps into g) that fix the identity.

    Fixing the identity loses nothing, by translation invariance of every
    computed norm.  Exhaustive for orders <= 8; beyond that a seeded random
    sample of ``sample_size`` distinct maps is produced instead, with
    1 <= sample_size <= (n-1)!.
    """
    if g.order != h.order:
        raise GroupMismatchError("bijections need groups of equal order")
    n = g.order
    if n <= EXHAUSTIVE_ORDER_LIMIT:
        for rest in itertools.permutations(range(1, n)):
            yield GroupBijection(source=h, target=g, map=np.array((0,) + rest, dtype=np.int64))
        return
    available = math.factorial(n - 1)
    if not 1 <= sample_size <= available:
        raise ValueError(f"sample_size must lie between 1 and {available}, the number "
                         f"of maps at order {n}; got {sample_size}")
    rng = np.random.default_rng([seed, n])
    seen = set()
    while len(seen) < sample_size:
        mp = np.concatenate(([0], rng.permutation(np.arange(1, n))))
        key = tuple(mp.tolist())
        if key in seen:
            continue
        seen.add(key)
        yield GroupBijection(source=h, target=g, map=mp)


@dataclass(frozen=True, eq=False)
class BijectionRecord:
    """One scanned bijection; ``orbit`` is the representative of its
    Aut(G) x Aut(H) orbit whose report was transported here (exhaustive
    scans only)."""

    bijection: GroupBijection
    report: HomNormReport
    orbit: GroupBijection | None = None


@dataclass(eq=False)
class SearchResult:
    """Scan outcome over the canonical bijections between a pair of groups."""

    pair: tuple[FiniteGroup, FiniteGroup]
    records: list[BijectionRecord]
    min_distortion: float
    argmin_distortion: GroupBijection
    min_level2: float | None
    argmin_level2: GroupBijection | None
    threshold_verdicts: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _argmin_by(records, value_of):
    best = min(records, key=lambda r: (value_of(r), tuple(r.bijection.map.tolist())))
    return value_of(best), best.bijection


def _scan_one(g: FiniteGroup, h: FiniteGroup, mapping, levels, eff, seed):
    bij = GroupBijection(source=h, target=g, map=np.asarray(mapping, dtype=np.int64))
    hom = InducedHom(bijection=bij, source_table=irrep_table_for(g),
                     target_table=irrep_table_for(h))
    report = hom_norm_report(hom, levels=levels, effort=eff, seed=seed)
    return BijectionRecord(bijection=bij, report=report)


def _orbit_transports(g: FiniteGroup, h: FiniteGroup, maps):
    """Orbit representatives of the canonical maps under Aut(g) x Aut(h).

    Returns the representatives and, for each map m, a triple
    (representative index, alpha, beta) with m = alpha o r o beta.  The
    canonical maps come in lexicographic order, so the first map met in an
    orbit is its smallest member.
    """
    auts_g, auts_h = automorphisms(g), automorphisms(h)
    reps, found = [], {}
    for mp in maps:
        if tuple(mp.tolist()) in found:
            continue
        for alpha in auts_g:
            for beta in auts_h:
                found.setdefault(tuple(alpha[mp[beta]].tolist()), (len(reps), alpha, beta))
        reps.append(mp)
    return reps, [found[tuple(mp.tolist())] for mp in maps]


def _scan(g: FiniteGroup, h: FiniteGroup, levels, effort, seed, sample_size,
          jobs: int = 1):
    """Reports for every canonical bijection.

    Exhaustive scans compute one report per automorphism orbit and transport
    it to the other members (every norm is constant on an orbit); sampled
    scans compute every sampled map.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    eff = resolve_effort(effort).for_scan()
    maps = [bij.map for bij in enumerate_bijections(g, h, seed=seed, sample_size=sample_size)]
    exhaustive = g.order <= EXHAUSTIVE_ORDER_LIMIT
    reps, transports = _orbit_transports(g, h, maps) if exhaustive else (maps, None)
    if jobs == 1 or len(reps) < 4:
        computed = [_scan_one(g, h, mp, levels, eff, seed) for mp in reps]
    else:
        import concurrent.futures
        worker = functools.partial(_scan_one, g, h, levels=levels, eff=eff, seed=seed)
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            chunk = max(1, len(reps) // (4 * jobs))
            computed = list(pool.map(worker, reps, chunksize=chunk))
    if transports is None:
        return computed
    tables = {"source_table": irrep_table_for(g), "target_table": irrep_table_for(h)}
    records = []
    for mp, (r, alpha, beta) in zip(maps, transports):
        rep = computed[r]
        report = rep.report
        if not np.array_equal(mp, rep.bijection.map):
            hom = InducedHom(bijection=rep.bijection, **tables)
            report = transport_report(hom, report, alpha, beta)
        records.append(BijectionRecord(GroupBijection(source=h, target=g, map=mp), report,
                                       orbit=rep.bijection))
    return records


def _scan_result(g: FiniteGroup, h: FiniteGroup, levels, effort, seed, sample_size,
                 jobs) -> SearchResult:
    """Scan at the given levels and fill in the distortion argmin and the
    meta; the level-2 fields and the verdicts are left empty."""
    records = _scan(g, h, levels=levels, effort=effort, seed=seed,
                    sample_size=sample_size, jobs=jobs)
    dist, arg = _argmin_by(records, lambda r: r.report.distortion)
    iso, _ = are_isomorphic(g, h)
    exhaustive = g.order <= EXHAUSTIVE_ORDER_LIMIT
    meta = {"isomorphic": iso, "seed": seed,
            "exhaustive": exhaustive,
            "sample_size": None if exhaustive else sample_size,
            "bijections": len(records),
            "orbits": len({tuple(r.orbit.map.tolist()) for r in records})
            if exhaustive else None}
    return SearchResult(pair=(g, h), records=records, min_distortion=dist,
                        argmin_distortion=arg, min_level2=None, argmin_level2=None,
                        meta=meta)


def min_distortion(g: FiniteGroup, h: FiniteGroup, effort="default", seed: int = 0,
                   sample_size: int = DEFAULT_SAMPLE_SIZE, jobs: int = 1) -> SearchResult:
    """Minimize ||T|| ||T^{-1}|| over canonical bijections t : h -> g."""
    return _scan_result(g, h, (1,), effort, seed, sample_size, jobs)


def norm_gap_scan(g: FiniteGroup, h: FiniteGroup, level: int = 2, effort="default",
                  seed: int = 0, sample_size: int = DEFAULT_SAMPLE_SIZE,
                  jobs: int = 1) -> SearchResult:
    """Level-2 norms of every canonical bijection, with threshold verdicts.

    Verdicts:
      * "level2_isomorphism_threshold" (hard, non-isomorphic pairs only): no
        bijection has both directions' computed level-2 norm below sqrt(3/2);
        sound because computed values are lower bounds.
      * "level2_gap_interval" (hard): no computed level-2 value falls in the
        open interval (1 + DELTA_GAP, sqrt(3/2) - DELTA_GAP).
      * "cb_gap_advisory" (advisory): every value lies in
        [1-DELTA, 1+DELTA] or [sqrt(5)/2 - DELTA_GAP, inf); flagged advisory
        because an under-converged lower bound may sit in the gap spuriously.
    """
    if level != 2:
        raise ValueError("the gap scan is defined for level 2")
    result = _scan_result(g, h, (1, 2), effort, seed, sample_size, jobs)
    records = result.records
    result.min_level2, result.argmin_level2 = _argmin_by(
        records, lambda r: max(r.report.level_k_norms[2]))
    values = [v for r in records for v in r.report.level_k_norms[2]]
    verdicts = result.threshold_verdicts
    if not result.meta["isomorphic"]:
        worst = min(max(r.report.level_k_norms[2]) for r in records)
        verdicts["level2_isomorphism_threshold"] = {
            "passed": bool(worst >= SQRT_3_2 - DELTA_GAP),
            "margin": worst - SQRT_3_2,
            "advisory": False,
        }
    in_gap = [v for v in values if 1.0 + DELTA_GAP < v < SQRT_3_2 - DELTA_GAP]
    verdicts["level2_gap_interval"] = {
        "passed": not in_gap,
        "margin": min((min(v - 1.0, SQRT_3_2 - v) for v in in_gap), default=0.0),
        "advisory": False,
        "violations": in_gap,
    }
    outside = [v for v in values
               if not (1.0 - DELTA <= v <= 1.0 + DELTA or v >= SQRT5_OVER_2 - DELTA_GAP)]
    verdicts["cb_gap_advisory"] = {
        "passed": not outside,
        "margin": 0.0 if not outside else max(min(abs(v - 1.0), SQRT5_OVER_2 - v)
                                              for v in outside),
        "advisory": True,
        "violations": outside,
    }
    return result


def epsilon_zero_bound(pairs, effort="default", seed: int = 0):
    """Empirical upper bound for the distortion-rigidity constant.

    Every pair must be a non-isomorphic pair of equal order; the bound is the
    smallest (min distortion - 1) observed, valid as an upper bound because
    any rigidity constant must exclude the observed non-isometric witnesses.
    Returns (bound, per_pair) where per_pair lists (labels, min distortion).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("empty corpus of group pairs")
    per_pair = []
    for g, h in pairs:
        if g.order != h.order:
            raise GroupMismatchError(
                f"pair ({g.label}, {h.label}) does not have equal orders")
        iso, _ = are_isomorphic(g, h)
        if iso:
            raise ValueError(
                f"pair ({g.label}, {h.label}) is isomorphic; the bound needs "
                "non-isomorphic pairs")
        result = min_distortion(g, h, effort=effort, seed=seed)
        per_pair.append(((g.label, h.label), result.min_distortion))
    bound = min(d - 1.0 for _, d in per_pair)
    return bound, per_pair


def search_result_rows(result: SearchResult) -> list[dict]:
    """Flat per-bijection rows used by the CSV and JSON exports.

    ``converged``, ``best_source`` and ``upper`` (the cb upper bound the
    search ran against, None for a closed form) map each level to its two
    directions; the CSV keeps only the values."""
    def map_text(bij):
        return ",".join(str(int(x)) for x in bij.map)

    def per_level(report, key):
        return {str(k): {"T": metas[0].get(key), "Tinv": metas[1].get(key)}
                for k, metas in report.optimizer_meta.items()}

    rows = []
    for rec in result.records:
        level2 = rec.report.level_k_norms.get(2)
        rows.append({
            "bijection": map_text(rec.bijection),
            "norm_T": rec.report.norm_T,
            "norm_Tinv": rec.report.norm_Tinv,
            "level2_T": None if level2 is None else level2[0],
            "level2_Tinv": None if level2 is None else level2[1],
            "distortion": rec.report.distortion,
            "converged": per_level(rec.report, "converged"),
            "best_source": per_level(rec.report, "best_source"),
            "upper": per_level(rec.report, "upper"),
            "orbit": None if rec.orbit is None else map_text(rec.orbit),
        })
    return rows


def search_result_to_csv(result: SearchResult) -> str:
    header = ["bijection", "norm_T", "norm_Tinv", "level2_T", "level2_Tinv", "distortion"]
    lines = [",".join(header)]
    for row in search_result_rows(result):
        cells = ['"' + row["bijection"] + '"']
        for key in header[1:]:
            val = row[key]
            cells.append("" if val is None else f"{val:.12g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
