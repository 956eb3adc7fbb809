"""The benchmark's workloads.

Each workload makes its inputs from the seed once, outside the timed region
(``__init__``), then ``run`` is the timed batch: it calls the public
fourierdist API on those inputs and returns the raw results.  ``run`` calls
``tick()`` between items, where the timer re-calibrates machine speed.  ``collect``
turns a batch's results into operations (one per norm evaluation,
lemma-verifier call or Fourier function check) with a digest of each output,
and ``verify`` runs the independent checks on them, outside the timed region.
The same inputs give the same outputs, so ``run.py`` repeats a batch and
compares digests instead of verifying every repetition.

An exception inside a batch is caught per item and fails that item's
operations, so one failing call does not hide the others.
"""

import math
from dataclasses import dataclass, field

import numpy as np

import certify
from certify import DELTA_GAP, SQRT2, SQRT_3_2, TOL
from setup_probe import WORKLOAD_GROUPS

LEVELS = (1, 2)
DIRECTIONS = ("T", "Tinv")


@dataclass
class Op:
    """One operation of a batch and what its checks found."""

    label: str
    value: float | None = None      # a reported lower bound, if the operation has one
    exact: float | None = None      # its exact value, where a theorem gives one
    digest: tuple = ()
    failures: list = field(default_factory=list)


@dataclass
class Outcome:
    ops: list
    metas: list                     # optimizer metas visible in public return values


@dataclass
class Failed:
    error: str


def attempt(fn, *args, **kwargs):
    """Call ``fn``; an exception becomes a ``Failed`` result for its item."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:        # noqa: BLE001 - counted as a failed operation
        return Failed(f"{type(exc).__name__}: {exc}")


def _fail_all(ops, message):
    for op in ops:
        op.failures.append(message)


def report_ops(label, report):
    """The four norm evaluations of a levels-(1, 2) HomNormReport."""
    ops, metas = [], []
    for k in LEVELS:
        for d, direction in enumerate(DIRECTIONS):
            value = float(report.level_k_norms[k][d])
            meta = report.optimizer_meta[k][d]
            metas.append(meta)
            ops.append(Op(f"{label} level{k} {direction}", value=value,
                          digest=(value, certify.witness_digest(report.witnesses[k][d]),
                                  meta.get("converged"), meta.get("best_source"))))
    return ops, metas


def failed_report_ops(label, failed):
    ops = [Op(f"{label} level{k} {direction}", digest=(failed.error,))
           for k in LEVELS for direction in DIRECTIONS]
    _fail_all(ops, failed.error)
    return ops


def verify_report(fd, hom, report, ops, exact=None):
    """Checks of one levels-(1, 2) report whose ops came from ``report_ops``.

    ``exact`` optionally maps (level, direction) to a known exact value; an
    abelian source group also gets the closed form as its exact value.
    """
    exact = dict(exact or {})
    homs = {"T": hom, "Tinv": hom.inverse()}
    for direction, h in homs.items():
        if h.source_group.is_abelian():
            closed = certify.abelian_source_norm(fd, h)
            for k in LEVELS:
                exact.setdefault((k, direction), closed)
    by_key = {}
    for op, (k, direction) in zip(ops, [(k, d) for k in LEVELS for d in DIRECTIONS]):
        by_key[k, direction] = op
        witness = report.witnesses[k][DIRECTIONS.index(direction)]
        op.failures += certify.witness_problems(homs[direction], witness, op.value)
        if not op.value >= 1.0 - TOL:
            op.failures.append(f"value {op.value!r} below 1")
        op.exact = exact.get((k, direction))
        if op.exact is not None and op.value > op.exact + TOL:
            op.failures.append(f"value {op.value!r} above its exact value {op.exact!r}")
    for direction in DIRECTIONS:
        if by_key[2, direction].value < by_key[1, direction].value - 1e-12:
            by_key[2, direction].failures.append("level-2 value below the level-1 value")
    distortion = by_key[1, "T"].value * by_key[1, "Tinv"].value
    if abs(report.distortion - distortion) > TOL * distortion:
        by_key[1, "T"].failures.append("distortion is not ||T|| ||T^-1||")
    return by_key


def verify_level2_verdicts(by_key):
    """The per-bijection content of norm_gap_scan's two hard verdicts for a
    non-isomorphic pair: some direction reaches sqrt(3/2) at level 2, and no
    level-2 value lies in the gap (1 + delta, sqrt(3/2) - delta)."""
    level2 = [by_key[2, d] for d in DIRECTIONS]
    if max(op.value for op in level2) < SQRT_3_2 - DELTA_GAP:
        _fail_all(level2, "level2_isomorphism_threshold violated")
    for op in level2:
        if 1.0 + DELTA_GAP < op.value < SQRT_3_2 - DELTA_GAP:
            op.failures.append("level-2 value in the gap interval")


class ScanZ6S3:
    """The items of the Z6/S3 level-2 norm-gap scan at scan effort.

    One canonical bijection is drawn, with the seed, from each of the 12
    orbits of Aut(Z6) x Aut(S3); every norm is constant on an orbit, so the
    sample shows every value of the full 120-map scan, including the orbit
    that the ascent leaves under-converged.
    """

    name = "scan-z6s3"
    spans = ("search.enumerate", "homs.hom_norm_report", "homs.level_k_norm", "homs.kernels",
             "optim.linmap_build", "optim.maximize", "kernel.svd", "kernel.qr")

    def __init__(self, fd, seed):
        self.fd, self.seed = fd, seed
        self.g, self.h = (fd.parse_group_spec(s) for s in WORKLOAD_GROUPS[self.name])
        self.effort = fd.resolve_effort("default").for_scan()
        auts_g, auts_h = fd.automorphisms(self.g), fd.automorphisms(self.h)
        rng = np.random.default_rng([seed, 6])
        seen, self.sample = set(), set()
        for bij in fd.enumerate_bijections(self.g, self.h):
            if tuple(bij.map.tolist()) in seen:
                continue
            orbit = sorted({tuple(a[bij.map[b]].tolist()) for a in auts_g for b in auts_h})
            seen.update(orbit)
            self.sample.add(orbit[int(rng.integers(len(orbit)))])

    def _item(self, bij):
        fd = self.fd
        hom = fd.InducedHom(bijection=bij, source_table=fd.irrep_table_for(self.g),
                            target_table=fd.irrep_table_for(self.h))
        return hom, fd.hom_norm_report(hom, levels=LEVELS, effort=self.effort, seed=self.seed)

    def run(self, tick):
        items = []
        for bij in self.fd.enumerate_bijections(self.g, self.h):
            if tuple(bij.map.tolist()) in self.sample:
                items.append((bij, attempt(self._item, bij)))
                tick()
        return items

    def collect(self, items):
        ops, metas = [], []
        for bij, result in items:
            label = ",".join(map(str, bij.map.tolist()))
            if isinstance(result, Failed):
                ops += failed_report_ops(label, result)
            else:
                item_ops, item_metas = report_ops(label, result[1])
                ops += item_ops
                metas += item_metas
        return Outcome(ops, metas)

    def verify(self, items, outcome):
        if len(items) != len(self.sample):
            _fail_all(outcome.ops, f"scanned {len(items)} of {len(self.sample)} sampled maps")
        distortions = []
        for i, (bij, result) in enumerate(items):
            if isinstance(result, Failed):
                continue
            hom, report = result
            by_key = verify_report(self.fd, hom, report, outcome.ops[4 * i:4 * i + 4])
            verify_level2_verdicts(by_key)
            distortions.append((report.distortion, by_key))
        # the sample meets every orbit, so its minimum is the scan's min_distortion
        if distortions:
            best, by_key = min(distortions, key=lambda x: x[0])
            if abs(best - 2.0) > 1e-6:
                _fail_all([by_key[1, d] for d in DIRECTIONS],
                          f"Z6/S3 min distortion {best!r} is not 2")


class WorkedPair:
    """The paper's identity bijection Z6 -> S3: norms at levels 1 and 2,
    the cb norm of T^-1 (levels 1 to 4) and the Jordan defect of T."""

    name = "worked-pair"
    spans = ("homs.hom_norm_report", "homs.cb_norm", "homs.jordan_defect", "homs.level_k_norm",
             "homs.kernels", "optim.linmap_build", "optim.maximize", "kernel.svd", "kernel.qr")
    # default effort (64 restarts, 500 iterations, 100k samples) with restarts
    # and samples cut by 4, which keeps the ascent / sampling-oracle split of
    # the default preset while one batch fits a few seconds
    RESTARTS, SAMPLES = 16, 25_000

    def __init__(self, fd, seed):
        self.fd, self.seed = fd, seed
        self.g, self.h = (fd.parse_group_spec(s) for s in WORKLOAD_GROUPS[self.name])
        self.effort = fd.Effort(restarts=self.RESTARTS, samples=self.SAMPLES)

    def run(self, tick):
        fd = self.fd
        out = {"hom": fd.induced_hom(fd.irrep_table_for(self.g), fd.irrep_table_for(self.h),
                                     np.arange(self.g.order))}
        out["report"] = attempt(fd.hom_norm_report, out["hom"], levels=LEVELS,
                                effort=self.effort, seed=self.seed)
        tick()
        out["cb"] = attempt(fd.cb_norm, out["hom"].inverse(), effort=self.effort,
                            seed=self.seed)
        tick()
        out["defect"] = attempt(fd.jordan_defect, out["hom"], seed=self.seed)
        return out

    def collect(self, out):
        ops, metas = [], []
        report, cb, defect = out["report"], out["cb"], out["defect"]
        if isinstance(report, Failed):
            ops += failed_report_ops("report", report)
        else:
            report_part, metas = report_ops("report", report)
            ops += report_part
        if isinstance(cb, Failed):
            cb_ops = [Op(f"cb level{k}", digest=(cb.error,)) for k in range(1, 5)]
            _fail_all(cb_ops, cb.error)
        else:
            cb_ops = [Op(f"cb level{k}", value=float(v), digest=(float(v),))
                      for k, v in cb.levels]
            cb_ops[-1].digest += (certify.witness_digest(cb.witness),
                                  cb.meta.get("converged"), cb.meta.get("best_source"))
            # cb_norm keeps only its last level's optimizer meta
            metas = metas + [cb.meta]
        ops += cb_ops
        if isinstance(defect, Failed):
            ops.append(Op("jordan defect", digest=(defect.error,), failures=[defect.error]))
        else:
            ops.append(Op("jordan defect", value=float(defect), digest=(float(defect),)))
        return Outcome(ops, metas)

    def verify(self, out, outcome):
        hom, report, cb, defect = out["hom"], out["report"], out["cb"], out["defect"]
        ops = outcome.ops
        paper = {(k, d): SQRT2 for k in LEVELS for d in DIRECTIONS}
        if not isinstance(report, Failed):
            verify_report(self.fd, hom, report, ops[:4], exact=paper)
        if not isinstance(cb, Failed):
            cb_ops = ops[4:-1]
            inverse = hom.inverse()
            if [k for k, _ in cb.levels] != [1, 2, 3, 4]:
                _fail_all(cb_ops, f"cb levels {[k for k, _ in cb.levels]}, expected 1..4")
            for i, op in enumerate(cb_ops):
                if not op.value >= 1.0 - TOL:
                    op.failures.append(f"value {op.value!r} below 1")
                if i and op.value < cb_ops[i - 1].value - 1e-12:
                    op.failures.append("cb level value below the previous level")
                if i < 2:
                    op.exact = SQRT2
                    if op.value > SQRT2 + TOL:
                        op.failures.append(f"value {op.value!r} above sqrt(2)")
            cb_ops[-1].failures += certify.witness_problems(inverse, cb.witness, cb.value)
            if cb.value != cb_ops[-1].value:
                cb_ops[-1].failures.append("cb value is not its last level's value")
        if not isinstance(defect, Failed):
            floor = certify.jordan_basis_defect(hom)
            if not (math.isfinite(defect) and defect >= floor - TOL):
                ops[-1].failures.append(f"defect {defect!r} below the basis-pair value {floor!r}")


class Checks:
    """The layers that do not use the optimizer: lemma verifiers, the
    Fourier transform and norms, and uncached irrep computation."""

    name = "checks"
    spans = ("lemmas.verify_invmult", "lemmas.verify_unitmult", "lemmas.verify_norm_gap",
             "fourier.a_norm", "fourier.dual_norm_witness", "kernel.svd", "kernel.qr")
    LEMMA_DIMS = (2, 4, 8)
    LEMMA_TRIALS = 2000
    NORM_GAP_GROUPS = ("Z6", "S3", "D4")
    NORM_GAP_TRIALS = 1000
    FUNCTIONS_PER_GROUP = 4

    def __init__(self, fd, seed):
        self.fd, self.seed = fd, seed
        self.groups = [fd.parse_group_spec(s) for s in WORKLOAD_GROUPS[self.name]]
        self.norm_gap_groups = [g for g in self.groups if g.label in self.NORM_GAP_GROUPS]
        rng = np.random.default_rng([seed, 31])
        self.functions = []
        for g in self.groups:
            for _ in range(self.FUNCTIONS_PER_GROUP):
                values = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
                # unit root-mean-square values keep the mean norm steady across seeds
                values /= np.sqrt(np.mean(np.abs(values) ** 2))
                self.functions.append(fd.AFunction(g, values))

    def _fourier(self, f, table):
        fd = self.fd
        value, witness = fd.dual_norm_witness(f, table, seed=self.seed)
        back = fd.fourier_inverse(fd.fourier_transform(f, table))
        return fd.a_norm(f, table), value, witness, back

    def run(self, tick):
        fd, seed = self.fd, self.seed
        lemmas = []
        for d in self.LEMMA_DIMS:
            lemmas.append((f"invmult dim{d}",
                           attempt(fd.verify_invmult, d, trials=self.LEMMA_TRIALS, seed=seed)))
            lemmas.append((f"unitmult dim{d}",
                           attempt(fd.verify_unitmult, d, trials=self.LEMMA_TRIALS, seed=seed)))
            tick()
        for g in self.norm_gap_groups:
            lemmas.append((f"norm_gap {g.label}",
                           attempt(fd.verify_norm_gap, g, fd.irrep_table_for(g),
                                   random_trials=self.NORM_GAP_TRIALS, seed=seed)))
            tick()
        tables = [(g, attempt(fd.irreps_of, g, seed=seed)) for g in self.groups]
        tick()
        fourier = [(f, attempt(self._fourier, f, fd.irrep_table_for(f.group)))
                   for f in self.functions]
        return lemmas, tables, fourier

    def collect(self, out):
        lemmas, tables, fourier = out
        ops = []
        for label, rep in lemmas:
            if isinstance(rep, Failed):
                ops.append(Op(label, digest=(rep.error,), failures=[rep.error]))
            else:
                ops.append(Op(label, digest=(rep.trials, rep.worst_margin,
                                             rep.counterexample is None)))
        for g, table in tables:
            if isinstance(table, Failed):
                ops.append(Op(f"irreps {g.label}", digest=(table.error,), failures=[table.error]))
            else:
                ops.append(Op(f"irreps {g.label}", digest=tuple(
                    np.round(np.concatenate([r.characters for r in table.irreps]), 12).tolist())))
        for f, res in fourier:
            label = f"fourier {f.group.label}"
            if isinstance(res, Failed):
                ops.append(Op(label, digest=(res.error,), failures=[res.error]))
            else:
                a, value, witness, back = res
                ops.append(Op(label, value=float(value), digest=(
                    a, value, witness.coeffs.tobytes(), back.values.tobytes())))
        return Outcome(ops, [])

    def verify(self, out, outcome):
        fd = self.fd
        lemmas, tables, fourier = out
        ops = iter(outcome.ops)
        for (label, rep), op in zip(lemmas, ops):
            if isinstance(rep, Failed):
                continue
            if rep.counterexample is not None:
                op.failures.append(f"counterexample {rep.counterexample}")
            if label.startswith("norm_gap") and not (
                    rep.meta["four_term_nonzero_min"] >= SQRT2 - 1e-10
                    and rep.meta["four_term_zero_max"] <= 1e-8):
                op.failures.append(f"four-term dichotomy fails: {rep.meta}")
        fresh = {}
        for (g, table), op in zip(tables, ops):
            if isinstance(table, Failed):
                continue
            try:
                fd.validate_irrep_table(table)
            except ValueError as exc:
                op.failures.append(str(exc))
            if sorted(table.dims) != sorted(fd.irrep_table_for(g).dims):
                op.failures.append(f"dims {table.dims} differ from the cached table's")
            fresh[g.label] = table
        for (f, res), op in zip(fourier, ops):
            if isinstance(res, Failed):
                continue
            a, value, witness, back = res
            op.exact = a
            if value > a + TOL:
                op.failures.append(f"dual value {value!r} above a_norm {a!r}")
            pairing = abs(complex(np.dot(witness.coeffs, f.values)))
            if abs(pairing - value) > TOL * max(1.0, a):
                op.failures.append(f"dual witness pairs to {pairing!r}, reported {value!r}")
            norm = certify.vn_norm_of_coeffs(fd.irrep_table_for(f.group), witness.coeffs)
            if norm > 1.0 + TOL:
                op.failures.append(f"dual witness has VN norm {norm!r} > 1")
            error = float(np.abs(back.values - f.values).max())
            if not error < 1e-9:
                op.failures.append(f"Fourier round trip error {error!r}")
            if f.group.label in fresh:
                other = fd.a_norm(f, fresh[f.group.label])
                if abs(other - a) > TOL * max(1.0, a):
                    op.failures.append(f"a_norm depends on the irrep basis: {a!r} vs {other!r}")


WORKLOADS = {cls.name: cls for cls in (ScanZ6S3, WorkedPair, Checks)}
