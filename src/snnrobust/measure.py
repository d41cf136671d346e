"""Robustness measures and rank-correlation statistics.

Error rate is the flip fraction among attacked (originally correct) images;
average confidence and average epsilon are taken over successful flips only.
Correlations use Spearman rho (Pearson on average ranks) and Kendall tau-b,
with Cohen's thresholds labeling the association strength and Tukey fences
flagging outlier runs.

Both rank statistics are plain numpy and equal scipy.stats bit for bit
(`rankdata(..., method="average")` with `np.corrcoef`, and
`kendalltau(..., variant="b")`): average ranks are half-integers, exact in
float64, and tau-b is scipy's own expression over exact integer pair
counts. scipy.stats is not imported, because importing it costs every
snnrobust process about 0.4 s and 27 MiB. Tau counts its tied, concordant
and discordant pairs directly, with comparisons only, over all n(n-1)/2
index pairs. That is O(n^2) time and traffic, at a peak of about 55 bytes
per pair (two index arrays, four gathered values, the comparison masks):
0.27 MB and about 0.15 ms for the 100 values a full-scale `correlate`
passes (one per graph, 4,950 pairs), 13 kB for the pruning baseline's at
most 21 steps, and 13 MB and about 18 ms at 700 values (times on one core
of a 2-core x86-64 VM).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COHEN_THRESHOLDS = ((0.10, "negligible"), (0.30, "weak"), (0.50, "moderate"))


class DegenerateDataError(ValueError):
    """Correlation undefined: a variable has zero rank variance."""


class MeasureError(ValueError):
    """Measure precondition violated."""


@dataclass
class RobustnessRecord:
    model_id: str
    init_method: str
    attack: str
    error_rate: float
    avg_confidence: float | None
    avg_epsilon: float | None
    n_attacked: int
    n_successful: int
    n_censored: int


def error_rate(outcomes) -> float:
    """Fraction of attacked images whose prediction flipped.

    Callers must pass outcomes for originally-correct images only; the rate
    conditions on correct clean classification.
    """
    if not outcomes:
        raise MeasureError("error rate undefined with zero attacked samples")
    return sum(1 for o in outcomes if o.success) / len(outcomes)


def avg_confidence(outcomes) -> float | None:
    """Mean predicted-class probability over successful flips; None if none."""
    conf = [o.confidence for o in outcomes if o.success]
    if not conf:
        return None
    return float(np.mean(conf))


def avg_epsilon(outcomes) -> float | None:
    """Mean epsilon over successful epsilon-search records; censored records
    (no flip within the cap) are excluded. None if no successes."""
    eps = [o.epsilon_used for o in outcomes if o.success and o.epsilon_used is not None]
    if not eps:
        return None
    return float(np.mean(eps))


def robustness_record(model_id: str, init_method: str, attack: str, outcomes) -> RobustnessRecord:
    """Assemble the three measures plus counts from per-image outcomes."""
    return RobustnessRecord(
        model_id=model_id,
        init_method=init_method,
        attack=attack,
        error_rate=error_rate(outcomes),
        avg_confidence=avg_confidence(outcomes),
        avg_epsilon=avg_epsilon(outcomes) if attack == "fgsm_search" else None,
        n_attacked=len(outcomes),
        n_successful=sum(1 for o in outcomes if o.success),
        n_censored=(sum(1 for o in outcomes if not o.success)
                    if attack == "fgsm_search" else 0),
    )


def _validate_pair(xs, ys, minimum: int = 3) -> tuple[np.ndarray, np.ndarray]:
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise MeasureError("inputs must be 1-D arrays of equal length")
    if xs.size < minimum:
        raise MeasureError(f"need at least {minimum} pairs, got {xs.size}")
    return xs, ys


def _tie_runs(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1-based ranks of v, and the bounds of its tie runs: run r
    (1-based) holds the sorted positions bounds[r-1] .. bounds[r] - 1."""
    order = np.argsort(v, kind="stable")
    s = v[order]
    starts = np.r_[True, s[1:] != s[:-1]]
    dense = np.empty(v.size, dtype=np.intp)
    dense[order] = np.cumsum(starts)
    return dense, np.r_[np.flatnonzero(starts), v.size]


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks, each tie run given the mean of its positions; NaN
    anywhere makes every rank NaN, as in scipy.stats.rankdata."""
    if np.isnan(v).any():
        return np.full(v.size, np.nan)
    dense, bounds = _tie_runs(v)
    return 0.5 * (bounds[dense] + bounds[dense - 1] + 1)


def rank_groups(columns: dict[str, list]) -> list[list[tuple[str, int]]]:
    """Groups of two or more non-constant columns whose average ranks are
    identical, or identical once a column is negated: such columns give the
    same rho and tau against any measure, up to sign. Each member is
    (name, sign), sign -1 for a reversed ranking; the first has sign +1."""
    groups: dict[tuple, list[tuple[str, int]]] = {}
    for name, values in columns.items():
        v = np.asarray(values, dtype=np.float64)
        if np.ptp(v) == 0:
            continue
        up, down = tuple(_average_ranks(v)), tuple(_average_ranks(-v))
        if up not in groups and down in groups:
            groups[down].append((name, -1))
        else:
            groups.setdefault(up, []).append((name, 1))
    return [g for g in groups.values() if len(g) > 1]


def spearman(xs, ys) -> float:
    """Spearman rho: Pearson correlation of average ranks."""
    xs, ys = _validate_pair(xs, ys)
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    if np.ptp(rx) == 0 or np.ptp(ry) == 0:
        raise DegenerateDataError("zero rank variance")
    return float(np.corrcoef(rx, ry)[0, 1])


def kendall(xs, ys) -> float:
    """Kendall tau-b (tie corrected), counted as scipy counts it, from the
    tied, concordant and discordant pairs. Values are compared, never
    subtracted, so infinities tie with themselves and raise no warning."""
    xs, ys = _validate_pair(xs, ys)
    i, j = np.triu_indices(xs.size, 1)
    xi, xj, yi, yj = xs[i], xs[j], ys[i], ys[j]
    tot = i.size
    xtie = int(np.count_nonzero(xi == xj))
    ytie = int(np.count_nonzero(yi == yj))
    if xtie == tot or ytie == tot:
        raise DegenerateDataError("all-tied input")
    if np.isnan(xs).any() or np.isnan(ys).any():
        raise DegenerateDataError("tau undefined for this input")
    xlt, xgt, ylt, ygt = xi < xj, xi > xj, yi < yj, yi > yj
    con = int(np.count_nonzero(xlt & ylt | xgt & ygt))
    dis = int(np.count_nonzero(xlt & ygt | xgt & ylt))
    tau = (con - dis) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def cohen_label(rho: float) -> str:
    """Cohen's standard on |rho|: negligible < .10 <= weak < .30 <= moderate
    < .50 <= large."""
    r = abs(rho)
    if r > 1.0 + 1e-12:
        raise MeasureError(f"|rho| must be <= 1, got {rho}")
    for bound, label in COHEN_THRESHOLDS:
        if r < bound:
            return label
    return "large"


def tukey_fences(values) -> tuple[float, float]:
    """Q1 - 1.5 IQR and Q3 + 1.5 IQR with linear-interpolation quartiles."""
    v = np.asarray(values, dtype=np.float64)
    q1, q3 = np.percentile(v, [25.0, 75.0])
    iqr = q3 - q1
    return float(q1 - 1.5 * iqr), float(q3 + 1.5 * iqr)


@dataclass
class CorrelationCell:
    graph_property: str
    attack: str
    measure: str
    rho: float | None
    tau: float | None
    label: str | None
    n: int
    flag: str | None = None  # reason a cell is undefined

    @property
    def defined(self) -> bool:
        return self.rho is not None


# (attack, measure) column order mirroring the correlation report layout
MEASURE_COLUMNS = (
    ("fgsm", "error_rate"),
    ("fgsm", "avg_confidence"),
    ("fgsm_search", "avg_epsilon"),
    ("one_pixel", "error_rate"),
    ("one_pixel", "avg_confidence"),
)


@dataclass
class CorrelationTable:
    cells: list[CorrelationCell]
    properties: list[str]

    def cell(self, graph_property: str, attack: str, measure: str) -> CorrelationCell:
        for c in self.cells:
            if (c.graph_property, c.attack, c.measure) == (graph_property, attack, measure):
                return c
        raise KeyError((graph_property, attack, measure))

    def layout_rows(self) -> list[list[str]]:
        """Rows for the wide CSV: one row per property, one cell per measure
        column, each cell 'rho=..|tau=..|label' or 'undefined:<reason>'."""
        header = ["graph_property"] + [f"{a}:{m}" for a, m in MEASURE_COLUMNS]
        rows = [header]
        for prop in self.properties:
            row = [prop]
            for attack, meas in MEASURE_COLUMNS:
                c = self.cell(prop, attack, meas)
                if c.defined:
                    row.append(f"rho={c.rho:+.4f}|tau={c.tau:+.4f}|{c.label}|n={c.n}")
                else:
                    row.append(f"undefined:{c.flag}|n={c.n}")
            rows.append(row)
        return rows

    def long_rows(self) -> list[list]:
        header = ["graph_property", "attack", "measure", "rho", "tau", "label", "n", "flag"]
        rows: list[list] = [header]
        for c in self.cells:
            rows.append([c.graph_property, c.attack, c.measure,
                         "" if c.rho is None else c.rho,
                         "" if c.tau is None else c.tau,
                         c.label or "", c.n, c.flag or ""])
        return rows


def correlation_cell(graph_property: str, attack: str, measure: str,
                     xs, ys) -> CorrelationCell:
    """Correlate one property/measure pair, flagging degenerate inputs."""
    n = len(xs)
    try:
        rho = spearman(xs, ys)
        tau = kendall(xs, ys)
    except (DegenerateDataError, MeasureError) as exc:
        return CorrelationCell(graph_property, attack, measure,
                               None, None, None, n, flag=str(exc))
    return CorrelationCell(graph_property, attack, measure,
                           rho, tau, cohen_label(rho), n)
