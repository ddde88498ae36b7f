"""Saliency evaluation metrics and synaptic-operation energy estimation.

Metric conventions:

* MAE per map, averaged over a dataset.
* F-measure with beta^2 = 0.3 over 256 evenly spaced thresholds in
  [0, 1]; precision/recall are averaged across maps per threshold and
  the F curve is computed from the averaged values, which is the usual
  benchmark-toolbox convention. 0/0 counts as 0.
* Structure measure (object + region halves, alpha = 0.5) following the
  published reference implementation, including its centroid rounding,
  sample-variance denominators and degenerate-mask special cases.

Energy model: every synaptic accumulate triggered by a spike costs
E_AC, the dense multiply-accumulate equivalent costs E_MAC (45 nm CMOS
figures). Counts come from a forward pass traced layer by layer; the
first conv sees the real-valued input representation and its per-pixel
ops are priced as accumulates, which flatters nothing since the same
layer is dense in the ANN equivalent.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import grad as G
from .rst import require_eval, trace_activity

F_BETA_SQ = 0.3
N_THRESHOLDS = 256
E_AC_J = 0.9e-12
E_MAC_J = 4.6e-12
RATIO_SENTINEL = 1e12
S_ALPHA = 0.5       # S-measure weight of the object half

_EPS = float(np.finfo(np.float64).eps)


def mae(pred: np.ndarray, target: np.ndarray) -> float:
    pred, target = np.asarray(pred), np.asarray(target)
    if pred.shape != target.shape:
        raise ValueError("shape mismatch")
    return float(np.abs(pred - target).mean())


def _pr_counts(pred: np.ndarray, target: np.ndarray):
    """Per-threshold true-positive / predicted-positive / actual-positive."""
    thresholds = np.linspace(0.0, 1.0, N_THRESHOLDS)
    pred = np.asarray(pred, dtype=np.float64).ravel()
    # NaN compares below every threshold, as it fails every `>=`
    pred = np.where(np.isnan(pred), -np.inf, pred)
    gt = np.asarray(target).ravel().astype(bool)

    def at_or_above(values):
        values = np.sort(values)
        return (values.size - np.searchsorted(values, thresholds, side="left")
                ).astype(np.float64)

    tp = at_or_above(pred[gt])
    pp = at_or_above(pred)
    ap = float(gt.sum())
    return tp, pp, np.full(N_THRESHOLDS, ap)


def _f_curve(precision: np.ndarray, recall: np.ndarray) -> np.ndarray:
    num = (1.0 + F_BETA_SQ) * precision * recall
    den = F_BETA_SQ * precision + recall
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def f_measures(pred: np.ndarray, target: np.ndarray) -> tuple[float, float]:
    """(max, mean) F over the threshold sweep for a single map."""
    tp, pp, ap = _pr_counts(np.asarray(pred), np.asarray(target))
    precision = np.divide(tp, pp, out=np.zeros_like(tp), where=pp > 0)
    recall = np.divide(tp, ap, out=np.zeros_like(tp), where=ap > 0)
    curve = _f_curve(precision, recall)
    return float(curve.max()), float(curve.mean())


# -- structure measure -----------------------------------------------------------


def _object_score(x: np.ndarray) -> float:
    # x: prediction values inside one region mask
    if x.size == 0:
        return 0.0
    mean = float(x.mean())
    dev = float(x.std(ddof=1)) if x.size > 1 else 0.0
    return 2.0 * mean / (mean * mean + 1.0 + dev + _EPS)


def _s_object(pred: np.ndarray, gt: np.ndarray) -> float:
    fg = _object_score(pred[gt])
    bg = _object_score((1.0 - pred)[~gt])
    u = float(gt.mean())
    return u * fg + (1.0 - u) * bg


def _round_half_up(v: float) -> int:
    # matlab-style round; python's banker rounding would split .5 ties differently
    return int(np.floor(v + 0.5))


def _centroid(gt: np.ndarray) -> tuple[int, int]:
    # 1-based rounding as in the reference code, returned 0-based
    rows, cols = gt.shape
    total = gt.sum()
    if total == 0:
        return _round_half_up(rows / 2.0) - 1, _round_half_up(cols / 2.0) - 1
    i = np.arange(1, cols + 1)
    j = np.arange(1, rows + 1)
    x = _round_half_up(float((gt.sum(axis=0) * i).sum() / total))
    y = _round_half_up(float((gt.sum(axis=1) * j).sum() / total))
    return y - 1, x - 1


def _region_ssim(pred: np.ndarray, gt: np.ndarray) -> float:
    n = pred.size
    if n == 0:
        return 1.0
    x, y = float(pred.mean()), float(gt.mean())
    if n > 1:
        sx = float(((pred - x) ** 2).sum() / (n - 1))
        sy = float(((gt - y) ** 2).sum() / (n - 1))
        sxy = float(((pred - x) * (gt - y)).sum() / (n - 1))
    else:
        sx = sy = sxy = 0.0
    a = 4.0 * x * y * sxy
    b = (x * x + y * y) * (sx + sy)
    if a != 0.0:
        return a / (b + _EPS)
    return 1.0 if b == 0.0 else 0.0


def _s_region(pred: np.ndarray, gt: np.ndarray) -> float:
    cy, cx = _centroid(gt)
    rows, cols = gt.shape
    area = float(rows * cols)
    # quadrant split at the centroid, each weighted by its area fraction
    yy, xx = cy + 1, cx + 1
    quads = [(slice(0, yy), slice(0, xx)), (slice(0, yy), slice(xx, cols)),
             (slice(yy, rows), slice(0, xx)), (slice(yy, rows), slice(xx, cols))]
    w = [xx * yy / area, (cols - xx) * yy / area, xx * (rows - yy) / area]
    w.append(1.0 - w[0] - w[1] - w[2])
    total = 0.0
    for wi, qs in zip(w, quads):
        total += wi * _region_ssim(pred[qs], gt[qs].astype(np.float64))
    return total


def s_measure(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64).reshape(np.asarray(target).shape)
    gt = np.asarray(target).astype(bool)
    if pred.ndim != 2:
        pred, gt = pred.squeeze(), gt.squeeze()
    y = float(gt.mean())
    if y == 0.0:
        return 1.0 - float(pred.mean())
    if y == 1.0:
        return float(pred.mean())
    q = S_ALPHA * _s_object(pred, gt) + (1 - S_ALPHA) * _s_region(pred, gt)
    return max(q, 0.0)


# -- dataset-level evaluation ------------------------------------------------------


@dataclass
class EvalReport:
    mae: float
    f_beta_max: float
    mean_f_beta: float
    s_measure: float
    threshold_curve: list = field(repr=False)
    per_sequence: dict = field(default_factory=dict)
    count: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    def to_table(self) -> str:
        rows = [("all", self.mae, self.f_beta_max, self.mean_f_beta,
                 self.s_measure)]
        for name in sorted(self.per_sequence):
            d = self.per_sequence[name]
            rows.append((name, d["mae"], d["f_beta_max"], d["mean_f_beta"],
                         d["s_measure"]))
        width = max(len(r[0]) for r in rows)
        head = f"{'sequence':<{width}}  {'MAE':>8}  {'maxF':>8}  {'mF':>8}  {'Sm':>8}"
        lines = [head, "-" * len(head)]
        for name, m, fx, fm, sm in rows:
            lines.append(f"{name:<{width}}  {m:>8.4f}  {fx:>8.4f}  "
                         f"{fm:>8.4f}  {sm:>8.4f}")
        return "\n".join(lines)


def _score(pred, gt):
    """Per-map MAE, S-measure, precision row and recall row."""
    pred = np.asarray(pred, dtype=np.float64).squeeze()
    gt01 = np.asarray(gt, dtype=np.float64).squeeze()
    t, pp, ap = _pr_counts(pred, gt01)
    return (mae(pred, gt01), s_measure(pred, gt01),
            np.divide(t, pp, out=np.zeros_like(t), where=pp > 0),
            np.divide(t, ap, out=np.zeros_like(t), where=ap > 0))


def _aggregate(scores):
    """Per-map scores, summed in order -> summary dict + averaged F curve."""
    n = 0
    mae_sum = 0.0
    sm_sum = 0.0
    prec = np.zeros(N_THRESHOLDS)
    rec = np.zeros(N_THRESHOLDS)
    for m, sm, p, r in scores:
        mae_sum += m
        sm_sum += sm
        prec += p
        rec += r
        n += 1
    if n == 0:
        raise ValueError("no samples to evaluate")
    curve = _f_curve(prec / n, rec / n)
    return {"mae": mae_sum / n, "s_measure": sm_sum / n,
            "f_beta_max": float(curve.max()),
            "mean_f_beta": float(curve.mean()), "count": n}, curve


def evaluate(samples) -> EvalReport:
    """samples: iterable of (pred, gt) or (pred, gt, sequence_name)."""
    flat, groups = [], {}
    for item in samples:
        if len(item) == 3:
            pred, gt, seq = item
            score = _score(pred, gt)
            groups.setdefault(seq, []).append(score)
        else:
            pred, gt = item
            score = _score(pred, gt)
        flat.append(score)
    summary, curve = _aggregate(flat)
    per_seq = {name: _aggregate(scores)[0] for name, scores in groups.items()}
    return EvalReport(**summary, threshold_curve=curve.tolist(),
                      per_sequence=per_seq)


# -- energy ------------------------------------------------------------------------


@dataclass
class EnergyReport:
    ac_ops: float
    mac_ops: float
    snn_energy_j: float
    ann_energy_j: float
    ratio: float
    per_layer: list = field(default_factory=list, repr=False)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)

    def to_table(self) -> str:
        lines = [f"{'layer':<20} {'AC ops':>14} {'MAC ops':>14}"]
        lines.append("-" * len(lines[0]))
        for rec in self.per_layer:
            lines.append(f"{rec['name']:<20} {rec['ac']:>14.0f} {rec['mac']:>14.0f}")
        lines.append("-" * len(lines[0]))
        lines.append(f"{'total':<20} {self.ac_ops:>14.0f} {self.mac_ops:>14.0f}")
        lines.append(f"snn energy: {self.snn_energy_j:.3e} J")
        lines.append(f"ann energy: {self.ann_energy_j:.3e} J")
        ratio = "inf (sentinel)" if self.ratio >= RATIO_SENTINEL else f"{self.ratio:.1f}x"
        lines.append(f"ratio:      {ratio}")
        return "\n".join(lines)


def energy_from_trace(layers) -> EnergyReport:
    per_layer = []
    ac_total = 0.0
    mac_total = 0.0
    for rec in layers:
        ac = rec["spikes_in"] * rec["fanout"]
        mc = rec["numel_in"] * rec["fanout"]
        per_layer.append({"name": rec["name"], "ac": ac, "mac": mc,
                          "analog": rec["analog"]})
        ac_total += ac
        mac_total += mc
    snn = ac_total * E_AC_J
    ann = mac_total * E_MAC_J
    ratio = ann / snn if snn > 0 else RATIO_SENTINEL
    return EnergyReport(ac_ops=ac_total, mac_ops=mac_total, snn_energy_j=snn,
                        ann_energy_j=ann, ratio=min(ratio, RATIO_SENTINEL),
                        per_layer=per_layer)


def estimate_energy(net, repr_batch: np.ndarray, mode: str = "multi") -> EnergyReport:
    """Trace one graph-free inference of ``net``, an eval net
    (``rst.eval_net``; a training-mode net raises ``ValueError``), from
    fresh membranes, and price its synaptic operations."""
    require_eval(net).reset_state()
    with trace_activity() as tr, G.no_grad():
        net.forward_full(repr_batch, mode=mode)
    return energy_from_trace(tr.layers)
