"""``ErrorEstimate.interval`` against the ``scipy.stats`` formulas it replaced.

The interval's quantiles are scipy.special calls (the bodies of ``chi2`` and
``t``'s ``_ppf``); this file is the only place ``scipy.stats`` is imported,
as the oracle.  Every bound must be ``.hex()``-equal to what the old code
computed: ``sqrt(sse / chi2.ppf(...))`` for a training-set estimate and
``rmse ± t.ppf(...) * se`` for a cross-validation one.  ``ppf`` is evaluated
over whole dof arrays here; it is elementwise, so each element carries the
bits of the scalar call (checked on a sample below).
"""

import numpy as np
import pytest
from scipy import stats as sps

from repro.ml import ErrorEstimate

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
CHI2_DOFS = np.array([*range(1, 5000), 10_000, 50_000, 122_493])
T_FOLDS = np.arange(2, 501)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_training_interval_matches_chi2_ppf(confidence):
    sse = CHI2_DOFS * 1.7 + 0.25
    lo_q = sps.chi2.ppf(0.5 + confidence / 2.0, df=CHI2_DOFS)
    hi_q = sps.chi2.ppf(0.5 - confidence / 2.0, df=CHI2_DOFS)
    assert (hi_q > 0).all()
    expected = list(zip(_hex(np.sqrt(sse / lo_q)), _hex(np.sqrt(sse / hi_q))))
    got = [
        tuple(_hex(ErrorEstimate(1.0, "training", sse=float(s), dof=int(d)).interval(confidence)))
        for s, d in zip(sse, CHI2_DOFS)
    ]
    assert got == expected


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_cv_interval_matches_t_ppf(confidence):
    rng = np.random.default_rng(7)
    estimates, se = [], []
    for k in T_FOLDS:
        folds = rng.uniform(0.5, 1.5, size=k)
        estimates.append(
            ErrorEstimate(float(folds.mean()), "cv", fold_rmses=tuple(folds), dof=k - 1)
        )
        se.append(float(folds.std(ddof=1)) / np.sqrt(k))
    t = sps.t.ppf(0.5 + confidence / 2.0, df=T_FOLDS - 1)
    rmse = np.array([e.rmse for e in estimates])
    expected = list(
        zip(_hex(np.maximum(rmse - t * se, 0.0)), _hex(rmse + t * se))
    )
    got = [tuple(_hex(e.interval(confidence))) for e in estimates]
    assert got == expected


def test_array_ppf_is_the_scalar_ppf():
    """The oracle's premise: one ``ppf`` over a dof array = one call per dof."""
    dofs = np.array([1, 2, 3, 7, 30, 499, 4999, 122_493])
    for confidence in CONFIDENCES:
        for q in (0.5 - confidence / 2.0, 0.5 + confidence / 2.0):
            for dist in (sps.chi2, sps.t):
                assert _hex(dist.ppf(q, df=dofs)) == [
                    float(dist.ppf(q, df=int(d))).hex() for d in dofs
                ]


def test_the_widest_confidence_reads_as_the_old_code_did():
    """confidence = 1 − 2⁻⁵³ rounds 0.5 + c/2 to 1.0: an infinite quantile."""
    confidence = np.nextafter(1.0, 0.0)
    assert ErrorEstimate(1.0, "training", sse=4.0, dof=3).interval(confidence) == (
        0.0,
        float(np.sqrt(4.0 / sps.chi2.ppf(0.5 - confidence / 2.0, df=3))),
    )
    lo, hi = ErrorEstimate(1.0, "cv", fold_rmses=(0.5, 1.5), dof=1).interval(confidence)
    assert (lo, hi) == (0.0, float("inf"))
