"""E8: ablations of the OCR-reconstruction choices (see
:mod:`repro.experiments.ablation`)."""

from repro.experiments.ablation import run_ablation


def test_e8_ablation(benchmark, report):
    result = benchmark(run_ablation)
    corrected = result.variant("corrected")
    for flow in corrected:
        # Strict (as-printed) bounds omit real work => never larger.
        assert result.variant("strict_paper")[flow] <= corrected[flow] + 1e-12
        # Ignoring jitter also only lowers the bound.
        assert result.variant("no_jitter")[flow] <= corrected[flow] + 1e-12
    report("E8 ablations", result.render())
