"""Bench: closed-form noise variances vs Monte Carlo measurement.

Regenerates ablation ``abl_error_model``, validating the oracles of
``repro.verify.oracles`` on the live publishers.
"""


def test_abl_error_model(run_and_report):
    run_and_report("abl_error_model")
