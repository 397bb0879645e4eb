"""Tests of the benchmark's checks on a tiny corpus.

Each check must pass on the program's real output and fail once one value
of that output is perturbed. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
from proscore import cli, flow  # noqa: E402
from proscore.corpus import SynthConfig, save_corpus, synth_corpus  # noqa: E402
from proscore.pipeline import run_pipeline  # noqa: E402

TINY = SynthConfig(num_phones=5, feature_dim=6, num_speakers=20,
                   utterances_per_speaker=3, phones_per_utterance=4,
                   frames_per_phone=(3, 6), seed=11)
TINY_MODELS = {
    "gmm": {"components": 2, "iters": 3},
    "ivector": {"dim": 2, "iters": 2, "ubm_components": 2, "ubm_iters": 3},
    "nf": {"layers": 2, "width": 4, "learning_rate": 0.001,
           "batch_size": 16, "epochs": 1},
    "dnf": {"layers": 2, "width": 4, "learning_rate": 0.001,
            "batch_size": 16, "epochs": 1, "classes": 5},
}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A pipeline run on a tiny manifest corpus, and what checks need."""
    d = tmp_path_factory.mktemp("tiny")
    corpus, _ = synth_corpus(TINY)
    manifest = save_corpus(corpus, d / "corpus")
    cfg = {"seed": 11, "work_dir": str(d), "corpus": {"manifest": str(manifest)},
           "systems": list(run.ALL_SYSTEMS), **TINY_MODELS}
    result = run_pipeline(cfg)
    return {"dir": d, "manifest": manifest, "corpus": corpus,
            "truth": checks.truth_from_corpus(corpus), "result": result,
            "report": result.report_path.read_text()}


def _check(tiny, report):
    return checks.check_report(report, tiny["truth"], tiny["result"],
                               run.ALL_SYSTEMS, tiny["dir"] / "models")


def _replace_field(report, system, column, value):
    lines = report.splitlines()
    for i, line in enumerate(lines):
        parts = line.split("\t")
        if parts[0] == system:
            parts[column] = value
            lines[i] = "\t".join(parts)
    return "\n".join(lines) + "\n"


def test_report_rows_pass(tiny):
    assert _check(tiny, tiny["report"]) == []
    assert list(checks.parse_report(tiny["report"])) == checks.expected_rows(
        run.ALL_SYSTEMS)


@pytest.mark.parametrize("system", checks.expected_rows(run.ALL_SYSTEMS))
def test_perturbed_report_row_fails(tiny, system):
    value = checks.parse_report(tiny["report"])[system][1]
    bad = _replace_field(tiny["report"], system, 2, f"{value + 2e-6:.6f}")
    problems = _check(tiny, bad)
    assert any(p.startswith(system) for p in problems)


def test_missing_row_fails(tiny):
    lines = [line for line in tiny["report"].splitlines()
             if not line.startswith("gop+nf_feature_fusion")]
    assert _check(tiny, "\n".join(lines) + "\n")


def test_off_grid_lambda_fails(tiny):
    bad = _replace_field(tiny["report"], "gop+dnf_score_fusion", 3, "0.03")
    problems = _check(tiny, bad)
    assert any("lambda" in p for p in problems)


def test_perturbed_score_table_fails(tiny):
    table = tiny["result"].score_tables["nf"]
    rows = list(table.rows)
    rows[0] = type(rows[0])(rows[0].utterance_id, rows[0].gop + 1e-9,
                            rows[0].predicted, rows[0].label_mean, rows[0].fused)
    result = tiny["result"]
    bent = type(result)(**{**result.__dict__, "score_tables": {
        **result.score_tables, "nf": type(table)(tuple(rows))}})
    problems = checks.check_report(tiny["report"], tiny["truth"], bent,
                                      run.ALL_SYSTEMS, tiny["dir"] / "models")
    assert any("GOP differs" in p for p in problems)


class _BentForward:
    """A flow whose forward map is off by 1e-6 in one coordinate."""

    def __init__(self, model):
        self.model = model

    def inverse(self, x):
        return self.model.inverse(x)

    def forward(self, z):
        x, logdet = self.model.forward(z)
        x = x.copy()
        x[0, 0] += 1e-6
        return x, logdet


def test_inversion_check(tiny):
    model = flow.load_flow(tiny["dir"] / "models" / "nf.pnf1")
    frames = np.vstack([tiny["truth"].frames[u] for u in tiny["truth"].eval_ids])
    assert checks.inversion_error(model, frames) <= 1e-9
    assert checks.inversion_error(_BentForward(model), frames) > 1e-9


def test_gmm_params_reader_matches_program(tiny):
    from proscore import gmm
    model = gmm.load_gmm(tiny["dir"] / "models" / "gmm.pgmm")
    w, mu, var = checks.read_gmm_params(tiny["dir"] / "models" / "gmm.pgmm")
    assert np.array_equal(w, model.weights) and np.array_equal(mu, model.means)
    assert np.array_equal(var, model.variances)


def _perturb_tsv(path, row, column):
    lines = path.read_text().splitlines()
    parts = lines[row].split("\t")
    parts[column] = repr(float(parts[column]) * (1 + 1e-7))
    lines[row] = "\t".join(parts)
    path.write_text("\n".join(lines) + "\n")


def test_cli_score_table_check(tiny, tmp_path):
    m = ["--manifest", str(tiny["manifest"])]
    assert cli.main(["train-gmm", *m, "--out", str(tmp_path / "gmm.pgmm"),
                     "--components", "2", "--iters", "3"]) == 0
    scores = tmp_path / "scores.tsv"
    assert cli.main(["score", *m, "--gop", "--model", str(tmp_path / "gmm.pgmm"),
                     "--out", str(scores)]) == 0
    params = checks.read_gmm_params(tmp_path / "gmm.pgmm")
    truth = tiny["truth"]
    assert checks.check_score_table(scores, truth, truth.ids, params) == []
    for column in (1, 2):
        text = scores.read_text()
        _perturb_tsv(scores, 3, column)
        assert checks.check_score_table(scores, truth, truth.ids, params)
        scores.write_text(text)


def test_cli_simulate_check(tmp_path):
    out = tmp_path / "simulate.tsv"
    assert cli.main(["simulate", "--a", "1.0", "--delta-min", "-1",
                     "--delta-max", "1", "--steps", "5", "--out", str(out)]) == 0
    deltas = np.linspace(-1.0, 1.0, 5)
    assert checks.check_simulate(out, 1.0, deltas) == []
    _perturb_tsv(out, 2, 2)
    assert checks.check_simulate(out, 1.0, deltas)


def test_model_files_sees_a_rewrite(tmp_path):
    (tmp_path / "m.pgmm").write_bytes(b"PGMM" + bytes(8))
    before = run.model_files(tmp_path)
    (tmp_path / "m.pgmm").write_bytes(b"PGMM" + bytes(7) + b"\x01")
    assert run.model_files(tmp_path) != before
