"""End-to-end proficiency-scoring run on the synthetic corpus.

Generates the seeded synthetic corpus, trains every marginal model
(GMM, i-vector, vanilla flow, discriminative flow), regresses rater
labels from the embeddings with epsilon-SVR, fuses each predictor with
the frame-posterior score, and prints the evaluation report: Pearson
correlation against mean rater labels on the held-out speakers.

Takes about 6 s on two cores.  Artifacts land under
demos/runs/full_pipeline/.
"""

from pathlib import Path

from proscore.pipeline import default_config, run_pipeline


def main() -> None:
    work = Path(__file__).parent / "runs" / "full_pipeline"
    result = run_pipeline(default_config(str(work)))

    print(f"report written to {result.report_path}\n")
    print(f"{'system':<28}{'split':<8}{'lambda':>8}{'pearson':>10}")
    for row in result.report_rows:
        lam = "" if row.lambda_ is None else f"{row.lambda_:.2f}"
        print(f"{row.system:<28}{row.split:<8}{lam:>8}{row.pcc:>10.4f}")

    human = result.pcc_by_system["human"]
    print(f"\ninter-rater agreement (ceiling): {human:.4f}")


# run_pipeline trains in spawned workers, and each worker imports this
# script again (as __mp_main__): unguarded, each would start a run of its own
if __name__ == "__main__":
    main()
