"""ASR-free pronunciation proficiency scoring.

GOP scoring from posteriorgrams, generative marginal models (GMM,
i-vector, normalizing flow, discriminative flow) yielding utterance
embeddings, an epsilon-SVR score predictor, and score/feature fusion
evaluated by Pearson correlation against rater labels.

Importing proscore pins BLAS to one thread, over any value the caller
set: how a product is split across threads changes the rounding of its
sums, and so the bytes of the models. The pin takes effect only before
numpy loads BLAS, so a process that imported numpy first keeps its own
thread count. Spawned pool workers inherit the pin; the parallelism comes
from them.
"""

import os

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .assess import (FusionConfig, ReportRow, ScoreRow, ScoreTable,
                     feature_fuse, inter_rater_pcc, pcc, score_fuse,
                     select_lambda)
from .corpus import (Corpus, FeatureSequence, PhoneAlignment, PhonePrior,
                     PosteriorGram, RatedUtterance, SplitManifest, SynthConfig,
                     load_corpus, save_corpus, synth_corpus)
from .dnf import DnfModel, dnf_embed, dnf_train
from .flow import (AdamConfig, FlowModel, build_flow, flow_embed,
                   flow_logprob, flow_train, flow_transform)
from .gmm import GmmModel, gmm_loglik, gmm_train
from .gop import (CompetitionPoint, competition_sweep, conditional_score,
                  gop_score, segment_posterior, simulate_competition)
from .ivector import (BaumWelchStats, IVectorModel, ivector_infer,
                      tmatrix_train, ubm_stats)
from .pipeline import default_config, run_pipeline
from .regress import SvrModel, SvrParams, svr_predict, svr_train

__version__ = "0.1.0"
