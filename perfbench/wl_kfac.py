"""``kfac_train``: K-FAC pretraining steps of a scaled-down BERT.

The synthetic corpus and WordPiece tokenizer of the fig7 example feed a
BERT with hidden size 256, 4 layers, intermediate size 1024 and
sequence length 64, trained at batch 16 by K-FAC around NVLAMB (damping
0.03).  Curvature and inverses are refreshed every step, as PipeFisher's
bubble filling allows.  One operation is one ``Trainer.train_step``.
The simulator is not involved: this stresses ``kfac``, ``models``/``nn``,
``optim`` and ``data``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.corpus import CorpusConfig
from repro.data.dataloader import PretrainDataLoader
from repro.kfac.kfac import KFAC
from repro.models.bert import BertConfig, BertForPreTraining
from repro.optim.lamb import NVLAMB
from repro.optim.lr_scheduler import PolyWarmupSchedule
from repro.tensor.tensor import Tensor
from repro.training.trainer import TrainConfig, Trainer

BATCH = 16
SEQ_LEN = 64
MODEL = {"hidden_size": 256, "num_hidden_layers": 4,
         "num_attention_heads": 4, "intermediate_size": 1024,
         "max_position_embeddings": SEQ_LEN}
BASE_LR = 5e-3
WARMUP_STEPS = 2
#: The schedule's horizon; a run takes far fewer steps.
TOTAL_STEPS = 1000
#: ``kfac.loss`` is the loss after exactly this many steps.
LOSS_STEP = 4
#: The mean of the last three losses must sit this far below the first
#: (10 steps fall by 0.4-0.65 nats; a broken preconditioner stalls),
#: judged over at least ``MIN_STEPS`` steps.
MIN_LOSS_DROP = 0.1
MIN_STEPS = 6
#: Largest relative error allowed between a preconditioned gradient and
#: the float64 reference ``(B + d_B I)^-1 G (A + d_A I)^-1``.
PRECOND_RTOL = 1e-3


class KfacTrainLoad:
    def __init__(self, seed: int, work_dir) -> None:
        self.seed = seed

    def setup(self) -> None:
        self.mismatches: list = []
        self.precond_errors: list = []
        self.data = PretrainDataLoader(
            vocab_size=300, seq_len=SEQ_LEN, num_documents=200,
            corpus_config=CorpusConfig(seed=self.seed, branching=4,
                                       num_word_types=1500),
            seed=self.seed)
        cfg = BertConfig.tiny(vocab_size=self.data.vocab_size,
                              seed=self.seed, **MODEL)
        self.model = BertForPreTraining(cfg)
        inner = NVLAMB(self.model.parameters(), lr=BASE_LR)
        self.kfac = KFAC(self.model.encoder_linear_layers(), inner,
                         damping=0.03, curvature_interval=1,
                         inverse_interval=1)
        schedule = PolyWarmupSchedule(BASE_LR, WARMUP_STEPS, TOTAL_STEPS,
                                      optimizer=self.kfac)
        self.trainer = Trainer(self.model, self.kfac, self.data, schedule,
                               TrainConfig(batch_size=BATCH))

    def close(self) -> None:
        pass

    def op(self) -> bool:
        return math.isfinite(self.trainer.train_step())

    def check(self) -> tuple:
        """(items checked, failures) of the checks run after the window.

        Every loss is finite and training made progress; no layer was
        skipped and every one was preconditioned by fresh inverses; and
        on one more batch every layer's preconditioned gradient matches
        a float64 reference built from its Kronecker factors.
        """
        failures = []
        losses = self.trainer.state.losses
        while len(losses) < MIN_STEPS:  # a window too short to judge
            self.trainer.train_step()
        if not all(math.isfinite(x) for x in losses):
            failures.append("a training loss is not finite")
        if sum(losses[-3:]) / 3 > losses[0] - MIN_LOSS_DROP:
            failures.append(f"the loss did not fall: {losses}")
        if self.kfac.skipped_layers:
            failures.append(f"layers skipped: {self.kfac.skipped_layers}")
        stale = [s.name for _, s in self.kfac.layers
                 if not s.ready or s.inverse_staleness > 1]
        if stale:
            failures.append(f"layers not preconditioned by fresh inverses: "
                            f"{stale}")
        else:
            failures += self._check_preconditioning()
        return len(self.kfac.layers) + 2, failures

    def _check_preconditioning(self) -> list:
        """Precondition one more batch's gradients; compare with float64."""
        self.kfac.zero_grad()
        batch = self.data.next_batch(BATCH)
        loss, _ = self.model.loss(batch.input_ids, batch.mlm_labels,
                                  batch.nsp_labels,
                                  token_type_ids=batch.token_type_ids,
                                  attention_mask=batch.attention_mask)
        loss.backward()
        self.kfac.discard_captures()
        raw = [_homogeneous(layer) for layer, _ in self.kfac.layers]
        self.kfac.precondition()
        failures = []
        for (layer, state), grad in zip(self.kfac.layers, raw):
            a = state.a_factor.value.astype(np.float64)
            b = state.b_factor.value.astype(np.float64)
            # pi-corrected damping split (Martens & Grosse 2015, sec. 6.3)
            pi = math.sqrt((np.trace(a) / len(a)) / (np.trace(b) / len(b)))
            root = math.sqrt(self.kfac.damping)
            ref = (np.linalg.inv(b + root / pi * np.eye(len(b))) @ grad
                   @ np.linalg.inv(a + root * pi * np.eye(len(a))))
            got = _homogeneous(layer)
            err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            self.precond_errors.append(err)
            if not err <= PRECOND_RTOL:
                failures.append(f"{state.name}: preconditioned gradient off "
                                f"the float64 reference by {err:.2e}")
        return failures

    def instrument(self, tracer) -> None:
        tracer.wrap(self.data, "next_batch", "data.next_batch")
        tracer.wrap(self.model, "loss", "model.forward")
        tracer.wrap(Tensor, "backward", "model.backward")
        tracer.wrap(self.kfac, "step", "kfac.step")
        tracer.wrap(self.kfac, "update_curvature", "kfac.curvature")
        tracer.wrap(self.kfac, "update_inverses", "kfac.inversion")
        tracer.wrap(self.kfac, "precondition", "kfac.precondition")
        tracer.wrap(self.kfac.inner, "step", "optim.step")

    def engines(self) -> list:
        return []

    def window_stats(self) -> dict:
        losses = self.trainer.state.losses
        return {"kfac.loss": (losses[LOSS_STEP - 1]
                              if len(losses) >= LOSS_STEP else 0.0)}


def _homogeneous(layer) -> np.ndarray:
    """``[dW | db]`` of a linear layer, in float64."""
    grad = layer.weight.grad.astype(np.float64)
    if layer.bias is None:
        return grad
    return np.concatenate([grad, layer.bias.grad.astype(np.float64)[:, None]],
                          axis=1)
