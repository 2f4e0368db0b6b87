"""The benchmark's traced run wraps module-level names of the package from
outside (perfbench/tracing.py). This checks, cheaply, that every name it
wraps still exists, that its counters accept the current types, and that
undo() restores the originals."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from chunkmask.toyworld import ToyTaskSpec
from chunkmask.trainer import TrainConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = ("toyworld", "phases", "scores", "sampling", "grpo", "trainer",
           "traces", "analysis", "allocation", "verify")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_undo_restores():
    tracing = load_tracing()
    mods = SimpleNamespace(**{m: importlib.import_module(f"chunkmask.{m}") for m in MODULES})
    tracer = tracing.Tracer()
    tracing.install(tracer, mods)
    wrapped = list(tracer._undo)
    try:
        assert wrapped
        run = mods.trainer.train(TrainConfig(mode="pcm", steps=4), ToyTaskSpec())
        assert len(run) == 4
    finally:
        tracer.undo()
    for owner, attr, original in wrapped:
        assert owner.__dict__[attr] is original
    spans = tracer.summary()
    for name in ("trainer.train", "toyworld.generate_group", "trainer.evaluate",
                 "scores.compute_phase_scores", "trainer.select_masks",
                 "sampling.shrink_batch", "grpo.masked_loss_grad"):
        assert name in spans
    counts = tracer.counts
    assert counts["sampling.kept_chunks"] * 16 == counts["sampling.rolled_chunks"] * 12
