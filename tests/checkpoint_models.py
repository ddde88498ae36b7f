"""The float64 model of a checkpoint, as training holds it: the reference
that tests compare the float32 eval net of ``model_from_checkpoint`` with."""

from pathlib import Path

from spikesal import train
from spikesal.rst import RSTModel

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture" / "stream_model.salt"


def float64_model(path) -> RSTModel:
    """The eval-mode float64 RSTModel of the checkpoint at ``path``."""
    arrays, meta = train._read_checkpoint(path)
    model = RSTModel(train.RunConfig.from_json_dict(meta["config"]).model, None)
    model.load_state_dict(train._model_state(arrays))
    return model.eval()
