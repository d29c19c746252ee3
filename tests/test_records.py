"""Every value one stage hands to the next is an immutable ``NamedTuple``;
only the two configs are (frozen) dataclasses."""
import pytest

from gliomil import disentangle, heads, interaction, metrics, model, synth, trainer, verify

RECORDS = (
    synth.MarkerTuple, synth.PatchBag, synth.CooccurrenceMatrix,
    disentangle.DisentangledFeatures, heads.BranchState,
    model.ModelConfig, model.BagForward, interaction.ModulationRecord,
    metrics.TaskMetrics, metrics.MetricReport, metrics.CasePrediction,
    trainer.EpochRow, trainer.TrainResult, verify.CheckLine,
)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_is_an_immutable_named_tuple(cls):
    record = cls._make([None] * len(cls._fields))
    assert isinstance(record, tuple) and cls._fields
    assert not hasattr(record, "__dict__")  # no attribute can be added either
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], 1)
