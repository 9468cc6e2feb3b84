"""Unit tests for the error hierarchy and assorted error paths."""

import pytest

from repro import errors


class TestHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        leaf_classes = [
            errors.InvalidProcessError,
            errors.NotWellFormedError,
            errors.InvalidScheduleError,
            errors.UnknownActivityError,
            errors.UnknownProcessError,
            errors.TransactionAborted,
            errors.ServiceNotFoundError,
            errors.NotPreparedError,
            errors.AlreadyTerminatedError,
            errors.CorrectnessViolation,
            errors.ProcessAbortedError,
            errors.SchedulerClosedError,
            errors.LogCorruptionError,
            errors.UnrecoverableStateError,
        ]
        for cls in leaf_classes:
            assert issubclass(cls, errors.ReproError), cls

    def test_layer_bases(self):
        assert issubclass(errors.NotWellFormedError, errors.InvalidProcessError)
        assert issubclass(errors.InvalidProcessError, errors.ModelError)
        assert issubclass(errors.ServiceTimeout, errors.TransactionAborted)
        assert issubclass(errors.TransactionAborted, errors.SubsystemError)
        assert issubclass(errors.CorrectnessViolation, errors.SchedulerError)
        assert issubclass(errors.LogCorruptionError, errors.RecoveryError)

    def test_process_aborted_error_message(self):
        error = errors.ProcessAbortedError("P1", "victim")
        assert error.process_id == "P1"
        assert "P1" in str(error) and "victim" in str(error)
        bare = errors.ProcessAbortedError("P2")
        assert str(bare).endswith("aborted")


class TestCatchability:
    def test_single_except_catches_everything(self):
        from repro.core.process import ProcessBuilder

        caught = None
        try:
            ProcessBuilder("P").compensatable("a").precede("a", "a").build()
        except errors.ReproError as error:
            caught = error
        assert isinstance(caught, errors.InvalidProcessError)

    def test_subsystem_errors_catchable_at_layer(self):
        from repro.subsystems.subsystem import Subsystem

        with pytest.raises(errors.SubsystemError):
            Subsystem("s").invoke("ghost")

    def test_scheduler_abort_error(self):
        from repro.core.scheduler import TransactionalProcessScheduler
        from repro.scenarios.paper import process_p1

        scheduler = TransactionalProcessScheduler()
        scheduler.submit(process_p1())
        scheduler.run()
        with pytest.raises(errors.ProcessAbortedError):
            scheduler.abort("P1")

    def test_unknown_managed_process(self):
        from repro.core.scheduler import TransactionalProcessScheduler

        with pytest.raises(errors.UnknownProcessError):
            TransactionalProcessScheduler().managed("ghost")
