"""Unit tests for shared value types and the exception hierarchy."""

import pytest

import repro.errors as errors
from repro.errors import ReproError
from repro.types import WorkloadKind


class TestWorkloadKind:
    def test_two_kinds(self):
        assert {k.value for k in WorkloadKind} == {"transactional", "long_running"}

    def test_str(self):
        assert str(WorkloadKind.TRANSACTIONAL) == "transactional"


class TestErrorHierarchy:
    def test_every_library_error_derives_from_base(self):
        subclasses = [
            getattr(errors, name)
            for name in dir(errors)
            if isinstance(getattr(errors, name), type)
            and issubclass(getattr(errors, name), Exception)
        ]
        for cls in subclasses:
            if cls is not ReproError:
                assert issubclass(cls, ReproError), cls

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise errors.PlacementError("boom")
