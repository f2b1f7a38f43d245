"""Fixtures shared by the test modules."""
import pytest

from latslice import finitefield


@pytest.fixture
def edit_line_counts(monkeypatch):
    """A function that routes the finite-field counting kernel's chunks
    through ``edit(u0, chunk)`` for the rest of the test; ``edit`` changes
    in place the counts of slopes u0, u0 + 1, ... that ``chunk`` holds."""
    real = finitefield._line_count_chunks

    def install(edit):
        def edited(B, out):
            for u0, chunk in real(B, out):
                edit(u0, chunk)
                yield u0, chunk

        monkeypatch.setattr(finitefield, "_line_count_chunks", edited)

    return install
