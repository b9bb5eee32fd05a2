"""Random byte flips and truncations of every file format: a load either
succeeds or raises FormatError, never any other exception, and leaves no file
open (an unclosed file's ResourceWarning fails the test). A dense index or
an aLSH sidecar that loads saves to the bytes it was loaded from."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraseindex.alsh import AlshParams, build_alsh, load_alsh, save_alsh
from phraseindex.errors import FormatError
from phraseindex.filtering import apply_filter, load_filter, save_filter, train_filter
from phraseindex.index import load_index, save_index

pytestmark = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


@pytest.fixture(scope="module")
def formats(tmp_path_factory, mini_corpus, sparse_index, dense_index):
    """Bytes and loader of a sparse .idx, a dense .idx (a table row a token), a
    filtered dense .idx (with tokens only one half uses), an .alsh over each
    dense index and an .flt built from mini_squad.json, plus a scratch path to
    write mutations to."""
    root = tmp_path_factory.mktemp("fuzz")
    save_index(sparse_index, str(root / "sparse.idx"))
    save_index(dense_index, str(root / "dense.idx"))
    alsh = build_alsh(dense_index, AlshParams(bits_per_table=6, tables=4, seed=9))
    save_alsh(alsh, str(root / "dense.alsh"))
    filt = train_filter(dense_index, mini_corpus, epochs=5)
    save_filter(filt, str(root / "dense.flt"))
    filtered = apply_filter(dense_index, filt, float(np.median(filt.score(dense_index.vectors))))[0]
    assert not np.array_equal(*(np.unique(ids) for ids in filtered.table_ids))
    save_index(filtered, str(root / "filtered.idx"))
    alsh = build_alsh(filtered, AlshParams(bits_per_table=6, tables=4, seed=9))
    save_alsh(alsh, str(root / "filtered.alsh"))
    loaders = {
        "sparse.idx": load_index,
        "dense.idx": load_index,
        "filtered.idx": load_index,
        "dense.alsh": lambda path: load_alsh(path, dense_index),
        "filtered.alsh": lambda path: load_alsh(path, filtered),
        "dense.flt": load_filter,
    }
    files = {name: ((root / name).read_bytes(), load) for name, load in loaders.items()}
    return files, root / "mutated"


def test_dense_file_with_indexes_no_save_would_write_re_saves_verbatim(formats, tmp_path):
    """A row's start half moved to another table row, while its old one keeps a
    user, still loads (indexes in range and first-use order, every table row
    used); the index keeps the file's table and indexes, so it saves to the same
    bytes."""
    raw = bytearray(formats[0]["dense.idx"][0])
    count = int(np.frombuffer(raw, "<u8", 1, 13)[0])
    ids_at = 21 + 8 * count + 8
    start = np.frombuffer(raw, "<u4", count, ids_at)
    row = int(np.flatnonzero((start[1:] == start[:-1]) & (start[1:] > 0))[-1]) + 1
    raw[ids_at + 4 * row : ids_at + 4 * row + 4] = np.array(0, "<u4").tobytes()
    path = tmp_path / "moved.idx"
    path.write_bytes(bytes(raw))
    loaded = load_index(str(path))
    half = loaded.dim // 2
    np.testing.assert_array_equal(loaded.vectors[row, :half], loaded.vectors[0, :half])
    save_index(loaded, str(tmp_path / "again.idx"))
    assert (tmp_path / "again.idx").read_bytes() == bytes(raw)


@pytest.mark.parametrize(
    "name", ["sparse.idx", "dense.idx", "filtered.idx", "dense.alsh", "filtered.alsh", "dense.flt"]
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_file_loads_or_raises_format_error(formats, name, data):
    files, path = formats
    raw, load = files[name]
    mutated = bytearray(raw)
    # Half the flips land in the first 64 bytes, where the headers and counts are.
    at = st.integers(0, min(len(raw), 64) - 1) | st.integers(0, len(raw) - 1)
    flips = st.tuples(at, st.integers(1, 255))
    for at, mask in data.draw(st.lists(flips, max_size=8), label="flips"):
        mutated[at] ^= mask
    cut = data.draw(st.none() | st.integers(0, len(raw)), label="truncate to")
    path.write_bytes(bytes(mutated[:cut]))
    try:
        loaded = load(str(path))
    except FormatError:
        return
    save = {"dense.idx": save_index, "filtered.idx": save_index, "dense.alsh": save_alsh,
            "filtered.alsh": save_alsh}.get(name)
    if save:
        save(loaded, str(path))
        assert path.read_bytes() == bytes(mutated[:cut])
