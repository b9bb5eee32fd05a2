"""Random byte flips and truncations of every file format: a load either
succeeds or raises FormatError, never any other exception."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phraseindex.alsh import AlshParams, build_alsh, load_alsh, save_alsh
from phraseindex.errors import FormatError
from phraseindex.filtering import load_filter, save_filter, train_filter
from phraseindex.index import load_index, save_index


@pytest.fixture(scope="module")
def formats(tmp_path_factory, mini_corpus, sparse_index, dense_index):
    """Bytes and loader of a sparse .idx, a dense .idx, an .alsh and an .flt
    built from mini_squad.json, plus a scratch path to write mutations to."""
    root = tmp_path_factory.mktemp("fuzz")
    save_index(sparse_index, str(root / "sparse.idx"))
    save_index(dense_index, str(root / "dense.idx"))
    alsh = build_alsh(dense_index, AlshParams(bits_per_table=6, tables=4, seed=9))
    save_alsh(alsh, str(root / "dense.alsh"))
    save_filter(train_filter(dense_index, mini_corpus, epochs=5), str(root / "dense.flt"))
    loaders = {
        "sparse.idx": load_index,
        "dense.idx": load_index,
        "dense.alsh": lambda path: load_alsh(path, dense_index),
        "dense.flt": load_filter,
    }
    files = {name: ((root / name).read_bytes(), load) for name, load in loaders.items()}
    return files, root / "mutated"


@pytest.mark.parametrize("name", ["sparse.idx", "dense.idx", "dense.alsh", "dense.flt"])
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
        load(str(path))
    except FormatError:
        pass
