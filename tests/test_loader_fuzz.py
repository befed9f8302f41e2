"""Mutated config and checkpoint files, the two inputs a command reads, end
in a loaded value or a DtstError, never in another exception."""

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtst.config import load_config
from dtst.errors import DtstError
from dtst.model import (ModelConfig, init_params, load_checkpoint, restore_params,
                        save_checkpoint)
from dtst.selector import SelectorConfig

BENCHMARK_CFG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.cfg"
TINY_MODEL = ModelConfig(num_identities=3, num_blocks=1, embed_dim=2, num_attn_heads=1,
                         patch_grid=(1, 2), patch_dim=1, selector=SelectorConfig(k=1))


@st.composite
def mutations(draw, blob):
    """`blob` truncated, with bytes flipped, with bytes inserted, or with
    lines dropped."""
    kind = draw(st.sampled_from(["truncate", "flip", "insert", "drop_lines"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "flip":
        out = bytearray(blob)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
        return bytes(out)
    if kind == "insert":
        at = draw(st.integers(0, len(blob)))
        return blob[:at] + draw(st.binary(min_size=1, max_size=8)) + blob[at:]
    lines = blob.splitlines(keepends=True)
    drop = draw(st.sets(st.integers(0, len(lines) - 1), min_size=1, max_size=3))
    return b"".join(line for i, line in enumerate(lines) if i not in drop)


@st.composite
def relayouts(draw, header, arrays):
    """A checkpoint of `header` (its magic and config lines) and `arrays`
    with one manifest edit and a payload resized to match it: a parameter
    renamed, reshaped (its bytes cut or zero-padded), dropped with its bytes
    or added with bytes. So only a check against the layout can refuse it."""
    entries = [[name, a.shape, a.astype("<f8").tobytes()] for name, a in arrays.items()]
    names = st.sampled_from(list(arrays)) | st.from_regex(r"[a-z][a-z0-9_.]{0,11}",
                                                          fullmatch=True)
    shapes = st.lists(st.integers(0, 4), max_size=3).map(tuple)
    kind = draw(st.sampled_from(["rename", "reshape", "drop", "add"]))
    at = draw(st.integers(0, len(entries) - 1))
    if kind == "rename":
        entries[at][0] = draw(names)
    elif kind == "reshape":
        shape = draw(shapes)
        size = 8 * math.prod(shape)
        entries[at][1:] = shape, (entries[at][2] + bytes(size))[:size]
    elif kind == "drop":
        del entries[at]
    else:
        shape = draw(shapes)
        entries.insert(at, [draw(names), shape, bytes(8 * math.prod(shape))])
    manifest = b"".join(" ".join([name, *map(str, shape)]).encode() + b"\n"
                        for name, shape, _ in entries)
    return header + manifest + b"end\n" + b"".join(data for _, _, data in entries)


def _write_new(path, blob):
    """Write `blob` to `path` as a new file. ext4 flushes a file truncated
    and rewritten in place when it is closed (`auto_da_alloc`), which cost
    tens of ms an example."""
    path.unlink(missing_ok=True)
    path.write_bytes(blob)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def checkpoint_blob(fuzz_dir):
    path = fuzz_dir / "saved.bin"
    save_checkpoint(path, init_params(TINY_MODEL, seed=0), TINY_MODEL)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_config_loads_or_raises_dtst_error(fuzz_dir, data):
    path = fuzz_dir / "mutated.cfg"
    _write_new(path, data.draw(mutations(BENCHMARK_CFG.read_bytes())))
    try:
        load_config(path)
    except DtstError:
        pass


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_dtst_error(fuzz_dir, checkpoint_blob, data):
    path = fuzz_dir / "checkpoint.bin"
    _write_new(path, data.draw(mutations(checkpoint_blob)))
    try:
        restore_params(init_params(TINY_MODEL, seed=0), load_checkpoint(path, TINY_MODEL))
    except DtstError:
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_relaid_checkpoint_is_refused_at_load_or_restores(fuzz_dir, checkpoint_blob, data):
    # loading with a config is a complete check: what it returns, the
    # model's params accept
    header = b"".join(checkpoint_blob.splitlines(keepends=True)[:2])
    path = fuzz_dir / "relaid.bin"
    _write_new(path, data.draw(relayouts(header, load_checkpoint(fuzz_dir / "saved.bin"))))
    try:
        arrays = load_checkpoint(path, TINY_MODEL)
    except DtstError:
        return
    restore_params(init_params(TINY_MODEL, seed=0), arrays)
