"""Deliberate RPR001 violations: store internals and raw file I/O."""

import mmap

import numpy as np


def peek(store, region):
    return store._blocks[region]  # expect: RPR001


def fetch(store, region):
    return store._fetch(region)  # expect: RPR001


def dump(path, block):
    np.savez(path, x=block.x)  # lint: ignore[RPR010]  # expect: RPR001


def slurp(path):
    return np.load(path)  # expect: RPR001


def map_columns(path):
    return np.memmap(path, dtype="float64", mode="r")  # expect: RPR001


def map_region_file(f):
    return mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)  # expect: RPR001


def column_offsets(store, region):
    return store._meta[region]["columns"]  # expect: RPR001


def close_mapping(mapping: mmap.mmap):
    mapping.close()


def fine(store, region):
    return store.read(region)
