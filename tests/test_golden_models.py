"""Golden hashes of the model-existence outputs.

Each hash is the sha256 of the sorted-key JSON of ``model_to_json(model)``
together with the construction's ``diagnostics``, for every criterion-7
theory (saturated, then modelled) and every criterion-8 family (run through
``compactness_run``).  They pin the exact models, so a faster construction
must reproduce the same algebra, atom order and values bit for bit.
"""
import hashlib
import json

import pytest

from boolkit import bvmodel, consprop
from boolkit.compact import compactness_run, conjunction_closure

from test_acceptance import _compactness_families, _model_existence_instances

MODEL_EXISTENCE = [
    "a03783d75aefdcee3da51ce5a17cfbb3714a8958d3efe33ad32e49461775725b",
    "d81ad800486c38b6117c0f3661148cb458c6096269fbf7f1a52e3b2bc6aa5aed",
    "f2287d93b79646c40110f9d9f68d7da5bf294b9a0c4b8c13f2870a65cebbbd31",
    "a6ffce244d9829480bf90941957d5e0880bfd8d81f2efdcf2becc26f445b4dc5",
    "3689f7c9f965b311ae69c85f0cae5a335862044f897fa9a69c25b78bd310b730",
    "8949745a498a155e6ac2c32b55baa156794441278475d99ffc5f04a796c989b7",
    "63008482341a123b5700fc044d1be981c6d6b05103c904244463b223d71ed3a7",
    "c433722a271c76b7fafc37e77967ecfd9df9de3b8e38386495473d4ba0133d74",
    "fbd2c2ec753697927014c53884a610baeca1858d36c25dbb3842599c1c339cbf",
    "3224531e221cb110478f501f2c8d6c01e152965839e2a354e066ede318495fc3",
    "3a6a2ad195de5ab130d4d216d7ed318b29ecaccd33285f60b5c3b56b808505b8",
    "b4ad9d688d5059b78b629288f6057a03702983819227e687cd9ca09057df581f",
    "87bee180007312c41fa9a6ec74b74745a039eb5b1fd6064002676898331b6bf1",
    "b3c60e104798059a963735dbd11e76c1053894c24dfccc8a67f000de83133d51",
    "e543be33744f6c9f8908ad1a119d547fae66bf24986db73d9ccba9542dbf327f",
    "ac80495b99fabef7b3b037470ddcbc4957941ebcaa11ac9cf9817f3cf28577e3",
    "44207dfd71082489202a96eb2e38b9a0242b930e54697eda8a7dc8b3bea20575",
    "1f6964039780910d222526b507e6a8249db779aca52cd961c7321f2599202bc0",
    "751c85d0a1fceb3df8ba692f00b516f8d123cebbb73f22147450284a707311f9",
    "27554a7f187bbf42ec8f39fc13973f1e063e8b09a699a9a7db7d309d54af48ea",
]

COMPACTNESS = [
    "17d5f66f78c27c68ba619a896dbc61f416889700dd8717d065c8bd8e03738e59",
    "f3c3cc77d80dbf06ff28fdc3563a8e24344d9855db4c2b33c4289d581ca8f6ff",
    "f5aed21b5571f698e2f21868a9c4a8c1248720eb38e0d1b35731beaf932f3736",
    "53210c900c239a80bd108b54500535e883761729da5e7aa02f660f25ab967264",
    "53210c900c239a80bd108b54500535e883761729da5e7aa02f660f25ab967264",
    "e80d4d5c3a03f2b8e0ceaa195cd877af793382fd580c2fe9027bc53465042146",
    "e80d4d5c3a03f2b8e0ceaa195cd877af793382fd580c2fe9027bc53465042146",
    "4fcdf2785ab16a767ac80cc5337f5c1a8ece2449681a3a567dade97cffee3a49",
    "3ce2e35302ba32386979b077772c3d68c8c28d09b5cd3c9416c7428490cf57a1",
    "53210c900c239a80bd108b54500535e883761729da5e7aa02f660f25ab967264",
]


def _digest(model, diagnostics) -> str:
    doc = {"model": bvmodel.model_to_json(model), "diagnostics": diagnostics}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("index", range(len(MODEL_EXISTENCE)))
def test_model_existence_output_is_pinned(index):
    sig, theory = _model_existence_instances()[index]
    prop = consprop.saturate_theory(theory, sig)
    assert _digest(*consprop.model_from_consprop(prop)) == MODEL_EXISTENCE[index]


@pytest.mark.parametrize("index", range(len(COMPACTNESS)))
def test_compactness_output_is_pinned(index):
    sig, gens = _compactness_families()[index]
    result = compactness_run(conjunction_closure(gens), sig)
    assert _digest(result.model, result.diagnostics) == COMPACTNESS[index]


def test_every_instance_is_pinned():
    assert len(_model_existence_instances()) == len(MODEL_EXISTENCE)
    assert len(_compactness_families()) == len(COMPACTNESS)
