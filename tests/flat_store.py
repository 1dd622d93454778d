"""Writer of the retired flat K-DB directory format.

``DocumentStore.save`` wrote one ``<collection>.jsonl`` per collection
(one sort-keyed JSON document per line) plus ``_manifest.json``, which
maps every collection to its index specs. The store no longer writes
that format, but it still migrates such directories when it opens them,
so the migration tests build old directories with this function.
"""

import json
from pathlib import Path


def write_flat_store(store, directory) -> Path:
    """Write ``store`` (a ``DocumentStore``) the way ``save`` did."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for name in store.collection_names():
        collection = store[name]
        (directory / f"{name}.jsonl").write_text(
            "".join(
                json.dumps(document, sort_keys=True) + "\n"
                for document in collection._documents.values()
            )
        )
        manifest[name] = [
            {"path": index.path, "unique": index.unique, "kind": index.kind}
            for index in collection._indexes.values()
        ]
    (directory / "_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True)
    )
    return directory
