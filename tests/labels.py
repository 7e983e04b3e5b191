"""Label helpers for the tests: between `ClassLabel`s and their int8 codes.

The library holds labels only as codes (indices into CLASS_ORDER); these
spell them out so a test can state expected classes by name. They live
here, not in conftest.py, because conftest.py must import no numpy before
it pins BLAS to one thread.
"""

import numpy as np

from dnsids.preproc import CLASS_INDEX, CLASS_ORDER, ClassLabel


def label_codes(labels) -> np.ndarray:
    """int8 label codes (indices into CLASS_ORDER) of a sequence of labels."""
    return np.array([CLASS_INDEX[label] for label in labels], dtype=np.int8)


def class_labels(codes) -> list[ClassLabel]:
    """The labels named by a sequence of label codes."""
    return [CLASS_ORDER[c] for c in np.asarray(codes).tolist()]
