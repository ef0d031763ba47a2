import numpy as np
from hypothesis import strategies as st

from ratioscope.data import Dataset, fit_standardizer, pool
from ratioscope.graph import knn_graph
from ratioscope.harness import standardized
from ratioscope.synth import generate

# one line per acceptance criterion, printed after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def bench_failures(doc):
    """The number of (dim, trial, method) runs a bench document records
    as failed, i.e. its null AUCs."""
    return sum(m["auc_values"].count(None) for e in doc["per_dim"] for m in e["methods"])


def make_dataset(features, prefix="s"):
    features = np.asarray(features, dtype=float)
    return Dataset(
        features=features,
        feature_names=tuple(f"f{k}" for k in range(features.shape[0])),
        sample_ids=tuple(f"{prefix}{i}" for i in range(features.shape[1])),
    )


def standardized_pool(spec, trial=0):
    """SynthSpec ``spec``'s trial pooled after standardizing both sets by
    the inliers' statistics, as bench and fit do."""
    inliers, test, _ = generate(spec, trial=trial)
    return pool(*standardized(inliers, test, fit_standardizer(inliers)))


def random_instance(rng, d=None, n_inlier=None, n_test=None, K=None, sigma2=None):
    """Random pooled dataset plus similarity graph for solver tests."""
    d = d or int(rng.integers(2, 8))
    n_inlier = n_inlier or int(rng.integers(5, 20))
    n_test = n_test or int(rng.integers(3, 12))
    inliers = make_dataset(rng.normal(size=(d, n_inlier)), "a")
    test = make_dataset(rng.normal(size=(d, n_test)), "b")
    pooled = pool(inliers, test)
    m = pooled.m
    K = K or min(5, m - 1)
    sigma2 = sigma2 or float(1.0 + rng.random())
    graph = knn_graph(pooled.features, K, sigma2)
    return pooled, graph


# CSV cells a loader must read or reject: numbers, non-finite and
# non-numeric text, label and column names, quotes, separators and
# line breaks inside a field, or any short text
CSV_CELLS = st.sampled_from([
    "0.5", "-2", "3e-400", "1e400", "nan", "inf", "", " ", "abc", "inlier", "outlier",
    "label", "sample_id", "score", "decision", '"', '"a,b"', '"x\ny"', "\r", "\x00",
]) | st.text(max_size=5)


CSV_ROWS = st.lists(CSV_CELLS, min_size=1, max_size=4).map(",".join)


@st.composite
def csv_texts(draw, headers, rows=CSV_ROWS):
    """CSV text: one of ``headers`` or a row of random cells, then up
    to five rows drawn from ``rows``, with one kind of line break."""
    header = draw(st.sampled_from(headers) | st.lists(CSV_CELLS, max_size=4).map(",".join))
    rows = draw(st.lists(rows, max_size=5))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join([header, *rows]) + draw(st.sampled_from(["", newline]))
