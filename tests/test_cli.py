"""End-to-end runs of every subcommand through main(argv)."""

import numpy as np
import pytest

from ecochash import storage
from ecochash.cli import SEED_ENV, main
from ecochash.codebook import DEFAULT_CAPACITY, generate
from ecochash.ecoc import new_matrix
from ecochash.evaluation import CURVE_HEADER, make_gaussian_classes, retrieval_map
from ecochash.index import HashIndex
from ecochash.learner import FeatureNormalizer, HashModel, step
from ecochash.storage import (load_index, load_model, read_features, save_index, save_model,
                              write_features)


@pytest.fixture
def run(capsys):
    def _run(argv, expect=0):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == expect, captured.err
        return captured.out, captured.err
    return _run


@pytest.fixture
def dataset(tmp_path):
    """Separable two-class CSVs: train/db/query plus an id base per split."""
    X, labels = make_gaussian_classes(2, 6, 400, separation=4.0, seed=5)
    paths = {}
    for name, sl in (("train", slice(0, 250)), ("db", slice(250, 350)),
                     ("query", slice(350, 400))):
        p = tmp_path / f"{name}.csv"
        ids = list(range(sl.start, sl.stop))
        write_features(p, ids, [labels[i] for i in ids], X[sl])
        paths[name] = p
    return paths


def train_flags(dataset, model_path, **over):
    flags = {"--k": 16, "--rho": 4, "--seed": 7}
    flags.update(over)
    argv = ["train", "--features", dataset["train"], "--model-out", model_path]
    for k, v in flags.items():
        argv += [k, v]
    return argv


def test_codebook_stats_shape_and_determinism(run):
    out1, _ = run(["codebook-stats", "--k", 16, "--capacity", 200, "--seed", 3])
    out2, _ = run(["codebook-stats", "--k", 16, "--capacity", 200, "--seed", 3])
    assert out1 == out2
    header, row = out1.strip().splitlines()
    assert header == ("k,capacity,rho,min_distance,mean_distance,"
                      "unique_bipartition_probability")
    k, capacity, rho, min_d, mean_d, prob = row.split(",")
    assert (k, capacity, rho) == ("16", "200", "16")
    assert int(min_d) >= 1
    assert 0.0 < float(mean_d) < 16.0
    assert 0.0 <= float(prob) <= 1.0


def test_codebook_stats_default_rho(run):
    out, _ = run(["codebook-stats", "--k", 32, "--capacity", 100, "--seed", 0])
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == "20"
    assert float(row[5]) >= 0.99


def test_train_is_deterministic(run, dataset, tmp_path):
    m1, m2 = tmp_path / "a.model", tmp_path / "b.model"
    out1, _ = run(train_flags(dataset, m1))
    out2, _ = run(train_flags(dataset, m2))
    assert m1.read_bytes() == m2.read_bytes()
    assert out1.splitlines()[1].rsplit(",", 1)[0] == \
        out2.splitlines()[1].rsplit(",", 1)[0]  # all but wall time


def test_train_loss_improves(run, dataset, tmp_path):
    out, _ = run(train_flags(dataset, tmp_path / "m.model"))
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["examples"] == "250"
    assert cols["labels_seen"] == "2"
    assert cols["width"] == "16"
    assert float(cols["last_decile_loss"]) < float(cols["first_decile_loss"])


def test_train_seed_env_fallback(run, dataset, tmp_path, monkeypatch):
    explicit = tmp_path / "a.model"
    run(train_flags(dataset, explicit))
    monkeypatch.setenv(SEED_ENV, "7")
    fallback = tmp_path / "b.model"
    argv = train_flags(dataset, fallback)
    i = argv.index("--seed")
    del argv[i:i + 2]
    run(argv)
    assert explicit.read_bytes() == fallback.read_bytes()


def test_train_rejects_bad_seed_env(run, dataset, tmp_path, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "notanumber")
    argv = train_flags(dataset, tmp_path / "m.model")
    i = argv.index("--seed")
    del argv[i:i + 2]
    _, err = run(argv, expect=1)
    assert err.startswith("error (invalid-argument):")


@pytest.mark.parametrize("source", ["flag", "env"])
def test_train_refuses_a_seed_past_64_bits(run, dataset, tmp_path, monkeypatch, source):
    # Model and index files store the seed as a u64, so 2^64 is refused before training.
    out = tmp_path / "m.model"
    argv = train_flags(dataset, out, **{"--seed": 1 << 64})
    if source == "env":
        monkeypatch.setenv(SEED_ENV, str(1 << 64))
        i = argv.index("--seed")
        del argv[i:i + 2]
    _, err = run(argv, expect=1)
    assert err.startswith("error (invalid-argument): seed must be in [0, 2^64), got 1844")
    assert not out.exists()


def test_train_takes_the_largest_64_bit_seed(run, dataset, tmp_path):
    out = tmp_path / "m.model"
    run(train_flags(dataset, out, **{"--seed": (1 << 64) - 1}))
    assert load_model(out).seed == (1 << 64) - 1


def test_train_skips_unlabeled_rows(run, tmp_path):
    X, labels = make_gaussian_classes(2, 4, 60, seed=1)
    labels = [None if i % 3 == 0 else labels[i] for i in range(60)]
    p = tmp_path / "f.csv"
    write_features(p, list(range(60)), labels, X)
    out, err = run(["train", "--features", p, "--k", 8, "--rho", 3,
                    "--seed", 0, "--model-out", tmp_path / "m.model"])
    assert "skipping 20 unlabeled rows" in err
    assert out.splitlines()[1].split(",")[0] == "40"


def test_train_requires_labeled_rows(run, tmp_path):
    X = np.zeros((5, 3), dtype=np.float32)
    p = tmp_path / "f.csv"
    write_features(p, list(range(5)), [None] * 5, X)
    _, err = run(["train", "--features", p, "--k", 8,
                  "--model-out", tmp_path / "m.model"], expect=1)
    assert err.startswith("error (invalid-argument):")


def test_train_shuffle_seed_changes_stream(run, dataset, tmp_path):
    plain = tmp_path / "a.model"
    shuffled = tmp_path / "b.model"
    run(train_flags(dataset, plain))
    run(train_flags(dataset, shuffled, **{"--shuffle-seed": 3}))
    assert plain.read_bytes() != shuffled.read_bytes()


@pytest.mark.parametrize("shuffle_seed", [None, 3])
def test_train_saves_the_library_bundle(run, tmp_path, shuffle_seed):
    # The mean is fitted once over the labeled rows in file order; the stream
    # then steps over those rows normalized, in file or shuffled order.
    X, labels = make_gaussian_classes(3, 5, 90, seed=4)
    labels = [None if i % 4 == 1 else y for i, y in enumerate(labels)]
    p = tmp_path / "f.csv"
    write_features(p, list(range(90)), labels, X)
    argv = ["train", "--features", p, "--k", 8, "--rho", 2, "--seed", 5,
            "--model-out", tmp_path / "cli.model"]
    out, _ = run(argv + ([] if shuffle_seed is None else ["--shuffle-seed", shuffle_seed]))

    _, labels, X = read_features(p)
    rows = [i for i, y in enumerate(labels) if y is not None]
    norm = FeatureNormalizer.fit(X[rows])
    stream = list(zip(norm.transform_many(X[rows]), [labels[i] for i in rows]))
    if shuffle_seed is not None:
        perm = np.random.default_rng(shuffle_seed).permutation(len(stream))
        stream = [stream[i] for i in perm]
    cb, matrix = generate(8, min(DEFAULT_CAPACITY, 1 << 7), 5), new_matrix(8, 2)
    model = HashModel.create(5, 8, seed=5)
    losses = [step(model, matrix, cb, x, y).surrogate_loss_before for x, y in stream]
    save_model(storage.ModelBundle(k=8, rho=2, eta=1.0, seed=5, codebook=cb, matrix=matrix,
                                   model=model, normalizer=norm), tmp_path / "lib.model")
    assert (tmp_path / "cli.model").read_bytes() == (tmp_path / "lib.model").read_bytes()
    # The summary's loss columns are those of the loop of ``step``.
    decile = len(losses) // 10
    want = [f"{np.mean(v):.6f}" for v in (losses, losses[:decile], losses[-decile:])]
    assert out.splitlines()[1].split(",")[4:7] == want


def test_train_csv_and_binary_produce_same_model(run, tmp_path):
    X, labels = make_gaussian_classes(2, 5, 80, seed=9)
    int_labels = [y.removeprefix("c") for y in labels]
    csv_p, bin_p = tmp_path / "f.csv", tmp_path / "f.feat"
    write_features(csv_p, list(range(80)), int_labels, X)
    write_features(bin_p, list(range(80)), int_labels, X)
    m_csv, m_bin = tmp_path / "csv.model", tmp_path / "bin.model"
    run(["train", "--features", csv_p, "--k", 8, "--rho", 3, "--seed", 1,
         "--model-out", m_csv])
    run(["train", "--features", bin_p, "--k", 8, "--rho", 3, "--seed", 1,
         "--model-out", m_bin])
    assert m_csv.read_bytes() == m_bin.read_bytes()


@pytest.fixture
def trained(run, dataset, tmp_path):
    model = tmp_path / "m.model"
    run(train_flags(dataset, model))
    return model


def test_index_codeword_counts(run, dataset, trained, tmp_path):
    out, _ = run(["index", "--model", trained, "--features", dataset["db"],
                  "--mode", "codeword", "--index-out", tmp_path / "i.index"])
    header, row = out.strip().splitlines()
    assert header == "entries,codeword_entries,phi_entries,width"
    assert row == "100,100,0,16"


def test_index_phi_counts(run, dataset, trained, tmp_path):
    out, _ = run(["index", "--model", trained, "--features", dataset["db"],
                  "--mode", "phi", "--index-out", tmp_path / "i.index"])
    assert out.strip().splitlines()[1] == "100,0,100,16"


def test_index_codeword_unlabeled_row_errors(run, trained, tmp_path):
    X = np.zeros((3, 6), dtype=np.float32)
    p = tmp_path / "f.csv"
    write_features(p, [1, 2, 3], ["c0", None, "c1"], X)
    out = tmp_path / "i.index"
    _, err = run(["index", "--model", trained, "--features", p,
                  "--mode", "codeword", "--index-out", out],
                 expect=1)
    assert err.startswith("error (invalid-argument):")
    assert "row id 2 has no label" in err and "--skip-unlabeled" in err
    assert not out.exists()


@pytest.mark.parametrize("skip", [False, True])
def test_index_codeword_writes_the_index_of_a_loop_of_insert_labeled(run, dataset, trained,
                                                                     tmp_path, skip):
    ids, labels, X = read_features(dataset["db"])
    flags = []
    if skip:
        labels[0] = labels[57] = labels[-1] = None
        flags = ["--skip-unlabeled"]
    p = tmp_path / "f.csv"
    write_features(p, ids, labels, X)
    out = tmp_path / "i.index"
    _, err = run(["index", "--model", trained, "--features", p, "--mode", "codeword",
                  "--index-out", out, *flags])
    assert ("skipped 3 unlabeled rows" in err) == skip
    matrix = load_model(trained).matrix
    index = HashIndex()
    for id, y in zip(ids, labels):
        if y is not None:
            index.insert_labeled(id, y, matrix)
    save_index(index, tmp_path / "loop.index")
    assert out.read_bytes() == (tmp_path / "loop.index").read_bytes()


def test_index_skip_unlabeled(run, trained, tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((3, 6)).astype(np.float32)
    p = tmp_path / "f.csv"
    write_features(p, [1, 2, 3], ["c0", None, "c1"], X)
    out, err = run(["index", "--model", trained, "--features", p,
                    "--mode", "codeword", "--index-out", tmp_path / "i.index",
                    "--skip-unlabeled"])
    assert "skipped 1 unlabeled rows" in err
    assert out.strip().splitlines()[1] == "2,2,0,16"


@pytest.mark.parametrize("mode", ["codeword", "phi"])
@pytest.mark.parametrize("bad", ["-3", str(1 << 64)])
def test_index_rejects_ids_outside_64_bits(run, trained, tmp_path, mode, bad):
    p = tmp_path / "f.csv"
    p.write_text(f"id,label,f0,f1,f2,f3,f4,f5\n1,c0,1,0,0,0,0,0\n{bad},c1,0,1,0,0,0,0\n")
    out = tmp_path / "i.index"
    _, err = run(["index", "--model", trained, "--features", p,
                  "--mode", mode, "--index-out", out], expect=1)
    assert err.startswith("error (invalid-argument):")
    assert bad in err
    assert not out.exists()


def test_index_unknown_label_category(run, trained, tmp_path):
    X = np.zeros((1, 6), dtype=np.float32)
    p = tmp_path / "f.csv"
    write_features(p, [1], ["never-seen"], X)
    out = tmp_path / "i.index"
    _, err = run(["index", "--model", trained, "--features", p,
                  "--mode", "codeword", "--index-out", out],
                 expect=1)
    assert err.startswith("error (unknown-label):")
    assert not out.exists()


@pytest.fixture
def indexed(run, dataset, trained, tmp_path):
    index = tmp_path / "i.index"
    run(["index", "--model", trained, "--features", dataset["db"],
         "--mode", "codeword", "--index-out", index])
    return index


def test_query_output_shape(run, dataset, trained, indexed):
    out, _ = run(["query", "--model", trained, "--index", indexed,
                  "--queries", dataset["query"], "--top", 5])
    lines = out.strip().splitlines()
    assert lines[0] == "query_id,rank,id,distance"
    assert len(lines) == 1 + 50 * 5
    first = lines[1].split(",")
    assert first[0] == "350" and first[1] == "1"
    ranks = [int(l.split(",")[1]) for l in lines[1:6]]
    assert ranks == [1, 2, 3, 4, 5]
    dists = [int(l.split(",")[3]) for l in lines[1:6]]
    assert dists == sorted(dists)


def test_query_deterministic(run, dataset, trained, indexed):
    argv = ["query", "--model", trained, "--index", indexed,
            "--queries", dataset["query"]]
    out1, _ = run(argv)
    out2, _ = run(argv)
    assert out1 == out2


def test_query_rejects_a_negative_top(run, dataset, trained, indexed):
    out, err = run(["query", "--model", trained, "--index", indexed,
                    "--queries", dataset["query"], "--top", -28], expect=1)
    assert err.startswith("error (invalid-argument):")
    assert out == ""


def wider_queries(dataset, tmp_path):
    """The query file with one feature column more than the model takes."""
    ids, labels, X = read_features(dataset["query"])
    p = tmp_path / "wide.csv"
    write_features(p, ids, labels, np.hstack([X, X[:, :1]]))
    return p


@pytest.mark.parametrize("normalize", [True, False])
def test_failed_query_writes_nothing_to_stdout(run, dataset, tmp_path, normalize):
    model, index = tmp_path / "m.model", tmp_path / "i.index"
    run(train_flags(dataset, model) + ([] if normalize else ["--no-normalize"]))
    run(["index", "--model", model, "--features", dataset["db"],
         "--mode", "codeword", "--index-out", index])
    out, err = run(["query", "--model", model, "--index", index,
                    "--queries", wider_queries(dataset, tmp_path)], expect=1)
    assert (out, err.split(":")[0]) == ("", "error (dimension)")
    # rho=1 opens a cycle per label, so this index's rows are wider than the model.
    wide_model, wide_index = tmp_path / "w.model", tmp_path / "w.index"
    run(train_flags(dataset, wide_model, **{"--rho": 1}))
    run(["index", "--model", wide_model, "--features", dataset["db"],
         "--mode", "phi", "--index-out", wide_index])
    out, err = run(["query", "--model", model, "--index", wide_index,
                    "--queries", dataset["query"]], expect=1)
    assert (out, err.split(":")[0]) == ("", "error (consistency)")


def test_query_with_a_model_of_another_k_is_a_consistency_error(run, dataset, trained,
                                                                indexed, tmp_path):
    # The k=16 index rows are no wider than this k=32 model, but cut in other blocks.
    other = tmp_path / "k32.model"
    run(train_flags(dataset, other, **{"--k": 32}))
    out, err = run(["query", "--model", other, "--index", indexed,
                    "--queries", dataset["query"]], expect=1)
    assert (out, err.split(":")[0]) == ("", "error (consistency)")


def test_dimension_mismatch_against_a_normalizer(run, dataset, trained, indexed, tmp_path):
    wide = wider_queries(dataset, tmp_path)
    for mode in ("phi", "codeword"):
        _, err = run(["index", "--model", trained, "--features", wide,
                      "--mode", mode, "--index-out", tmp_path / "w.index"], expect=1)
        assert err.startswith("error (dimension):")
    _, err = run(["eval", "--model", trained, "--index", indexed, "--queries", wide],
                 expect=1)
    assert err.startswith("error (dimension):")


def test_eval_trained_model_is_accurate(run, dataset, trained, indexed):
    out, _ = run(["eval", "--model", trained, "--index", indexed,
                  "--queries", dataset["query"]])
    header, row = out.strip().splitlines()
    assert header == "queries,evaluated,skipped,map"
    n, evaluated, skipped, ap = row.split(",")
    assert (n, evaluated, skipped) == ("50", "50", "0")
    assert float(ap) >= 0.95


def test_query_and_eval_match_the_library(run, dataset, trained, tmp_path):
    index_path = tmp_path / "phi.index"
    run(["index", "--model", trained, "--features", dataset["db"],
         "--mode", "phi", "--index-out", index_path])
    ids, labels, X = read_features(dataset["query"])
    # One unlabeled query and one whose label no entry has: both are skipped.
    labels = [None, "nobody"] + labels[2:]
    queries = tmp_path / "mixed.csv"
    write_features(queries, ids, labels, X)
    out, _ = run(["query", "--model", trained, "--index", index_path,
                  "--queries", queries, "--top", 3])
    eval_out, _ = run(["eval", "--model", trained, "--index", index_path,
                       "--queries", queries])
    bundle, index = load_model(trained), load_index(index_path)
    xs = [bundle.normalizer.transform(x) for x in X]
    assert out.splitlines()[1:] == [
        f"{qid},{r},{id},{d}" for qid, x in zip(ids, xs)
        for r, (id, d) in enumerate(index.query(bundle.model, x, top_n=3), start=1)]
    expected = retrieval_map(index, bundle.model, xs, labels)
    assert eval_out.splitlines()[1] == f"{len(ids)},{len(ids) - 2},2,{expected:.6f}"


def test_query_output_is_the_library_ranking_byte_for_byte(run, dataset, trained, tmp_path):
    index_path = tmp_path / "phi.index"
    run(["index", "--model", trained, "--features", dataset["db"],
         "--mode", "phi", "--index-out", index_path])
    ids, _, X = read_features(dataset["query"])
    bundle, index = load_model(trained), load_index(index_path)
    xs = [bundle.normalizer.transform(x) for x in X]
    for top in (0, 1, 4):
        out, _ = run(["query", "--model", trained, "--index", index_path,
                      "--queries", dataset["query"], "--top", top])
        assert out == "query_id,rank,id,distance\n" + "".join(
            f"{qid},{r},{id},{d}\n" for qid, x in zip(ids, xs)
            for r, (id, d) in enumerate(index.query(bundle.model, x, top_n=top), start=1))


def test_eval_map_equals_retrieval_map_exactly(run, dataset, trained, tmp_path,
                                              monkeypatch):
    from ecochash import evaluation
    index_path = tmp_path / "phi.index"
    run(["index", "--model", trained, "--features", dataset["db"],
         "--mode", "phi", "--index-out", index_path])
    ids, labels, X = read_features(dataset["query"])
    labels = [None] + labels[1:]
    queries = tmp_path / "mixed.csv"
    write_features(queries, ids, labels, X)
    means = []
    real = evaluation.mean_defined

    def recording(aps):
        means.append(real(aps))
        return means[-1]

    monkeypatch.setattr(evaluation, "mean_defined", recording)
    out, _ = run(["eval", "--model", trained, "--index", index_path,
                  "--queries", queries])
    assert len(means) == 1
    bundle, index = load_model(trained), load_index(index_path)
    xs = [bundle.normalizer.transform(x) for x in X]
    assert means[0] == retrieval_map(index, bundle.model, xs, labels)
    assert out.splitlines()[1] == f"{len(ids)},{len(ids) - 1},1,{means[0]:.6f}"


def test_eval_untrained_model_near_chance(run, dataset, tmp_path):
    """An eta-0 model is blind to the labels, so over CLI seeds 0-11 its mAP sits near chance.

    A codeword index ranks one class's rows before the other's, so each of the
    2 balanced classes reads AP 1 or about 0.31, each half the time: chance is
    a mean near 0.65 (0.53-0.67 under five core-draw sequences), and a trained
    model reads about 1.
    """
    model = tmp_path / "flat.model"
    index = tmp_path / "flat.index"
    aps = []
    for seed in range(12):
        run(train_flags(dataset, model, **{"--eta": 0.0, "--seed": seed}))
        run(["index", "--model", model, "--features", dataset["db"],
             "--mode", "codeword", "--index-out", index])
        out, _ = run(["eval", "--model", model, "--index", index,
                      "--queries", dataset["query"]])
        aps.append(float(out.strip().splitlines()[1].split(",")[3]))
    assert 0.45 <= np.mean(aps) <= 0.85


def test_eval_rejects_unlabeled_queries(run, dataset, trained, indexed, tmp_path):
    X = np.zeros((4, 6), dtype=np.float32)
    p = tmp_path / "q.csv"
    write_features(p, [1, 2, 3, 4], [None] * 4, X)
    _, err = run(["eval", "--model", trained, "--index", indexed,
                  "--queries", p], expect=1)
    assert err.startswith("error (invalid-argument):")


def test_eval_full_experiment(run, dataset, tmp_path):
    curve = tmp_path / "curve.csv"
    out, _ = run(["eval", "--full-experiment",
                  "--train-features", dataset["train"],
                  "--db-features", dataset["db"],
                  "--queries", dataset["query"],
                  "--k", 8, "--rho", 4, "--orderings", 2,
                  "--seed", 11, "--curve-out", curve])
    lines = out.strip().splitlines()
    assert lines[0] == "ordering,map,bit_updates,flipped_bits"
    assert len(lines) == 4
    assert lines[1].startswith("0,") and lines[2].startswith("1,")
    assert lines[3].startswith("mean,")
    # codeword mode never rewrites stored bits
    assert lines[1].split(",")[2] == "0"
    curve_lines = curve.read_text().splitlines()
    assert curve_lines[0] == CURVE_HEADER
    assert len(curve_lines) == 3


def test_eval_full_experiment_needs_data_flags(run, dataset):
    _, err = run(["eval", "--full-experiment",
                  "--train-features", dataset["train"]], expect=1)
    assert err.startswith("error (invalid-argument):")
    assert "--db-features" in err


def test_eval_full_experiment_rejects_zero_orderings(run, dataset):
    _, err = run(["eval", "--full-experiment", "--train-features", dataset["train"],
                  "--db-features", dataset["db"], "--queries", dataset["query"],
                  "--k", 8, "--orderings", 0], expect=1)
    assert err.startswith("error (invalid-argument):")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("normalize", [[], ["--no-normalize"]], ids=["normalized", "raw"])
def test_eval_full_experiment_refuses_an_empty_training_file(run, dataset, tmp_path, normalize):
    empty = tmp_path / "empty.csv"
    empty.write_text(dataset["train"].read_text().splitlines()[0] + "\n")
    _, err = run(["eval", "--full-experiment", "--train-features", empty,
                  "--db-features", dataset["db"], "--queries", dataset["query"],
                  "--k", 8, *normalize], expect=1)
    assert err.splitlines() == [
        "error (invalid-argument): the training stream is empty: there is nothing to train on"]


def test_missing_file_is_io_error(run, tmp_path):
    _, err = run(["train", "--features", tmp_path / "absent.csv",
                  "--k", 8, "--model-out", tmp_path / "m.model"], expect=1)
    assert err.startswith("error (io):")


def test_corrupt_model_is_format_error(run, dataset, tmp_path):
    bogus = tmp_path / "bogus.model"
    bogus.write_bytes(b"garbage bytes, not a model")
    _, err = run(["index", "--model", bogus, "--features", dataset["db"],
                  "--mode", "codeword", "--index-out", tmp_path / "i.index"],
                 expect=1)
    assert err.startswith("error (format):")


def test_train_rejects_a_nan_feature(run, tmp_path):
    X, labels = make_gaussian_classes(2, 3, 30, seed=1)
    X[17, 2] = np.nan
    p = tmp_path / "nan.csv"
    # write_features refuses NaN, so the file comes from the CSV encoder under it.
    storage._write_features_csv(p, list(range(100, 130)), labels, X.astype(np.float32))
    model = tmp_path / "m.model"
    _, err = run(["train", "--features", p, "--k", 8, "--model-out", model], expect=1)
    assert err.startswith("error (format):") and "row id 117 " in err
    assert not model.exists()


def test_train_on_a_malformed_csv_is_a_format_error(run, tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("id,label,f0,f1\n1,0,0.5\n")
    model = tmp_path / "m.model"
    out, err = run(["train", "--features", p, "--k", 8, "--model-out", model], expect=1)
    assert out == "" and err.startswith("error (format):")
    assert not model.exists()


def test_train_on_a_csv_that_is_not_utf8_is_a_format_error(run, tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes("id,label,f0\n1,\u00e9t\u00e9,0.5\n".encode("latin-1"))
    out, err = run(["train", "--features", p, "--k", 8, "--model-out", tmp_path / "m.model"],
                   expect=1)
    assert out == "" and err.startswith("error (format):") and "latin1.csv" in err


@pytest.mark.parametrize("eta", ["nan", "inf", "-1"])
def test_train_rejects_eta_that_is_negative_or_not_finite(run, dataset, tmp_path, eta):
    model = tmp_path / "m.model"
    _, err = run(train_flags(dataset, model, **{"--eta": eta}), expect=1)
    assert err.startswith("error (invalid-argument):")
    assert not model.exists()


@pytest.mark.parametrize("command", ["train", "codebook-stats"])
def test_k_below_one_is_named(run, dataset, tmp_path, command):
    model = tmp_path / "m.model"
    argv = (train_flags(dataset, model, **{"--k": 0, "--rho": 2}) if command == "train"
            else ["codebook-stats", "--k", 0, "--rho", 2])
    out, err = run(argv, expect=1)
    assert (out, err) == ("", "error (invalid-argument): k must be >= 1, got 0\n")
    assert not model.exists()


def test_negative_seed_rejected(run, dataset, tmp_path):
    _, err = run(train_flags(dataset, tmp_path / "m.model", **{"--seed": -4}),
                 expect=1)
    assert err.startswith("error (invalid-argument):")


def test_codebook_exhaustion_category_and_hint(run, tmp_path):
    X, labels = make_gaussian_classes(10, 4, 40, seed=2)
    p = tmp_path / "f.csv"
    write_features(p, list(range(40)), labels, X)
    # k=4 caps the pool at 8 codes but the stream brings 10 labels
    _, err = run(["train", "--features", p, "--k", 4, "--rho", 8,
                  "--capacity", 8, "--seed", 0,
                  "--model-out", tmp_path / "m.model"], expect=1)
    assert err.startswith("error (codebook-exhausted):")
    assert "regenerate" in err
