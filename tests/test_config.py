import json

import pytest

from companysim.config import (
    ClusterConfig,
    PeersConfig,
    RunConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
)
from companysim.errors import ConfigError


def test_defaults_load_without_file():
    cfg = load_config(None)
    assert cfg.embedding.provider == "tfidf"
    assert cfg.embedding.context_budget == 512
    assert cfg.classify.level == "sector"
    assert cfg.seed == 0


def test_round_trip_through_dict():
    cfg = RunConfig()
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"embeddings": {}})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError):
        config_from_dict({"embedding": {"dimensions": 8}})


@pytest.mark.parametrize("patch", [
    {"embedding": {"provider": "word2vec"}},
    {"embedding": {"context_budget": 999}},
    {"embedding": {"dimension": 1}},
    {"classify": {"level": "ticker"}},
    {"classify": {"test_fraction": 0.0}},
    {"peers": {"k": 0}},
    {"cluster": {"method": "dbscan"}},
    {"attribution": {"winsorize": 0.5}},
    # types are strict: no string or scalar years, no bool or float counts
    {"peers": {"years": "2021"}},
    {"peers": {"years": 2021}},
    {"peers": {"years": [2021, "2022"]}},
    {"peers": {"years": [2021.0]}},
    {"peers": {"years": [True]}},
    {"peers": {"k": 2.5}},
    {"peers": {"k": True}},
    {"peers": {"min_overlap": 60.5}},
    {"peers": {"min_overlap": True}},
    {"cluster": {"n_clusters": True}},
    {"cluster": {"n_clusters": 6.0}},
    {"cluster": {"n_neighbors": 2.5}},
    {"embedding": {"window": True}},
    {"classify": {"max_iter": 10.5}},
    {"attribution": {"min_month_obs": 1.5}},
    # float fields take finite numbers only: no bool, Infinity or NaN
    {"embedding": {"backoff": float("inf")}},
    {"embedding": {"timeout": float("inf")}},
    {"embedding": {"tokens_per_word": float("inf")}},
    {"embedding": {"tokens_per_word": float("nan")}},
    {"embedding": {"timeout": True}},
    {"classify": {"l2_penalty": True}},
    {"classify": {"tol": False}},
    {"classify": {"test_fraction": "0.2"}},
    {"attribution": {"winsorize": True}},
    {"attribution": {"winsorize": float("-inf")}},
    # string fields take JSON strings only
    {"embedding": {"auth_env": ["TOKEN"]}},
])
def test_invalid_values_rejected(patch):
    with pytest.raises(ConfigError):
        config_from_dict(patch)


def test_peers_years_kept_as_integer_tuple():
    cfg = config_from_dict({"peers": {"years": [2021, 2020]}})
    assert cfg.peers.years == (2021, 2020)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with pytest.raises(ConfigError):
        PeersConfig(years="2021")
    with pytest.raises(ConfigError):
        ClusterConfig(n_clusters=True)


def test_remote_provider_requires_endpoint():
    with pytest.raises(ConfigError):
        config_from_dict({"embedding": {"provider": "remote"}})
    cfg = config_from_dict({"embedding": {
        "provider": "remote",
        "endpoint": "http://h",
        "remote_provider_id": "m",
    }})
    assert cfg.embedding.endpoint == "http://h"


@pytest.mark.parametrize("endpoint", [
    "localhost:8080", "127.0.0.1:8080", "/embed", "ftp://h", "file:///tmp/x",
    "http://", "https:///embed", "http://h:port", "http://h:99999", "http://[::1",
    "", "http://h/my path", "http://h/\u00ebmbed", "http://\u00ebxample.com",
    "http://h/a\tb", "http://h/a\nb", "http://h/\x7f", " http://h",
])
def test_endpoint_must_be_an_absolute_http_url(endpoint):
    with pytest.raises(ConfigError, match="embedding.endpoint must be an absolute"):
        config_from_dict({"embedding": {"provider": "remote", "endpoint": endpoint,
                                        "remote_provider_id": "m"}})


def test_endpoint_is_checked_only_for_the_remote_provider():
    cfg = config_from_dict({"embedding": {"provider": "hash-bow",
                                          "endpoint": "localhost:8080"}})
    assert cfg.embedding.endpoint == "localhost:8080"


def test_scheme_less_endpoint_exits_1_before_any_request(tmp_path, caplog):
    from companysim.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embedding": {
        "provider": "remote", "endpoint": "localhost:8080", "remote_provider_id": "m"}}))
    assert main(["--config", str(cfg), "embed", "--corpus", str(tmp_path / "c.jsonl"),
                 "--hierarchy", str(tmp_path / "h.csv"),
                 "--out", str(tmp_path / "emb.bin")]) == 1
    assert "embedding.endpoint must be an absolute http:// or https:// URL" in caplog.text


@pytest.mark.parametrize("endpoint", [
    "http://h", "https://embed.example.com/v1/", "http://127.0.0.1:8080",
    "HTTP://[::1]:9", "http://user:pw@h:0/x",
])
def test_endpoint_accepts_absolute_http_urls(endpoint):
    cfg = config_from_dict({"embedding": {"provider": "remote", "endpoint": endpoint,
                                          "remote_provider_id": "m"}})
    assert cfg.embedding.endpoint == endpoint


def test_config_hash_stable_and_sensitive():
    a = config_hash(RunConfig())
    b = config_hash(load_config(None))
    assert a == b
    assert len(a) == 12
    changed = config_from_dict({"seed": 1})
    assert config_hash(changed) != a


def test_config_hash_ignores_key_order(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    p1.write_text(json.dumps({"seed": 3, "classify": {"level": "industry"}}))
    p2.write_text(json.dumps({"classify": {"level": "industry"}, "seed": 3}))
    assert config_hash(load_config(p1)) == config_hash(load_config(p2))


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_float_fields_need_finite_numbers(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"embedding": {"backoff": Infinity}}')
    with pytest.raises(ConfigError, match="embedding.backoff must be a finite number"):
        load_config(p)
    # a JSON integer is a number
    cfg = config_from_dict({"embedding": {"timeout": 10, "backoff": 0},
                            "classify": {"l2_penalty": 2}})
    assert (cfg.embedding.timeout, cfg.embedding.backoff) == (10, 0)
    assert cfg.classify.l2_penalty == 2


@pytest.mark.parametrize("patch,message", [
    ({"embedding": {"provider": "remote", "endpoint": "http://h",
                    "remote_provider_id": 5}},
     "embedding.remote_provider_id must be a string"),
    ({"embedding": {"provider": "remote", "endpoint": 8080,
                    "remote_provider_id": "m"}},
     "embedding.endpoint must be a string"),
    ({"embedding": {"auth_env": True}}, "embedding.auth_env must be a string"),
    ({"peers": {"years": []}},
     "peers.years must be null or a non-empty list of distinct integers"),
    ({"peers": {"years": [2020, 2021, 2020]}},
     "peers.years must be null or a non-empty list of distinct integers"),
])
def test_string_fields_and_years_name_the_field(patch, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(patch)
