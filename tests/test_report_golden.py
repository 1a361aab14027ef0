"""Byte-level golden digests of the two reports a verdict is printed as.

For every pair in ``SAMPLE_PAIRS`` this pins the SHA-256 of

* ``json.dumps(decide(n, g).as_dict(), indent=2)``, exactly what
  ``bipartite-tsg verify`` prints, and
* ``cli._verdict_text(decide(n, g))``, the text ``decide`` prints.

Every other test checks report fields; these digests catch any change to
the report format itself (key order, wording, a field that appears or
disappears).  A deliberate format change must update them, and
``DECIDE_1200_SHA256``, which pins every verdict's JSON up to ``n = 1200``.

The witness writes its forced set per part, as ``{"only": [...]}`` or
``{"all_except": [...]}``.  ``DECIDE_1200_EXPANDED_SHA256`` pins the same
reports with that set listed vertex by vertex, as reports wrote it before,
so the complement form is shown to lose nothing.
"""

import hashlib
import json

import pytest

from bipartite_tsg import cli, decide

from conftest import SAMPLE_PAIRS, expanded_report

GOLDEN = {
    ("A4", 6): ("9160a4a8c6f4b47ddd1a59604f60de0d3e3118d34ee5742cb5d112fa25e0cdd2", "413c2d831a0bf59e54ff9cbadc3a5383fdf576e6a79a18536b023022b00d66f4"),
    ("A4", 12): ("d2e02b7c60a0909e669ae00fb0c85213b321f2e6f3c6d357d3f5dde882e1a69c", "2ee7aeb08f9b1ab0202d5b74120c35528c981513060ca456201ed4f03a5e836f"),
    ("S4", 4): ("5e58b6b0e2943122483282cc7b865757b990c210f65a0ec29efb16686428e468", "856fc9c818134b53552cbbb3e11dd5c04c75e4339e0e5fecab76636f5b6d4106"),
    ("A4", 16): ("36b87c58fb1e760d325a64bfbae31a595e411d6eab17b4683b849493ea1d4cd0", "a0f19825f7a41401f2f3653f5e5c9c4621e583f54c4ec3765e607c0c04a1bb48"),
    ("S4", 26): ("d4bf4fe9245dde75c5c49d07429a542f74161ec3bbe47106b9fca17307ad652f", "270941062ee569931f6ddf0674dec7b1eca359af75fb2280b476e97c916af59c"),
    ("S4", 30): ("9e237e1e6c3d43be73c781e79d4367a9a05dcf779b7f3eddec8a87e93939902c", "b213f0bd8251dbefda467b912b478843a6bb97aa45a83877c903d51ffe5ee3e9"),
    ("S4", 8): ("dc2c382bb6c1c372b684114cb5b7aa99159f1d97b2f04779eab4eee2a1a51032", "731982bade1b74afc4d28ca6798c4a7931602342cece2a249df86fef04a3ed53"),
    ("S4", 32): ("ba0791daf453e5c04440a5dc167469d13f98818a106db06b0ad40dc3b0ac0c44", "92eb287549264602b2f83b4920bc453bfe4c6085a52508f97ca3593ad50f89a1"),
    ("S4", 14): ("d1655439607c3f4f93cba0433231154b4844e8a6ff35a99f80f0169647fa14c9", "b2a830696fdd93001995a3becba947a9a8e1a688d362bc283915f950687085cf"),
    ("A4", 18): ("4849acf149ce2ea35544cbecf5956c6ace14fed41eb3abef37fcc1a54f1eddc0", "0f2bf46af69a1a1262fd0218222484dc4ab276c6b7770fe706582f6b0146905c"),
    ("S4", 20): ("b82597a3a472b0e8de7ecf11a02940de1f90aec08cd687fc45ead1b32ae43678", "274a623a0a6cf1d53a5d860515e78a9abac4c7944e227775634572309f6e0b4e"),
    ("A5", 32): ("a9e52c4ff9646ddd3fb3dfc6d5aa634e1ba4290d41af2c972b3151805565c533", "aec700e64aa5507e34caa5819d3668707b97d0e1cb302ae6249ff1b75e41782f"),
    ("A5", 42): ("34040fe13a5652fdc3f9ab703622db4f0ae9d90f56703d81ec10f167c4f2ee04", "59d30c7b732e44fad7a815563ea98c1fe92b24df3cfca0d1bbc3db1982f68788"),
    ("A5", 50): ("c3f40b23e0dd148848d252ea253a062e8e1acc52a88da9fd1c23fd79cd8f568b", "9d79b9a7cd7a16b2c8f544ac41813affd8315191b7b0adbe5e5e8453a89b9e3d"),
    ("A5", 60): ("e1c3e274723e703e18c7acbe747ce3da1786c0262bfd622e42cab41877b474a6", "212ff8838a3adb088be468ac6ebdedc751452e15725826f11e553e01e03b7304"),
    ("A5", 62): ("c3f2eaf34612c43d8b919f7f8e80471f051a10055070dc0a4641bfd3fdf77621", "3474d320573b4f79a700942b6af632c7ea75ed847d808af872af5529f5ed84e2"),
    ("A5", 72): ("b759ccd1d3cc51fe099ad2757f004984463a91722b99dcef1ebbac313ba0a8af", "01d4ae51ae7dff4d05bbe73641556c89bea42dad1fd2a03525885c422a18e52c"),
    ("A5", 80): ("002f4d94d306cc29bbe83791a5073f009ba44f02562af36ec0aec1f3ec646634", "3cb116bf0289df198a65a43df4281d30baa949e9415a4317a6d18e9fe9eb4da9"),
    ("A5", 90): ("ed1c3919baba470671ead04a8bd4391e0daf8fbc99f4dfbe77a584306a7e2562", "85535ff69e95d2b771e7e7591d80c69be28c32ae700a7870a506e46a5553aecc"),
    ("A5", 110): ("3514de0fc62592eb5fdcceb3d63ebe648f66a5fbc66718f2e78ca75798db3e1c", "0e5ba2e801799c4283559b68a338dd78f1cf75ef2beb49d26643d6bfb994ea7e"),
}


#: SHA-256 over ``json.dumps(decide(n, g).as_dict(), sort_keys=True)``,
#: concatenated for g in A4, S4, A5 (outer) and n in 0..1200 (inner).
DECIDE_1200_SHA256 = "f5fa8c7ee42d8fa4877a441df319766b61fb3120395c482e6bc6f49b94abffb4"

#: The same digest over ``expanded_report`` of each report: the witness's
#: forced set listed as ``vertices`` reproduces, byte for byte, every report
#: written before the complement form.
DECIDE_1200_EXPANDED_SHA256 = "c4e3c20695371d57d8adc64e16ef0c65e39d9d8b835c780b49af49bd8d47a8b2"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_covers_every_sample_pair():
    assert set(GOLDEN) == set(SAMPLE_PAIRS)


@pytest.mark.parametrize("pair", SAMPLE_PAIRS, ids=lambda p: f"{p[0]}-{p[1]}")
def test_reports_are_byte_identical(pair):
    group, n = pair
    verdict = decide(n, group)
    json_digest, text_digest = GOLDEN[pair]
    assert _sha256(json.dumps(verdict.as_dict(), indent=2)) == json_digest
    assert _sha256(cli._verdict_text(verdict)) == text_digest


def _digest_up_to_1200(encode) -> str:
    digest = hashlib.sha256()
    for group in ("A4", "S4", "A5"):
        for n in range(1201):
            report = json.dumps(encode(decide(n, group).as_dict()), sort_keys=True)
            digest.update(report.encode("utf-8"))
    return digest.hexdigest()


def test_every_verdict_up_to_1200_is_byte_identical():
    assert _digest_up_to_1200(lambda report: report) == DECIDE_1200_SHA256


def test_every_verdict_up_to_1200_expands_to_the_listed_report():
    assert _digest_up_to_1200(expanded_report) == DECIDE_1200_EXPANDED_SHA256
