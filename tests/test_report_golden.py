"""Byte-level golden digests of the two reports a verdict is printed as.

For every pair in ``SAMPLE_PAIRS`` this pins the SHA-256 of

* ``json.dumps(decide(n, g).as_dict(), indent=2)``, exactly what
  ``bipartite-tsg verify`` prints, and
* ``cli._verdict_text(decide(n, g))``, the text ``decide`` prints.

Every other test checks report fields; these digests catch any change to
the report format itself (key order, wording, a field that appears or
disappears).  A deliberate format change must update them, and
``DECIDE_1200_SHA256``, which pins every verdict's JSON up to ``n = 1200``.
"""

import hashlib
import json

import pytest

from bipartite_tsg import cli, decide

from conftest import SAMPLE_PAIRS

GOLDEN = {
    ("A4", 6): ("36fd6a524ec654be7a4001d470becf44e4067f30c3314caf2be76f909779e054", "413c2d831a0bf59e54ff9cbadc3a5383fdf576e6a79a18536b023022b00d66f4"),
    ("A4", 12): ("ff9c791691aaaa7fe8d9dedd422b94d0214fb540d2dd32dc7c3a39afd6761cf7", "2ee7aeb08f9b1ab0202d5b74120c35528c981513060ca456201ed4f03a5e836f"),
    ("S4", 4): ("b7f357d53d931f47f8526f4745f76eac3a85e45ac37891c29e3898099c84f9f4", "856fc9c818134b53552cbbb3e11dd5c04c75e4339e0e5fecab76636f5b6d4106"),
    ("A4", 16): ("3c6dca2bbca0717ebe96dd2e494e2375bf49c10882fb13e94d07cb1788766629", "a0f19825f7a41401f2f3653f5e5c9c4621e583f54c4ec3765e607c0c04a1bb48"),
    ("S4", 26): ("eda7b6243382af1970685ed0fbe268da10a0af9f8c61beb420ad6c7620657ba3", "270941062ee569931f6ddf0674dec7b1eca359af75fb2280b476e97c916af59c"),
    ("S4", 30): ("5a46655c302401bbd4c8ebb31cbc3ab67974fdedd58bce872da10d0bbef5df85", "b213f0bd8251dbefda467b912b478843a6bb97aa45a83877c903d51ffe5ee3e9"),
    ("S4", 8): ("82aa9eaee1244eb63f2fa1b03e2983bb13513251f75aaf9f16923077641023cd", "731982bade1b74afc4d28ca6798c4a7931602342cece2a249df86fef04a3ed53"),
    ("S4", 32): ("30985214123875b3d2dfe6e23660f0257f85a0de3f7ebfec343ef15e90f2167a", "92eb287549264602b2f83b4920bc453bfe4c6085a52508f97ca3593ad50f89a1"),
    ("S4", 14): ("b7dd2951743d06cc61fea82a6577ff7058c1f8f7771362cdab23c42bc9e8c6f0", "b2a830696fdd93001995a3becba947a9a8e1a688d362bc283915f950687085cf"),
    ("A4", 18): ("c69d0d3451849dfd01405b932b43095b61be428373af336dbb59876f9d63a254", "0f2bf46af69a1a1262fd0218222484dc4ab276c6b7770fe706582f6b0146905c"),
    ("S4", 20): ("4424a9759ae863d488706b5aaea9a0c806e925b1e43e8247ae0df35fcb4226ad", "274a623a0a6cf1d53a5d860515e78a9abac4c7944e227775634572309f6e0b4e"),
    ("A5", 32): ("b1f79290de6e403fb8c4282d2141fa6fac482312a1c9102d3ccbec79ec52b2de", "aec700e64aa5507e34caa5819d3668707b97d0e1cb302ae6249ff1b75e41782f"),
    ("A5", 42): ("bdebb4b2b928b7a8323dc7a3596f85dd03ba5e6a9bc4fe0a404492993dc2f9d0", "59d30c7b732e44fad7a815563ea98c1fe92b24df3cfca0d1bbc3db1982f68788"),
    ("A5", 50): ("2507f03763703082582c1bd9cd1995d64c415ae77eca26ca715d4b7b5b412fb2", "9d79b9a7cd7a16b2c8f544ac41813affd8315191b7b0adbe5e5e8453a89b9e3d"),
    ("A5", 60): ("2572b4b004c82fdae2a9436725754712aa1dd4f189a405752dac1008f3ccd51f", "212ff8838a3adb088be468ac6ebdedc751452e15725826f11e553e01e03b7304"),
    ("A5", 62): ("f103a231e7a77f8061669a75f36e4e76258f15da22129aa8569dbc5f6e75c08e", "3474d320573b4f79a700942b6af632c7ea75ed847d808af872af5529f5ed84e2"),
    ("A5", 72): ("ea80bd35670ef30812e547864c85987064e57eff7597e4da760588074e77fa46", "01d4ae51ae7dff4d05bbe73641556c89bea42dad1fd2a03525885c422a18e52c"),
    ("A5", 80): ("77402f3661b30264e49d11842270d73b61f009070b3fcad11da7803db0fd7a0c", "3cb116bf0289df198a65a43df4281d30baa949e9415a4317a6d18e9fe9eb4da9"),
    ("A5", 90): ("f6f5ba0157c38b03a2aff22f1930f2669caf24027c01fadb8312958b61b4d359", "85535ff69e95d2b771e7e7591d80c69be28c32ae700a7870a506e46a5553aecc"),
    ("A5", 110): ("b03c0d702238eed90b27b7a7b913aada0ed39ad82074645aa48dd22d9b182e72", "0e5ba2e801799c4283559b68a338dd78f1cf75ef2beb49d26643d6bfb994ea7e"),
}


#: SHA-256 over ``json.dumps(decide(n, g).as_dict(), sort_keys=True)``,
#: concatenated for g in A4, S4, A5 (outer) and n in 0..1200 (inner).
DECIDE_1200_SHA256 = "c4e3c20695371d57d8adc64e16ef0c65e39d9d8b835c780b49af49bd8d47a8b2"


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


def test_every_verdict_up_to_1200_is_byte_identical():
    digest = hashlib.sha256()
    for group in ("A4", "S4", "A5"):
        for n in range(1201):
            report = json.dumps(decide(n, group).as_dict(), sort_keys=True)
            digest.update(report.encode("utf-8"))
    assert digest.hexdigest() == DECIDE_1200_SHA256
