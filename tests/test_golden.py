"""Golden CLI outputs: the exit code and the sha256 of stdout for each invocation.

Any change to a byte of a command's output fails here.  When a change to an
output is intended, the failure message gives the new hash; replace the entry
and say in the change why that output moved.  `{out}` stands for a file path,
and the file written there must equal stdout.
"""

import hashlib
import json
import random

import pytest

from picard20.arith import primes_up_to
from picard20.cli import main
from picard20.ellsurf import (
    INFINITY,
    SurfaceModel,
    classify_fibers,
    count_fiber,
    good_prime,
    kodaira,
    twist_model,
)
from picard20.errors import VerificationError
from picard20.modelfile import model_to_json
from picard20.models import REGISTRY

GOLDEN = {
    "ap --dK -11 --pmax 200": (0, "709d0e36190ee6445cea13fa985e911076bd44bb54c97afaa928c4faa4f1a712"),
    "ap --dK -12 --pmax 30": (1, "3f6af1c74b286ccba24a96579a1b70fac4aa143b498edf268ebbc638011dcc8d"),
    "ap --dK -163 --pmax 200": (0, "560293d0ca082f035e80aed951b016172c3d3480e90fac1f09b23d5d9a374bfd"),
    "ap --dK -19 --pmax 200": (0, "28058a3641f1f7739cd506d1c73f5c27608782462e91082d3577a3e0ffcd4d0d"),
    "ap --dK -20 --pmax 30": (1, "789b150011a24030fc1ddc67d1844c56e6e2fa3dc124dcc4f13001ee50baf5a0"),
    "ap --dK -20 --pmax 5": (1, "789b150011a24030fc1ddc67d1844c56e6e2fa3dc124dcc4f13001ee50baf5a0"),
    "ap --dK -3 --pmax 200": (0, "8cc69f2db0201ba928e001b1bd2890f5401a585aa73073b17639004eead24fa3"),
    "ap --dK -4 --pmax 1000": (0, "acc86622c981203c400291c37c6c57c7756e4444ebf25017cb013a8401d4714d"),
    "ap --dK -4 --pmax 100000": (0, "456b098114e699416b7f326980b8dfa0cc91bfaea7a92a8aee2425fc10416ea7"),
    "ap --dK -4 --pmax 100000 --twist -3": (0, "bb489684923ed6e0629d06071308f7b3ae133986ac9fe3e38fd96a511780d1af"),
    "ap --dK -4 --pmax 200": (0, "d03efc6c926da5fb8fe1f7dbc12d059217c8e85f7ee42f547d9406e3ee7686ce"),
    "ap --dK -4 --pmax 30 --twist 5": (0, "dc7279aced5217000d7906ac1ad8280f9e5516570abee22a08fc1c7cee2cefe1"),
    "ap --dK -43 --pmax 200": (0, "6a7ee78daaa2c79e33c2281f310069013690e32fe20737b43033b02bfd9351c1"),
    "ap --dK -67 --pmax 200": (0, "414c867d61914ad81423e38ca9cd06144a0c2e4bd9ba226d0418ca8156fd1496"),
    "ap --dK -7 --pmax 200": (0, "37ff4f59baedbbbbd8ebb5937830854415d9fa3ca10bd76239918d1c4e8826f7"),
    "ap --dK -8 --pmax 200": (0, "8c8fe80692f066826ebc3aa6ed8cb491027f347a35f9330dbfa543a32995c3df"),
    "classgroup -d -100": (0, "87c3bbbf7ac02919b2a6e29ad933bcdf76f26d075f430afa6162c44ae364b247"),
    "classgroup -d -23": (0, "f141483d4406e178c32d9e05b3236c10434d225bb44c9d31d2eddc67b0ab2203"),
    "classgroup -d -3": (0, "6cf21a03ef62fdf917d03dcaaafc932826cf2416ee70f5bb8f0c550e5b97e4c6"),
    "classgroup -d -4": (0, "f9cfec682d9a608a9d63365964960107bade3c73588c8669222b1b9fea2038b2"),
    "classgroup -d -420": (0, "80bdbf80b8b0b205c3162167384559111d7608d668409d5fdb0b9a557391e7b0"),
    "classgroup -d -5": (1, "08e3d7688e211738e69dd73d4a5496679d539de4b8d08f0bff24f9f06fc11953"),
    "classgroup -d -84": (0, "95a579352948ecce3e3e554c9fd09ff21f67342f030a0031435b56f02137ae70"),
    "classify --bound 2": (0, "44f31800175e71ff640c9a069e70b7ae44e0b9c75f122fe483cc0c72d44797fa"),
    "classify --bound 200": (0, "a007ad10ce49dde34fb7c004d7a643384c0465e8e5720552bed96f212d2a0c45"),
    "classify --bound 3000 --two-torsion": (0, "f6dd3980364631c839af0279406be16bf783dad704c94127b2a203f9180f4db9"),
    "classify --bound 30000": (0, "46499eaee5eb1f1557aa0ffc2c30cf86a5c7a8d51aa061b118b5a61c37ef86c8"),
    "classify --bound 30000 --two-torsion": (0, "8efd8a70b540259264536ca4a97db638d4c769ea84e5996b37794f5f9050b8c8"),
    "classify --bound 500": (0, "ef4f60d3f6fae414082cced4b317cb9ccfeec3d777a6d816b926779bb667d915"),
    "classify --bound 500 --two-torsion": (0, "e0ad4478e744e97f7d6975bf3446557809e9fc329106359b9a0703f43edf2aba"),
    "count --model d11 --p 11": (1, "31d5cc87b1448cc35ed5fac7a42dd7d110c71da8ac564c16a9b3613a347a9cf5"),
    "count --model d11 --p 13": (0, "a440e98c6d93cb789dacba34c74f9ab725842b0a6e751586a6a4b8ebbbd0fd64"),
    "count --model d11 --p 17": (0, "524eb644bde7b1ddecc257d0d51eef7fde1eb0ab916723279aa06b4deeee979b"),
    "count --model d11 --p 5": (0, "bbcecb331d874864da2b9ee965120186f0771b6145704e8c0ffc0d81354b2f56"),
    "count --model d11 --p 7": (0, "fa49da2ab0c324d732ebe82c417225caefadcb71f5ee1e0034845a1f7c280ac4"),
    "count --model d19 --p 11": (0, "c92d3073a05d12930fe6c6d04d1cad9cd745fd005a280d0bf7b830d5b1d2682d"),
    "count --model d19 --p 13": (0, "b1e3c0f171a99ae85997a3b5e6a482be536d701efa8dce01737df430f698fb42"),
    "count --model d19 --p 17": (0, "4c6e64467a9e7da24456d9423447e8d4aac665a4720e1495cf7a383e54277b47"),
    "count --model d19 --p 5": (0, "afca60f72b5e11eaedd3fc48e5449d7d23a6cd7e8dd2279fa72d5f49c6ed5430"),
    "count --model d19 --p 7": (0, "6b6f1a8eb43735fdeaf058315414bef2cf5c311aa92818766cf0a63ae71c88e7"),
    "count --model d19 --p 9973": (0, "780b20ccbfc1ca3569965b42afea472faaccb0a524c22fd0c0dd686daa612f9a"),
    "count --model d27 --p 11": (1, "94811466e1803b033934ed46b8fc56144217d3364e32a5016f9f2604e71ecfe9"),
    "count --model d27 --p 13": (0, "d7be821fbbaaec30510fcb5a7e60dba3a58217c903a65fbd14208619f6cc323c"),
    "count --model d27 --p 17": (1, "04b8e4cd2b8d8e211f17420ab241b83a9b548a18120fd148dcd6a5824c7cde8b"),
    "count --model d27 --p 5": (1, "65fe15972ef7e6d343e06906d6e80c2bbaea30ca63efcaeb500d5404d100908b"),
    "count --model d27 --p 7": (0, "fb624aed22d88e2d8d9fbe049c5f8c0cb5527dcf5c63e882568718c6430d910c"),
    "count --model d3 --p 11": (1, "e52f71af4da5c79772c4e8f9b37c74b05870c5ffc93f1bc960e7535d588ceb84"),
    "count --model d3 --p 13": (0, "9bdf7a12335bdc52d7b4344b9b2071cfb8ce04938c69d780b96cab8ad1d57346"),
    "count --model d3 --p 17": (1, "3d64ca62f00318aee11d96dc6a4fe4af2f9cde643bc17d4ead82e00f9e009170"),
    "count --model d3 --p 5": (1, "670c3e2b558200d780a932efe988a87ff3eda81b14f7732b2c2bdf256bef24b3"),
    "count --model d3 --p 7": (0, "7b19c10281eb61b045fa0288461bdefa356bb6f209c2fca9181781c164f8d201"),
    "count --model d4 --delta -1 --p 13": (0, "78e1ef63d417dfa54f71af048b486091cb03b2bcc867eb4c11f3a72e44dcbf75"),
    "count --model d4 --p 11": (0, "215ed0aa7994971db2894e0cedde712350a687ab5ea848f7dff38ce33ccb42c6"),
    "count --model d4 --p 13": (0, "3cfaa78278457c388ffa729879740dfcca96dc9077baf6186c622b420d841de3"),
    "count --model d4 --p 17": (0, "3687dec700a5715831b348c275ca08e8986e129cd34578e30e2d88eedb8fb8d4"),
    "count --model d4 --p 5": (0, "a3671e883cccfaa76fa556f8a23ca0060854424165a5672993e160b95669338f"),
    "count --model d4 --p 7": (0, "c1a2b2c8cce1f7f7dda275e8a92629fdeabdc706d58d39adf0b4abbfa1a3754f"),
    "count --model d7-tate --p 11": (0, "50143c73f4bc7e681981dafe4c17cf0e40fae656a144454b727f68c90d5e3b1a"),
    "count --model d7-tate --p 13": (0, "ca366dfa22c148b42adf9633e24a28f62ca39c7db88877b26ef3dd1449333938"),
    "count --model d7-tate --p 17": (0, "9900c9886bf90f5c201dcaa9608033c68edc034919c3910696e634f8dbc8edd0"),
    "count --model d7-tate --p 5": (0, "ca3d01121e5a60ff52e1e48d4fb8ccbdf52e59ed8bb68fb07b2e63385293f07a"),
    "count --model d7-tate --p 7": (1, "1c4e04f3628a06e30b2e9dca038ee3a7af7adfaace00df23226175b9b6750665"),
    "count --model d99 --p 5": (1, "ea44510c775d76cdd4ca3cfc6561e20d076994d6085fc9711a86bf9727cef4da"),
    "fibers --model d11": (0, "bb64d3b518758e9db000aca36993f072f5dfc847d0fb1bba686bf0b909ca0261"),
    "fibers --model d19": (0, "2b0a710cc326184ec2f5dc1c6a47f72f9dd43a615a52968f345931f3e278bdba"),
    "fibers --model d27": (0, "fd554ae53f272bd1b340b353c9736664bd5d2389a3b794eef0dff829c7067276"),
    "fibers --model d3": (0, "5fed0af0904b03a30d8f8c0bd12149aea5ba97d8c3db877b5f0b7f722b36b379"),
    "fibers --model d4": (0, "a49cef5cc4e49d9f789e4ad341cef8c39d5b1aca8d1341800120ca9276b901fa"),
    "fibers --model d4 --delta 5": (0, "bbb689bbe072274374dce5ce14cfd3c14c84759c650d8d3c50852d2530d33c8b"),
    "fibers --model d7-tate": (0, "d887e6e86e1865ab8c39745661e0359d0ac7f1166e7f7efc2027db0041f8d44f"),
    "fibers --model d99": (1, "ea44510c775d76cdd4ca3cfc6561e20d076994d6085fc9711a86bf9727cef4da"),
    "height --model d11 --section 0": (1, "d83b7070a1aa4b8ff3bbbae70ba5d8e0a7c8479e1f47c8e04c0c2a95f0ccc56a"),
    "height --model d19 --section 0": (1, "986fbd8c32fc79afb6bc976672796482616777fbd8d674b83988853ab76415f8"),
    "height --model d27 --section 0": (0, "73c7a75a75ff75fcfe9100cd182e19c715c7aa3f50a396e7f6097910b7e7729a"),
    "height --model d27 --section 1": (0, "7482013045a188c67105ea190fc717dbbf04186eeae66553236b526b2b19a18e"),
    "height --model d27 --section 2": (1, "86513eb0c010181b9cfcece1b41b607f4825e8a92116a7161ef61bab357a72d7"),
    "height --model d3 --section 0": (1, "65dcb90dca1a951276284299451369e1420010ee7c1c6f98c0a300def1b14e01"),
    "height --model d4 --section 0": (0, "f7d984eb7808fc176063231e1a37f67c7f826c409ee7be3160ecdc0027a37f87"),
    "height --model d4 --section 1": (1, "2b6604de8df72cb949cc472a633170ccff605d969a4408924ba5de893bb701d7"),
    "height --model d7-tate --section 0": (0, "304d8d8a09416b3cde969d27dc34418021e5124f35c16e868e897b0c24840092"),
    "height --model d7-tate --section 1": (1, "6680418b0b1031626c9b80e0788832b6fe72e04bdd858c467a2d6fffd5ce8e0c"),
    "lemma-r -d -3 -r 3 --bound 5000": (0, "9c0194d8d1cde0f699f73f56a5e8f3e13570a404210e7a2f5dc063dcfdb26b86"),
    "lemma-r -d -4 -r 1 --bound 1000": (1, "cfc9c3457381d944fd15c394af4bfbc0e10cb0dbfb62424c4927dd18bfe0baa2"),
    "lemma-r -d -4 -r 2 --bound 10000": (0, "7462af7bad4bc19d4ba174d2a9538448738e65963fd3c3429710e8c0f6a1e4fe"),
    "list-models": (0, "9efc820f9ce56e5f66d26e0a4a34e19544176ee41dc386d6b6d7ba71b0401d22"),
    "nsdisc --model d11": (0, "d0799f44fbedf7ac40c090dc65bbc25c84042a903f64fd067b60b4516f2f6942"),
    "nsdisc --model d19": (0, "5dcda626d05f154c34c327f652a122b34b8ba4a106956d0f1afa17b17df12a98"),
    "nsdisc --model d27": (0, "d05d33172404023cfe450a8e146e44d410cf7a856e1845c18d55b80a8f3c8e85"),
    "nsdisc --model d3": (0, "fdd690069ba85b8571367c0ae7454d0ffb813dddf4e3b9b5694a3c742c102dfe"),
    "nsdisc --model d4": (0, "8cc5e317176121b7932e9415f22d9df5bf66504f84e3f3a5345d3fe61aaccdc8"),
    "nsdisc --model d7-tate": (0, "84a73e4c0703d377aed8694902c3e348eeb4f8ade0b41f92048d3fec865fdfbc"),
    "table-check": (0, "6f625a1744a14b29a85fe5ffa1447bd6bce93509d6e668fd20426b44b0b05f94"),
    "verify --model d11 --pmax 200": (0, "7fc06edb3aecd03749d6ece291424046d82860aea1ffd4b8800c66e597bcf90e"),
    "verify --model d19 --pmax 100 --delta 5": (1, "4d09451ddfe0838f1a6fababdafed4f8b6fb38fe236e51650b6965ed69d59105"),
    "verify --model d19 --pmax 200": (0, "58ebabed3a1d6420df2658459849f8cf7982b6d20d58fffe7d5b00764dfc5163"),
    "verify --model d19 --pmax 200 --workers 2": (0, "58ebabed3a1d6420df2658459849f8cf7982b6d20d58fffe7d5b00764dfc5163"),
    "verify --model d19 --pmax 60 --out {out}": (0, "ea60ec5d961aee0a9373a7028f5a641fd1c342970741316881769f94119e9ef9"),
    "verify --model d27 --pmax 200": (0, "2b1c705fc562d0f0d3aade4148b83bdd1b99c8eb0a9242532df00d3dbf8e48ec"),
    "verify --model d27 --pmax 200 --workers 2": (0, "2b1c705fc562d0f0d3aade4148b83bdd1b99c8eb0a9242532df00d3dbf8e48ec"),
    "verify --model d3 --pmax 200": (0, "91744e605adecb22021584a434f5b08fa4b4471f2b16a9bef1f67c5a30b3bf7e"),
    "verify --model d4 --pmax 200": (0, "47d089c60dd374c18e45ca9c8ac888a5990787f423ce95152e6036b0d46c90a8"),
    "verify --model d4 --pmax 200 --delta 1009": (0, "2d26a014ff345b011ff6aed998c6212bcdb8b514d19380ca6afe7b3b9ffa0761"),
    "verify --model d4 --pmax 200 --delta -1": (0, "3160240344378938a4aa7330711177b531321590f942dc80f0a8e1e18839a472"),
    "verify --model d4 --pmax 200 --delta -3": (0, "493e398bfc33597232b059d7ccb5a9ecbf2e7f0406984b16e187abb356ad3f5e"),
    "verify --model d4 --pmax 200 --delta 2": (0, "654c04c9c1321328f46155467ff5967c6d15f32ec28df1c018928cf34af45276"),
    "verify --model d4 --pmax 200 --delta 5": (0, "2f066e83d1e1ccca126a537db84c738ca1a28410d04cd858880f6e4cf7671eaa"),
    "verify --model d7-tate --pmax 200": (0, "fa18080e689d2e921b96d8384b90a6bbfb5caa4419c4def5be4ca8c1cec8d733"),
}


# `verify --pmax 200` on d3 with a6 scaled by a constant, read from a model
# file: scaling by 4 gives a cubic twist (verdict cubic_class, every check
# true), scaling by 2 one that fails the d_K = -3 shape test (no_match).
D3_A6_SCALED = {
    4: (0, "b50ead723f860874f762d10702093852653ea5a0a8cb621a376590ac47f800f0"),
    2: (0, "0fa729a1ad180f88f4660b2428059dcbb8f37307ae833d58dfb935777021309f"),
}

# One hash over the exit code and stdout of `classgroup -d d` for every
# -3 >= d >= -1000, invalid discriminants included: the composition law and
# the group structure are pinned on every class group in that range.
CLASSGROUP_SWEEP = "6b74b543d8746cfcd0270b75e57ca66c1e33270cb1697903b1ce067464e980f8"

# One hash over 100 seeded random K3-shaped models (coefficients in -3..3,
# deg a_i <= 2i, d = -3, top coefficients zeroed at random so that t=oo
# carries every kind of fiber): the fiber classification or its error, the
# good primes 5 <= p < 100, and the t=oo fiber count at the first three good
# primes.  It pins the local data at t=oo, which the registry barely reaches.
RANDOM_MODEL_SWEEP = "c15c433f0518abcfa7d01cfc186689aa298a8731ccd4f7f098639d9167fcf3cc"

# One hash over the good primes 100 <= p < 400 of the same 100 random models,
# and 5 <= p < 1000 of the registry models and of d4 twisted by 2, -3, 5,
# -1009 and -2310.  In these ranges places of Delta merge mod p and leading
# coefficients vanish mod p; no order of c4 or c6 jumps, which the frame
# II_C4_FRAME in test_ellsurf.py covers.
GOOD_PRIME_SWEEP = "343c22ffa5d8c17cfeeaef94a6f98b968b3089f398dd0b9db39b09cfe113db76"


# argparse's own documents, help and usage errors: the exit code and the
# sha256 of stdout and of stderr, at an 80-column terminal.  They pin the
# parser the CLI builds: whatever it leaves out of a run must not show.
USAGE_GOLDEN = {
    "": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1fd4e9fd069c5327d3b10cbf3ec0513900707af10ad68bfcf4152e4b2a341d96",
    ),
    "-h": (
        0,
        "458d62aa8d0469010ff7a0ce5848e685b79c7edfbff7076d2d4178c4f9a366a1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "bogus": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "500c2ee6f05bf1dcb087fad0a27b49ee3116d7eae6fd75be2f8a87209bc12243",
    ),
    "verify": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "26f49d9b365fe5f086a383fc321a39a8404094042983bc4c636cba3d6e78d51a",
    ),
    "verify -h": (
        0,
        "c96fe3a12d0372f385bb030474d773287b3e597aba5bf66cd136c90a1b1ab3c5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "verify --model d19 --bogus": (
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ffdf8ad298832e98e8112efaef59e6ccef4a6351518c79146db6bbf669e095cc",
    ),
}


@pytest.mark.parametrize("command", sorted(USAGE_GOLDEN))
def test_usage_golden(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(command.split())
    out, err = capsys.readouterr()
    got = (exit_.value.code, *(hashlib.sha256(s.encode()).hexdigest() for s in (out, err)))
    assert got == USAGE_GOLDEN[command], out + err


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden(command, capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(command.format(out=out_path).split())
    stdout = capsys.readouterr().out.encode()
    digest = hashlib.sha256(stdout).hexdigest()
    assert (code, digest) == GOLDEN[command], stdout.decode()[:2000]
    if "{out}" in command:
        assert out_path.read_bytes() == stdout


@pytest.mark.parametrize("scale", sorted(D3_A6_SCALED))
def test_verify_d3_a6_scaled(scale, capsys, tmp_path):
    obj = model_to_json(REGISTRY["d3"])
    obj["a"]["a6"] = [c * scale for c in obj["a"]["a6"]]
    path = tmp_path / f"d3_a6x{scale}.json"
    path.write_text(json.dumps(obj))
    code = main(["verify", "--model", str(path), "--pmax", "200"])
    stdout = capsys.readouterr().out.encode()
    assert (code, hashlib.sha256(stdout).hexdigest()) == D3_A6_SCALED[scale], stdout.decode()[:2000]


def test_classgroup_sweep(capsys):
    digest = hashlib.sha256()
    for d in range(-3, -1001, -1):
        code = main(["classgroup", "-d", str(d)])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    assert digest.hexdigest() == CLASSGROUP_SWEEP


def _random_model(rng: random.Random, k: int) -> SurfaceModel:
    a = {}
    for name, weight in (("a1", 2), ("a2", 4), ("a3", 6), ("a4", 8), ("a6", 12)):
        coeffs = [rng.randint(-3, 3) for _ in range(weight + 1)]
        for j in range(rng.choice((0, 0, 1, 2, weight // 2, weight))):
            coeffs[weight - j] = 0
        a[name] = coeffs
    return SurfaceModel(f"random-{k}", d=-3, **a)


def _error(err: VerificationError) -> list:
    return ["error", err.code, err.message]


def _valuation(v):
    return None if v is None or v >= 10**9 else v


def _random_model_record(model: SurfaceModel) -> list:
    try:
        fibers = classify_fibers(model)
    except VerificationError as err:
        return [model.name, _error(err)]
    rows = [
        [F.place, 1 if F.poly is None else len(F.poly) - 1, F.kodaira_type,
         _valuation(F.vc4), _valuation(F.vc6), F.vdelta,
         kodaira(F.kodaira_type).components, kodaira(F.kodaira_type).euler]
        for F in fibers
    ]
    good = [p for p in primes_up_to(99) if p >= 5 and good_prime(model, p)]
    counts = []
    for p in good[:3]:
        try:
            counts.append([p, count_fiber(model, p, INFINITY)])
        except VerificationError as err:
            counts.append([p, _error(err)])
    return [model.name, rows, good, counts]


def test_random_model_sweep():
    rng = random.Random(20)
    digest = hashlib.sha256()
    for k in range(100):
        try:
            record = _random_model_record(_random_model(rng, k))
        except VerificationError as err:
            record = [f"random-{k}", _error(err)]
        digest.update((json.dumps(record) + "\n").encode())
    assert digest.hexdigest() == RANDOM_MODEL_SWEEP


def _good_primes(model: SurfaceModel, low: int, high: int) -> list:
    try:
        return [model.name, [p for p in primes_up_to(high - 1) if p >= low and good_prime(model, p)]]
    except VerificationError as err:
        return [model.name, _error(err)]


def test_good_prime_sweep():
    rng = random.Random(20)
    digest = hashlib.sha256()
    records = []
    for k in range(100):
        try:
            records.append(_good_primes(_random_model(rng, k), 100, 400))
        except VerificationError as err:
            records.append([f"random-{k}", _error(err)])
    d4 = REGISTRY["d4"]
    twists = [twist_model(d4, delta) for delta in (2, -3, 5, -1009, -2310)]
    for model in [*REGISTRY.values(), *twists]:
        records.append(_good_primes(model, 5, 1000))
    for record in records:
        digest.update((json.dumps(record) + "\n").encode())
    assert digest.hexdigest() == GOOD_PRIME_SWEEP
