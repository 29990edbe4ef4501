"""Paper-workload generation is pinned byte-for-byte across seeds.

``tests/test_dataset_identity.py`` pins the task datasets built from the
seed-0 workloads.  The digests below pin the generated workloads
themselves at several seeds, including one of the fresh seeds the
``serve`` benchmark submits (``N*100000+1``), so a change to a generator
that keeps seed 0 intact but moves another seed still fails.  They were
captured before the padding loops switched to incremental word counts.
The synthetic entries pin all seven profiles at ``n=40``; they were
captured before the AST kernels (``walk``, ``clone``, the splicing
helpers the generator's normal-form pass uses) switched to per-class
field layouts.

The second test guards the padding loops against going quadratic again:
a loop that re-renders the whole statement on every growth step computes
thousands of full-statement word counts per workload.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.workloads import builders, join_order, load_workload, sdss, sqlshare

EXPECTED_DIGESTS = {
    ("sdss", 0): "78738394a1d6809468a1dd6698bbd4e6ac6cab79dc9c1ffdba7d786b161240a7",
    ("sdss", 1): "a0f56fcf36e8ecd2ced94ce4c2696d5d5a3579eb2cb1f743646dce6599c93f43",
    ("sdss", 2): "4fc23f20a12225e9926affeca3946ef5f75c54f0578820fd838c71ef55640b8b",
    ("sdss", 3): "96845921e7378f49c0bc5b91ca1512ad32cfc3d59dd3a53f46c172e2273b3426",
    ("sdss", 4): "036719ef3d04bd43c72dcf6b482ab9120b90677f509b05ab76a9fe3700a7f9cb",
    ("sdss", 5): "52e33f21afebbc80434c0e2fee7888a743d643f508febe7ad6494c1977735a4b",
    ("sdss", 6): "ff8d1db3132548b0715c18b4bc6ef5de5576bde2c071faa8a00a3f1600ca6f48",
    ("sdss", 7): "a1937041565dd67e73bb8f098bce940583b8e2540fdbfb421f4b215ee9796068",
    ("sdss", 100001): "bf293f56413fef615cbfa41e634e393743e8455c54751dd85ac9b2f303086c39",
    ("sqlshare", 0): "5154636c4a7e8fcf1e00393d0ca69ee04f442cb4a766962a1369b35a5276207a",
    ("sqlshare", 1): "2e51af9a8b3d3a2e69ac3ca184d21fac526a5c3de285a65ddb9e436dfd923117",
    ("sqlshare", 2): "222d9d6af0b6422be321dffc3e751681daf20fcc4d7d4fefd11a78b3d3a9e9f2",
    ("sqlshare", 3): "ef591d4b519aeea30827c975fb78e1ae1cb8b3b4f32ae931ccd1ea8d697edafd",
    ("sqlshare", 4): "3a368014ae7317fe6bfd2534b9f020da984a56f50656ef11ac0f9c1cba8cd002",
    ("sqlshare", 5): "71f5cf9ad6dc055043c18e30e52945c46d1089ce3aa45f8a2e919a2ba85b86bf",
    ("sqlshare", 6): "d9b7660562c7563e980bc1a97d8e487aa4a9a9784727f969b66d3e2ff056eeaa",
    ("sqlshare", 7): "e2f9bab570fce6f6690743c189f2ac3d3e51ac263ef703e6787cf2d83a4a2c71",
    ("sqlshare", 100001): "dbff6f1b9d1c3b3ceabcf65bd7ea521183b1309195fad2db130d2127f53c1ecf",
    ("join_order", 0): "04c992a33fcbb48e99ed5d75ae6bc2d166d3e580e062846b54eef8f43cba0b34",
    ("join_order", 1): "5765be13696d00b81eb22abdf13d9ca5b0a090c40088e9ef9b1fd007b955355c",
    ("join_order", 2): "8a2690cf3bcdf6359906542360d3b43fa3c8e9220d26aa5bc672c17dff3a3fda",
    ("join_order", 3): "1764d4a61e26f1c07a56840d035f3be4b27e5feccaba6b144537a211cf1c7a75",
    ("join_order", 4): "f0081191f58dee51884e52e3b934017f7a4b6ccb4c9db6e08b3304c6fbecbb23",
    ("join_order", 5): "b8e4caf19280139306235d194c83df165a3aad68d975ee1ce29db1ac97f4baf9",
    ("join_order", 6): "e5f3f45c3c6449307a0aa5b9aa91cba95974d89cf437d697069cc80c1321255a",
    ("join_order", 7): "9c130349d881d50f6798b0e8fecb653915a5d557f56af00123b12562f1ae9d70",
    ("join_order", 100001): "5b9b0c6593083978276bdb0001c3e089c86fb9351e58931d38694c5fce7b3e41",
    ("spider", 0): "ef6e32ebd8524d09f684abb6f90a261b7fc5392e5816c38a36e0dc3dfecd25be",
    ("spider", 1): "aaa960f768a3641d43d62bc493c06ff8e016c1d8555695c59badeb5f9270b45b",
    ("spider", 2): "721eed2ebfc79d15df70a21630fde038b5aca1970860bd1f45914389ec57af7c",
    ("spider", 3): "48464ab200958dae3324625e11b94e21234afc27613b3c94371e7f5279b10e9a",
    ("spider", 4): "90ba7a77144d66aeab56896a36a4fcdb7ce9738b08ed889e0d7fe50306186b83",
    ("spider", 5): "9c29a6d9cceda1e42b74b4eed738ad53de5ecf8ccb2de7b9858e2992a4fd4347",
    ("spider", 6): "5c8d87976b1b15f7b63d080824e3305186ef9699ca1f3255f9ea56720b9da0d3",
    ("spider", 7): "c14cd8c9e185ac6c00b9299d8132d64d8c568471bb617b462ac70b0c56023585",
    ("spider", 100001): "eb6267d8cebd97ec08ba452b2b70ff168802a7b96352522746a7f9ddf7b59ef0",
    ("synthetic:aggregation:n=40", 0): "49d049d144a13f323f01c00f9d638921e2d41d9b31e6b3df1d70e3ff431e9dd3",
    ("synthetic:aggregation:n=40", 1): "3959fc1844dd4879f7439b721701893ad1431cae72118618fdbb194e1b27e945",
    ("synthetic:aggregation:n=40", 100001): "a67678de5c2002f008d8be2c377d3f0dcdced30b1bddd12c15c19fbed3a1e2f3",
    ("synthetic:default:n=40", 0): "67ac9b3a69c6ecb77d1219f90d0d9a1cb4b37e8aaca49f489a50d32e0fb5c5a4",
    ("synthetic:default:n=40", 1): "d15eb676f4ee6c86f9a72b002a85a577c4e8e161237f4cc7a87e5ba598597117",
    ("synthetic:default:n=40", 100001): "a9e10ddca120b38ba4a9ba5431cb80527d7611e8fbb8a226c4b5af4492a19b98",
    ("synthetic:joins:n=40", 0): "7d65c5597c1e879b994335b6f51db7f1911d89ff1b51f17159923781d9b159a2",
    ("synthetic:joins:n=40", 1): "24cefd9860d08b83ad53dfb4f9005f0ffdf582f6348df6fae84dbf0d8fbd5f61",
    ("synthetic:joins:n=40", 100001): "8be64efb58bdb9cab4f3a6a67d6aeb6e6dfded4ba3a067b0c5fd963b6400a8f6",
    ("synthetic:nesting:n=40", 0): "52566f808ccaa5762200ae5f40da619d1dc3d6ab9bc8aed86816c64ec978c13f",
    ("synthetic:nesting:n=40", 1): "7fd2665a8478b54dd4215510c8c82a88906850f39740f25fd5bfab0a1751d91f",
    ("synthetic:nesting:n=40", 100001): "021ec22e2ad85c7e54ec8da7de79cc3951f5a6b3445018902ed526aaffb53bcc",
    ("synthetic:predicates:n=40", 0): "d72fea2f0aa7676e04cb9ed297caa5e51ae72753148905ac7fa7334db8a3c950",
    ("synthetic:predicates:n=40", 1): "1253e7ce9231bb4ddfaa9cf4d52d289808f77827e7a17722a432e80afa1d92e4",
    ("synthetic:predicates:n=40", 100001): "5efd29ae464871b44648d45007b640483d9820c7eaf83ffc96707a2147697aee",
    ("synthetic:rewrite:n=40", 0): "7f1300da40345db02099da8ca44712ae97e8909d4aee2a47ed56142b248c48d2",
    ("synthetic:rewrite:n=40", 1): "fa5bb9813275e1db30429d92769db9bcec25a7af9936f22208d60a400237534d",
    ("synthetic:rewrite:n=40", 100001): "7d8eceae9c1bd30a7cb2f75fe656e65bf91fd51b7c729f9bb10230f34f0feadf",
    ("synthetic:setops:n=40", 0): "6987d8541e609197e842311b87804431f7f61e820b463ede30dc27fd768f1f3c",
    ("synthetic:setops:n=40", 1): "995244a8c4824c2be00f3f99e3c12f64be222e2855f2938bbfd8a93425ec88d7",
    ("synthetic:setops:n=40", 100001): "ebe0bd10f6defac68660ff507b48f1fc3bf0d3e726649ad47f84ab524a68b652",
}


def workload_digest(name: str, seed: int) -> str:
    """sha256 over (query_id, text, archetype, elapsed_ms, schema_name)."""
    digest = hashlib.sha256()
    for query in load_workload(name, seed).queries:
        fields = [
            query.query_id,
            query.text,
            query.archetype,
            query.elapsed_ms,
            query.schema_name,
        ]
        digest.update(json.dumps(fields).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize(
    "name,seed", sorted(EXPECTED_DIGESTS), ids=lambda value: str(value)
)
def test_workload_byte_identical(name: str, seed: int) -> None:
    assert workload_digest(name, seed) == EXPECTED_DIGESTS[(name, seed)]


@pytest.mark.parametrize("name", ["sdss", "sqlshare", "join_order"])
def test_padding_makes_at_most_one_full_word_count_per_query(
    name: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    calls = 0
    count_words = builders.statement_word_count

    def counting(statement):
        nonlocal calls
        calls += 1
        return count_words(statement)

    for module in (builders, sdss, sqlshare, join_order):
        monkeypatch.setattr(module, "statement_word_count", counting)
    workload = load_workload(name, 0)
    assert 0 < calls <= len(workload)
